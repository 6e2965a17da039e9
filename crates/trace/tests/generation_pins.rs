//! Workload generation pinned page for page. The expected values were
//! computed once and pasted in, so a change that moves one generated
//! page, one preload entry or their order fails here — whatever else
//! it changes about how generation is done.

use sat_trace::{app_specs, zygote_preload_pages, AppProfile, Catalog, CodePage};

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn page(&mut self, page: CodePage) {
        match page {
            CodePage::Lib { lib, page } => {
                self.word(0);
                self.word(u64::from(lib.0));
                self.word(u64::from(page));
            }
            CodePage::Private { page } => {
                self.word(1);
                self.word(u64::from(page));
            }
        }
    }
}

/// `(pages, hash)` of the eleven apps' page lists, in suite order, on
/// the catalog a system booted at `seed` would build.
fn suite_pin(seed: u64) -> (usize, u64) {
    let catalog = Catalog::generate(seed, 11);
    let mut h = Fnv::new();
    let mut pages = 0;
    for (i, spec) in app_specs().iter().enumerate() {
        let profile = AppProfile::generate(&catalog, spec, i, seed);
        h.word(profile.pages.len() as u64);
        for &(page, tag) in &profile.pages {
            h.page(page);
            h.word(tag as u64);
        }
        pages += profile.pages.len();
    }
    (pages, h.0)
}

/// `(pages, hash)` of the zygote's preload list at `total` pages.
fn preload_pin(seed: u64, total: u32) -> (usize, u64) {
    let catalog = Catalog::generate(seed, 11);
    let preload = zygote_preload_pages(&catalog, total);
    let mut h = Fnv::new();
    for &page in &preload {
        h.page(page);
    }
    (preload.len(), h.0)
}

#[test]
fn app_profiles_are_pinned() {
    let got: Vec<(u64, usize, u64)> = [1, 7, 13]
        .into_iter()
        .map(|seed| {
            let (n, h) = suite_pin(seed);
            (seed, n, h)
        })
        .collect();
    assert_eq!(
        got,
        [
            (1, 47_861, 12_613_573_650_119_709_016),
            (7, 47_890, 12_659_678_907_988_399_073),
            (13, 47_734, 7_739_106_488_702_427_823),
        ]
    );
}

#[test]
fn zygote_preload_is_pinned() {
    let got: Vec<(u64, u32, usize, u64)> = [1, 7]
        .into_iter()
        .flat_map(|seed| {
            [400, 5_900].map(|total| {
                let (n, h) = preload_pin(seed, total);
                (seed, total, n, h)
            })
        })
        .collect();
    assert_eq!(
        got,
        [
            (1, 400, 393, 12_398_278_790_000_857_994),
            (1, 5_900, 5_904, 3_594_184_498_723_066_196),
            (7, 400, 394, 5_617_815_589_631_379_982),
            (7, 5_900, 5_896, 10_201_130_663_698_686_555),
        ]
    );
}
