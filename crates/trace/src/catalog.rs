//! The library catalog: the shared-code universe applications draw
//! from.
//!
//! On the paper's Nexus 7, the zygote preloads 88 dynamic shared
//! libraries (4KB to ≈35MB of code each), the ART ahead-of-time
//! compiled Java libraries (`boot.oat` and friends), and the
//! `app_process` program binary. Each application additionally links
//! a handful of platform- or application-specific libraries that the
//! zygote does not preload.

use std::sync::OnceLock;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sat_types::RegionTag;

use crate::profile::popularity_clusters;

/// Index of a library in the catalog.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct LibId(pub u32);

/// One library (or program binary) in the catalog.
#[derive(Clone, Debug)]
pub struct LibrarySpec {
    /// Name, e.g. `libandroid_runtime.so`.
    pub name: String,
    /// Code-segment size in 4KB pages.
    pub code_pages: u32,
    /// Data-segment size in 4KB pages.
    pub data_pages: u32,
    /// Code classification ([`RegionTag::ZygoteNativeCode`],
    /// [`RegionTag::ZygoteJavaCode`], [`RegionTag::ZygoteBinaryCode`],
    /// or [`RegionTag::OtherLibCode`]).
    pub category: RegionTag,
}

impl LibrarySpec {
    /// The matching data-segment tag for this library's category.
    pub fn data_tag(&self) -> RegionTag {
        match self.category {
            RegionTag::ZygoteNativeCode => RegionTag::ZygoteNativeData,
            RegionTag::ZygoteJavaCode => RegionTag::ZygoteJavaData,
            RegionTag::ZygoteBinaryCode => RegionTag::ZygoteBinaryData,
            _ => RegionTag::OtherLibData,
        }
    }
}

/// Number of zygote-preloaded dynamic shared libraries (the paper's
/// measured count on the Nexus 7).
pub const ZYGOTE_NATIVE_LIBS: usize = 88;

/// Number of ART-compiled Java shared-library images.
pub const ZYGOTE_JAVA_LIBS: usize = 4;

/// Per-application count of non-preloaded dynamic shared libraries
/// (platform-specific plus application-specific; the paper saw 0-19
/// extra libraries per application).
pub const OTHER_LIBS_PER_APP: usize = 12;

/// The whole shared-code universe.
pub struct Catalog {
    /// All libraries; zygote-preloaded first, then per-app extras.
    pub libs: Vec<LibrarySpec>,
    /// Ids of the zygote-preloaded native libraries.
    pub zygote_native: Vec<LibId>,
    /// Ids of the zygote-preloaded Java (.oat) libraries.
    pub zygote_java: Vec<LibId>,
    /// Id of the `app_process` binary.
    pub app_process: LibId,
    /// Per application: ids of its non-preloaded libraries.
    pub other_per_app: Vec<Vec<LibId>>,
    /// Per library, its popularity order as cluster indices, each
    /// built when profile generation first asks for it (the outer
    /// table too, so a catalog no profile is drawn from holds none).
    popularity: OnceLock<Box<[Clusters]>>,
}

/// One library's memoised cluster order ([`Catalog::popularity_clusters`]).
type Clusters = OnceLock<Box<[u16]>>;

impl Catalog {
    /// Builds the catalog deterministically from `seed` for `apps`
    /// applications.
    pub fn generate(seed: u64, apps: usize) -> Catalog {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut libs = Vec::new();
        let mut zygote_native = Vec::new();

        // Zygote-preloaded native libraries: sizes follow the paper's
        // "4KB to around 35MB", heavily skewed small with a few large
        // ones (libwebviewchromium-class).
        for i in 0..ZYGOTE_NATIVE_LIBS {
            let code_pages = sample_lib_pages(&mut rng);
            let data_pages = (code_pages / 8).clamp(1, 64);
            zygote_native.push(LibId(libs.len() as u32));
            libs.push(LibrarySpec {
                name: format!("libzygote{i:02}.so"),
                code_pages,
                data_pages,
                category: RegionTag::ZygoteNativeCode,
            });
        }

        // ART-compiled Java libraries: a few large .oat images
        // (boot.oat is ~25MB of code on KitKat/ART devices).
        let mut zygote_java = Vec::new();
        for (i, pages) in [6400u32, 1200, 600, 300]
            .iter()
            .take(ZYGOTE_JAVA_LIBS)
            .enumerate()
        {
            zygote_java.push(LibId(libs.len() as u32));
            libs.push(LibrarySpec {
                name: format!("boot{i}.oat"),
                code_pages: *pages,
                data_pages: pages / 10,
                category: RegionTag::ZygoteJavaCode,
            });
        }

        // app_process: a tiny program binary (~20KB of code).
        let app_process = LibId(libs.len() as u32);
        libs.push(LibrarySpec {
            name: "app_process".to_string(),
            code_pages: 5,
            data_pages: 2,
            category: RegionTag::ZygoteBinaryCode,
        });

        // Per-app non-preloaded libraries. A prefix of each app's list
        // is drawn from a shared platform pool (graphics drivers etc.)
        // so the "all shared code" overlap of Table 2 exceeds the
        // zygote-preloaded overlap.
        let mut platform_pool = Vec::new();
        for i in 0..8 {
            let code_pages = sample_lib_pages(&mut rng);
            platform_pool.push(LibId(libs.len() as u32));
            libs.push(LibrarySpec {
                name: format!("libplatform{i}.so"),
                code_pages,
                data_pages: (code_pages / 8).max(1),
                category: RegionTag::OtherLibCode,
            });
        }
        let mut other_per_app = Vec::new();
        for app in 0..apps {
            let mut ids: Vec<LibId> = platform_pool.clone();
            for i in platform_pool.len()..OTHER_LIBS_PER_APP {
                let code_pages = sample_lib_pages(&mut rng);
                ids.push(LibId(libs.len() as u32));
                libs.push(LibrarySpec {
                    name: format!("libapp{app}_{i}.so"),
                    code_pages,
                    data_pages: (code_pages / 8).max(1),
                    category: RegionTag::OtherLibCode,
                });
            }
            other_per_app.push(ids);
        }

        Catalog {
            libs,
            zygote_native,
            zygote_java,
            app_process,
            other_per_app,
            popularity: OnceLock::new(),
        }
    }

    /// Library `id`'s [`popularity_order`](crate::popularity_order) as
    /// the order of its six-page clusters: cluster `c` is pages
    /// `6c..6c + 6`, the last one cut at the library's end. Shuffled
    /// once per catalog and library, on first use.
    pub(crate) fn popularity_clusters(&self, id: LibId) -> &[u16] {
        let table = self
            .popularity
            .get_or_init(|| self.libs.iter().map(|_| OnceLock::new()).collect());
        table[id.0 as usize].get_or_init(|| popularity_clusters(id, self.lib(id).code_pages))
    }

    /// Borrows a library's spec.
    pub fn lib(&self, id: LibId) -> &LibrarySpec {
        &self.libs[id.0 as usize]
    }

    /// Total code pages across the zygote-preloaded shared code.
    pub fn zygote_preloaded_code_pages(&self) -> u32 {
        self.zygote_native
            .iter()
            .chain(self.zygote_java.iter())
            .chain(std::iter::once(&self.app_process))
            .map(|id| self.lib(*id).code_pages)
            .sum()
    }

    /// All zygote-preloaded library ids (native + Java + binary).
    pub fn zygote_preloaded(&self) -> Vec<LibId> {
        self.zygote_native
            .iter()
            .chain(self.zygote_java.iter())
            .chain(std::iter::once(&self.app_process))
            .copied()
            .collect()
    }
}

/// Samples a library code size in pages: log-uniform between 1 page
/// (4KB) and ~2,000 pages (8MB), with a 3% chance of a huge
/// (webview-class, up to ~35MB) library.
fn sample_lib_pages(rng: &mut SmallRng) -> u32 {
    if rng.gen_bool(0.03) {
        rng.gen_range(4000..9000)
    } else {
        // log-uniform in [1, 2048].
        let exp = rng.gen_range(0.0..11.0f64);
        (2.0f64.powf(exp) as u32).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_is_deterministic() {
        let a = Catalog::generate(42, 3);
        let b = Catalog::generate(42, 3);
        assert_eq!(a.libs.len(), b.libs.len());
        for (x, y) in a.libs.iter().zip(&b.libs) {
            assert_eq!(x.code_pages, y.code_pages);
            assert_eq!(x.name, y.name);
        }
    }

    #[test]
    fn catalog_structure_matches_paper_counts() {
        let c = Catalog::generate(1, 11);
        assert_eq!(c.zygote_native.len(), 88);
        assert_eq!(c.other_per_app.len(), 11);
        for ids in &c.other_per_app {
            assert_eq!(ids.len(), OTHER_LIBS_PER_APP);
        }
        // app_process is tiny and classified as the zygote binary.
        assert_eq!(c.lib(c.app_process).category, RegionTag::ZygoteBinaryCode);
        assert!(c.lib(c.app_process).code_pages < 16);
    }

    #[test]
    fn zygote_preloaded_code_is_tens_of_mb() {
        // The paper's union of *accessed* preloaded code is ~30MB; the
        // mapped total must comfortably exceed that.
        let c = Catalog::generate(1, 11);
        let pages = c.zygote_preloaded_code_pages();
        let mb = pages as f64 * 4096.0 / (1024.0 * 1024.0);
        assert!(mb > 40.0, "preloaded code too small: {mb:.1}MB");
        assert!(mb < 400.0, "preloaded code absurdly large: {mb:.1}MB");
    }

    #[test]
    fn library_sizes_span_paper_range() {
        let c = Catalog::generate(7, 11);
        let min = c.libs.iter().map(|l| l.code_pages).min().unwrap();
        let max = c.libs.iter().map(|l| l.code_pages).max().unwrap();
        assert_eq!(min, 1); // 4KB
        assert!(max >= 2000, "largest lib only {max} pages");
    }

    #[test]
    fn data_tags_match_categories() {
        let c = Catalog::generate(1, 2);
        assert_eq!(
            c.lib(c.zygote_native[0]).data_tag(),
            RegionTag::ZygoteNativeData
        );
        assert_eq!(
            c.lib(c.zygote_java[0]).data_tag(),
            RegionTag::ZygoteJavaData
        );
        assert_eq!(c.lib(c.app_process).data_tag(), RegionTag::ZygoteBinaryData);
        assert_eq!(
            c.lib(c.other_per_app[0][0]).data_tag(),
            RegionTag::OtherLibData
        );
    }
}
