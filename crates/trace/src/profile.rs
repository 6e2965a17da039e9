//! Per-application footprint generation.
//!
//! Every library has a deterministic *popularity order* over its code
//! pages (a seeded shuffle in six-page clusters, so that the popular
//! pages are scattered across the library's address range — the
//! function-level locality that makes 64KB regions sparse, Figure 4).
//! An application touches a prefix of each used library's popularity
//! order plus a sprinkling of app-specific pages beyond it; prefixes
//! shared across applications produce the Table 2 overlap, while the
//! scatter keeps footprints distinct.

use std::collections::BTreeSet;

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use sat_types::RegionTag;

use crate::apps::AppSpec;
use crate::catalog::{Catalog, LibId};

/// A code page: a library page or a private application page.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum CodePage {
    /// Page `page` of library `lib`'s code segment.
    Lib {
        /// The library.
        lib: LibId,
        /// 4KB page index within the code segment.
        page: u32,
    },
    /// Page `page` of the application's private code.
    Private {
        /// 4KB page index within the private code image.
        page: u32,
    },
}

/// Fraction of an application's per-library quota drawn from the
/// library's popularity prefix (shared with other applications).
const PREFIX_FRACTION: f64 = 0.75;

/// Pages per popularity cluster. Clusters model function-group
/// locality: consecutive pages that are hot (or cold) together.
/// Calibrated so that the Figure 4 sparsity comes out like the
/// paper's: touched pages cover roughly 6 of the 16 4KB pages in an
/// occupied 64KB region, giving a ≈2.6× memory blow-up for 64KB
/// pages.
const POPULARITY_CLUSTER: u32 = 6;

/// The generator of a library's popularity order, seeded only by the
/// library id (so all applications agree on it).
fn popularity_rng(lib: LibId) -> SmallRng {
    SmallRng::seed_from_u64(0x9E3779B9_7F4A7C15 ^ (lib.0 as u64))
}

/// Returns the popularity order of a library's code pages:
/// a deterministic permutation of `0..pages` in six-page clusters,
/// seeded only by the library id (so all applications agree on it).
pub fn popularity_order(lib: LibId, pages: u32) -> Vec<u32> {
    let mut clusters: Vec<u32> = (0..pages.div_ceil(POPULARITY_CLUSTER)).collect();
    clusters.shuffle(&mut popularity_rng(lib));
    let mut order = Vec::with_capacity(pages as usize);
    for c in clusters {
        for page in (c * POPULARITY_CLUSTER)..((c + 1) * POPULARITY_CLUSTER).min(pages) {
            order.push(page);
        }
    }
    order
}

/// [`popularity_order`]'s cluster permutation, as `u16` cluster
/// indices: the same shuffle, since a shuffle's draws depend only on
/// the length. What [`Catalog`] memoises for profile generation.
pub(crate) fn popularity_clusters(lib: LibId, pages: u32) -> Box<[u16]> {
    let n = pages.div_ceil(POPULARITY_CLUSTER);
    assert!(n <= 1 << 16, "{pages} pages overflow u16 cluster indices");
    let mut clusters: Box<[u16]> = (0..n).map(|c| c as u16).collect();
    clusters.shuffle(&mut popularity_rng(lib));
    clusters
}

/// The pages the zygote itself touches during preload: the most
/// popular `quota` pages of each preloaded library, with quotas
/// proportional to size and scaled to `total_pages` overall (the
/// paper's zygote had populated ≈5,900 instruction PTEs of shared
/// code before any fork).
pub fn zygote_preload_pages(catalog: &Catalog, total_pages: u32) -> Vec<CodePage> {
    let libs = catalog.zygote_preloaded();
    let weights: Vec<f64> = libs
        .iter()
        .map(|id| (catalog.lib(*id).code_pages as f64).powf(0.85))
        .collect();
    let wsum: f64 = weights.iter().sum();
    let mut out = Vec::new();
    for (id, w) in libs.iter().zip(&weights) {
        let lib = catalog.lib(*id);
        let quota = ((total_pages as f64) * w / wsum).round() as u32;
        let quota = quota.min(lib.code_pages);
        let order = popularity_order(*id, lib.code_pages);
        for &page in order.iter().take(quota as usize) {
            out.push(CodePage::Lib { lib: *id, page });
        }
    }
    out
}

/// An application's generated instruction footprint.
#[derive(Clone, Debug)]
pub struct AppProfile {
    /// The application's spec.
    pub spec: AppSpec,
    /// Index of the application in the suite (selects its
    /// app-specific libraries in the catalog).
    pub app_index: usize,
    /// Every code page the application fetches from, with its
    /// category.
    pub pages: Vec<(CodePage, RegionTag)>,
}

impl AppProfile {
    /// Generates the footprint for application `app_index` of the
    /// suite.
    pub fn generate(catalog: &Catalog, spec: &AppSpec, app_index: usize, seed: u64) -> AppProfile {
        let mut rng = SmallRng::seed_from_u64(seed ^ ((app_index as u64) << 32));
        let n = spec.footprint_pages as f64;
        let mut pages: Vec<(CodePage, RegionTag)> = Vec::new();

        // Category targets in pages.
        let native_target = (n * spec.page_shares[0]).round() as u32;
        let java_target = (n * spec.page_shares[1]).round() as u32;
        let proc_target = ((n * spec.page_shares[2]).round() as u32).max(2);
        let other_target = (n * spec.page_shares[3]).round() as u32;
        let private_target = (n * spec.page_shares[4]).round() as u32;

        // Zygote-preloaded native libraries: a seeded subset.
        let mut native: Vec<LibId> = catalog.zygote_native.clone();
        native.shuffle(&mut rng);
        native.truncate(spec.native_libs_used);
        select_from_libs(
            catalog,
            &native,
            native_target,
            RegionTag::ZygoteNativeCode,
            &mut rng,
            &mut pages,
        );

        // Java .oat libraries: all of them.
        select_from_libs(
            catalog,
            &catalog.zygote_java,
            java_target,
            RegionTag::ZygoteJavaCode,
            &mut rng,
            &mut pages,
        );

        // app_process.
        select_from_libs(
            catalog,
            std::slice::from_ref(&catalog.app_process),
            proc_target,
            RegionTag::ZygoteBinaryCode,
            &mut rng,
            &mut pages,
        );

        // Other (platform + app-specific) libraries.
        let others = &catalog.other_per_app[app_index];
        select_from_libs(
            catalog,
            others,
            other_target,
            RegionTag::OtherLibCode,
            &mut rng,
            &mut pages,
        );

        // Private code: a contiguous-ish set of the app's own pages.
        for page in 0..private_target {
            pages.push((CodePage::Private { page }, RegionTag::AppCode));
        }
        // The profile outlives generation: hold no growth slack.
        pages.shrink_to_fit();

        AppProfile {
            spec: spec.clone(),
            app_index,
            pages,
        }
    }

    /// Total pages in the footprint.
    pub fn footprint(&self) -> usize {
        self.pages.len()
    }

    /// Pages belonging to zygote-preloaded shared code.
    pub fn zygote_preloaded_pages(&self) -> BTreeSet<CodePage> {
        self.pages
            .iter()
            .filter(|(_, tag)| tag.is_zygote_preloaded_code())
            .map(|(p, _)| *p)
            .collect()
    }

    /// Pages belonging to any shared code (zygote-preloaded plus other
    /// dynamic libraries).
    pub fn shared_code_pages(&self) -> BTreeSet<CodePage> {
        self.pages
            .iter()
            .filter(|(_, tag)| tag.is_shared_code())
            .map(|(p, _)| *p)
            .collect()
    }

    /// Pages per category, in the Figure 2 order (zygote native,
    /// zygote Java, app_process, other libs, private).
    pub fn category_counts(&self) -> [usize; 5] {
        let mut counts = [0usize; 5];
        for (_, tag) in &self.pages {
            let idx = match tag {
                RegionTag::ZygoteNativeCode => 0,
                RegionTag::ZygoteJavaCode => 1,
                RegionTag::ZygoteBinaryCode => 2,
                RegionTag::OtherLibCode => 3,
                _ => 4,
            };
            counts[idx] += 1;
        }
        counts
    }
}

/// Selects ~`target` pages across `libs`, weighting big libraries
/// more, taking each library's popularity prefix plus an app-specific
/// scatter. Each library's pages are appended in ascending order.
fn select_from_libs(
    catalog: &Catalog,
    libs: &[LibId],
    target: u32,
    tag: RegionTag,
    rng: &mut SmallRng,
    out: &mut Vec<(CodePage, RegionTag)>,
) {
    if libs.is_empty() || target == 0 {
        return;
    }
    let weights: Vec<f64> = libs
        .iter()
        .map(|id| (catalog.lib(*id).code_pages as f64).powf(0.85))
        .collect();
    let wsum: f64 = weights.iter().sum();
    // Per library, reused: the chosen pages as a bitmap, and the tail
    // clusters by their rank beyond the prefix.
    let mut chosen: Vec<u64> = Vec::new();
    let mut tail_clusters: Vec<u32> = Vec::new();
    for (id, w) in libs.iter().zip(&weights) {
        let pages = catalog.lib(*id).code_pages;
        let quota = (((target as f64) * w / wsum).round() as u32).min(pages) as usize;
        if quota == 0 {
            continue;
        }
        let order = Order::new(catalog.popularity_clusters(*id), pages);
        chosen.clear();
        chosen.resize(pages.div_ceil(64) as usize, 0);
        let prefix = ((quota as f64) * PREFIX_FRACTION).round() as usize;
        for pos in 0..prefix {
            insert(&mut chosen, order.page(pos));
        }
        // App-specific scatter from beyond the prefix, taken in whole
        // popularity clusters so the Figure 4 sparsity stays
        // function-grained rather than page-grained: cluster `k` is
        // positions `prefix + 6k..` of the order, six or up to its
        // end. The prefix and these clusters are disjoint runs of one
        // permutation, so each page they add is new.
        let cluster = POPULARITY_CLUSTER as usize;
        let mut count = prefix;
        tail_clusters.clear();
        tail_clusters.extend(0..(pages as usize - prefix).div_ceil(cluster) as u32);
        tail_clusters.shuffle(rng);
        for &k in &tail_clusters {
            if count >= quota {
                break;
            }
            let first = prefix + k as usize * cluster;
            let end = (first + cluster).min(pages as usize);
            for pos in first..end {
                insert(&mut chosen, order.page(pos));
            }
            count += end - first;
        }
        // Defensive: if the tail was too small, top up from anywhere
        // (a page drawn again does not count).
        while count < quota && count < pages as usize {
            if insert(&mut chosen, rng.gen_range(0..pages)) {
                count += 1;
            }
        }
        for (i, &word) in chosen.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let page = i as u32 * 64 + bits.trailing_zeros();
                out.push((CodePage::Lib { lib: *id, page }, tag));
                bits &= bits - 1;
            }
        }
    }
}

/// A library's [`popularity_order`], read position by position off its
/// memoised cluster order instead of expanded. Every cluster holds six
/// pages but the library's last, which holds the rest: the positions
/// past it sit `gap` earlier than six pages a cluster would put them.
struct Order<'a> {
    clusters: &'a [u16],
    /// The position just past the short cluster's pages.
    short_end: usize,
    /// The pages the short cluster lacks.
    gap: usize,
}

impl<'a> Order<'a> {
    fn new(clusters: &'a [u16], pages: u32) -> Order<'a> {
        let cluster = POPULARITY_CLUSTER as usize;
        let last = clusters.len() - 1;
        let short = pages as usize - last * cluster;
        let at = clusters
            .iter()
            .position(|&c| c as usize == last)
            .expect("a permutation holds its last cluster");
        Order {
            clusters,
            short_end: at * cluster + short,
            gap: cluster - short,
        }
    }

    /// The page at position `pos` of the order.
    fn page(&self, pos: usize) -> u32 {
        let cluster = POPULARITY_CLUSTER as usize;
        let pos = if pos >= self.short_end {
            pos + self.gap
        } else {
            pos
        };
        (self.clusters[pos / cluster] as usize * cluster + pos % cluster) as u32
    }
}

/// Sets `page`'s bit; `true` if it was clear.
fn insert(bitmap: &mut [u64], page: u32) -> bool {
    let (word, bit) = (&mut bitmap[page as usize / 64], 1u64 << (page % 64));
    let new = *word & bit == 0;
    *word |= bit;
    new
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::app_specs;

    fn suite() -> (Catalog, Vec<AppProfile>) {
        let catalog = Catalog::generate(1, 11);
        let specs = app_specs();
        let profiles = specs
            .iter()
            .enumerate()
            .map(|(i, s)| AppProfile::generate(&catalog, s, i, 7))
            .collect();
        (catalog, profiles)
    }

    #[test]
    fn generation_is_deterministic() {
        let catalog = Catalog::generate(1, 11);
        let spec = &app_specs()[0];
        let a = AppProfile::generate(&catalog, spec, 0, 7);
        let b = AppProfile::generate(&catalog, spec, 0, 7);
        assert_eq!(a.pages, b.pages);
    }

    #[test]
    fn footprints_near_targets() {
        let (_c, profiles) = suite();
        for p in &profiles {
            let target = p.spec.footprint_pages as f64;
            let actual = p.footprint() as f64;
            assert!(
                (actual - target).abs() / target < 0.15,
                "{}: target {target}, actual {actual}",
                p.spec.name
            );
        }
    }

    #[test]
    fn category_shares_near_spec() {
        let (_c, profiles) = suite();
        for p in &profiles {
            let counts = p.category_counts();
            let total: usize = counts.iter().sum();
            // Zygote-native share within 6 points of spec.
            let native = counts[0] as f64 / total as f64;
            assert!(
                (native - p.spec.page_shares[0]).abs() < 0.06,
                "{}: native share {native} vs {}",
                p.spec.name,
                p.spec.page_shares[0]
            );
        }
    }

    #[test]
    fn popularity_order_is_permutation() {
        let order = popularity_order(LibId(3), 101);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..101).collect::<Vec<_>>());
        // And it scatters: the first 10 pages of the order are not the
        // first 10 pages of the library.
        assert_ne!(&order[..10], &(0..10).collect::<Vec<_>>()[..]);
    }

    #[test]
    fn the_order_read_off_the_memo_is_the_popularity_order() {
        for c in [Catalog::generate(1, 11), Catalog::generate(13, 11)] {
            for (i, lib) in c.libs.iter().enumerate() {
                let id = LibId(i as u32);
                let order = Order::new(c.popularity_clusters(id), lib.code_pages);
                let read: Vec<u32> = (0..lib.code_pages as usize)
                    .map(|p| order.page(p))
                    .collect();
                assert_eq!(read, popularity_order(id, lib.code_pages), "{}", lib.name);
                // Memoised: a second call hands back the same table.
                assert!(std::ptr::eq(
                    c.popularity_clusters(id),
                    c.popularity_clusters(id)
                ));
            }
        }
    }

    #[test]
    fn pairwise_overlap_in_paper_range() {
        // Table 2: zygote-preloaded intersection averages 37.9% of a
        // footprint; all-shared-code, 45.7%.
        let (_c, profiles) = suite();
        let mut zyg_sum = 0.0;
        let mut all_sum = 0.0;
        let mut count = 0;
        for a in &profiles {
            let a_zyg = a.zygote_preloaded_pages();
            let a_all = a.shared_code_pages();
            for b in &profiles {
                if a.spec.name == b.spec.name {
                    continue;
                }
                let b_zyg = b.zygote_preloaded_pages();
                let b_all = b.shared_code_pages();
                zyg_sum += a_zyg.intersection(&b_zyg).count() as f64 / a.footprint() as f64;
                all_sum += a_all.intersection(&b_all).count() as f64 / a.footprint() as f64;
                count += 1;
            }
        }
        let zyg_avg = zyg_sum / count as f64;
        let all_avg = all_sum / count as f64;
        assert!(
            (0.28..=0.48).contains(&zyg_avg),
            "zygote-preloaded overlap {zyg_avg:.3} outside plausible range"
        );
        assert!(
            all_avg > zyg_avg + 0.03,
            "all-shared overlap {all_avg:.3} should exceed preloaded {zyg_avg:.3}"
        );
        assert!(all_avg < 0.60, "all-shared overlap {all_avg:.3} too high");
    }

    #[test]
    fn zygote_preload_size_matches_paper() {
        let catalog = Catalog::generate(1, 11);
        let preload = zygote_preload_pages(&catalog, 5900);
        let n = preload.len() as f64;
        assert!((n - 5900.0).abs() / 5900.0 < 0.1, "preload {n} pages");
        // All pages belong to preloaded libraries.
        let preloaded: BTreeSet<LibId> = catalog.zygote_preloaded().into_iter().collect();
        for p in &preload {
            match p {
                CodePage::Lib { lib, .. } => assert!(preloaded.contains(lib)),
                CodePage::Private { .. } => panic!("zygote preload has no private pages"),
            }
        }
    }

    #[test]
    fn apps_inherit_most_preload_from_zygote() {
        // Table 3's cold-start measurement is 640..2,300 instruction
        // PTEs inherited *at launch*. What this test measures is the
        // whole-footprint overlap with the preload — an upper bound on
        // the launch number, since it counts every preloaded page the
        // app will ever fetch, not just those populated by launch
        // time. So the window is wider than Table 3's: substantial
        // inheritance for every app (lower bound), but never a
        // dominant share of the ~5,900-page preload (upper bound),
        // which would mean footprints had stopped being distinct.
        let (catalog, profiles) = suite();
        let preload: BTreeSet<CodePage> =
            zygote_preload_pages(&catalog, 5900).into_iter().collect();
        for p in &profiles {
            let app_pages = p.zygote_preloaded_pages();
            let inherited = app_pages.intersection(&preload).count();
            assert!(
                (300..=4000).contains(&inherited),
                "{}: inherited {inherited} preloaded PTEs",
                p.spec.name
            );
        }
    }
}
