//! A generic set-associative LRU cache over physical line addresses.

use sat_types::PhysAddr;

/// Geometry of one cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u32,
    /// Associativity (ways per set).
    pub ways: u32,
    /// Line size in bytes (power of two).
    pub line_bytes: u32,
}

impl CacheConfig {
    /// Cortex-A9 32KB 4-way L1 with 32B lines.
    pub const L1_32K: CacheConfig = CacheConfig {
        size_bytes: 32 * 1024,
        ways: 4,
        line_bytes: 32,
    };

    /// Tegra 3 shared 1MB 8-way L2 with 32B lines.
    pub const L2_1M: CacheConfig = CacheConfig {
        size_bytes: 1024 * 1024,
        ways: 8,
        line_bytes: 32,
    };

    /// Number of sets implied by the geometry (rounded down; two
    /// divisions, so no product of the fields can overflow).
    pub fn sets(&self) -> u32 {
        self.size_bytes / self.ways / self.line_bytes
    }
}

/// Hit/miss statistics for one cache.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Valid lines evicted by replacement.
    pub evictions: u64,
}

/// An empty way. No address has this tag — a line is at least two
/// bytes, so a tag has at most 31 bits — so a lookup compares tags
/// only.
pub(crate) const INVALID: u32 = u32::MAX;

/// A set-associative cache with true-LRU replacement.
///
/// All tags live in one flat array, set-major: set `s` is
/// `tags[s * ways..][..ways]`, most recently used first. A use moves
/// its tag to way 0 and shifts the ways before it back by one, so the
/// last way holds the LRU line; empty ways are never used, so they sit
/// last and a miss drops an empty way before any valid one.
pub struct Cache {
    config: CacheConfig,
    tags: Vec<u32>,
    ways: usize,
    stats: CacheStats,
    sets: SetIndex,
}

/// Where a line's set and tag sit in a physical address, for a
/// geometry [`SetIndex::new`] accepted.
#[derive(Clone, Copy)]
pub(crate) struct SetIndex {
    line_shift: u32,
    set_bits: u32,
    set_mask: u32,
}

impl SetIndex {
    /// Checks `config`, refusing by name what [`Cache::new`] lists, and
    /// derives its index.
    pub(crate) fn new(config: CacheConfig) -> Self {
        assert!(config.ways >= 1, "a cache needs at least one way");
        assert!(
            config.line_bytes.is_power_of_two() && config.line_bytes > 1,
            "line size must be a power of two above one"
        );
        let sets = config.sets();
        assert!(sets >= 1, "a cache needs at least one set");
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        SetIndex {
            line_shift: config.line_bytes.trailing_zeros(),
            set_bits: sets.trailing_zeros(),
            set_mask: sets - 1,
        }
    }

    /// The number of sets.
    #[inline]
    pub(crate) fn count(self) -> usize {
        self.set_mask as usize + 1
    }

    /// Splits `pa` into (set index, tag).
    #[inline]
    pub(crate) fn locate(self, pa: PhysAddr) -> (usize, u32) {
        let line_addr = pa.raw() >> self.line_shift;
        (
            (line_addr & self.set_mask) as usize,
            line_addr >> self.set_bits,
        )
    }
}

impl Cache {
    /// Creates a cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if there is no way, if the line size is not a power of
    /// two or is one byte, if the geometry holds less than one set, or
    /// if the set count is not a power of two.
    pub fn new(config: CacheConfig) -> Self {
        let sets = SetIndex::new(config);
        Cache {
            config,
            tags: vec![INVALID; sets.count() * config.ways as usize],
            ways: config.ways as usize,
            stats: CacheStats::default(),
            sets,
        }
    }

    /// Returns the cache geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Returns the statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets the statistics (not the contents).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Accesses the line containing `pa`, allocating it on a miss.
    /// Returns `true` on a hit.
    #[inline]
    pub fn access(&mut self, pa: PhysAddr) -> bool {
        let hit = match self.ways {
            4 => self.access_w::<4>(pa),
            8 => self.access_w::<8>(pa),
            _ => self.access_w::<0>(pa),
        };
        if hit {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        hit
    }

    /// [`Cache::access`] at `W` ways a set, known at compile time, or
    /// at the geometry's count for `W = 0`.
    #[inline(always)]
    fn access_w<const W: usize>(&mut self, pa: PhysAddr) -> bool {
        let w = if W == 0 { self.ways } else { W };
        let (set, tag) = self.sets.locate(pa);
        touch(
            &mut self.tags[set * w..][..w],
            tag,
            &mut self.stats.evictions,
        )
    }

    /// Accesses the `n` consecutive lines from the one holding `pa`
    /// exactly as `n` calls of [`Cache::access`] at `pa`, `pa + line`,
    /// … would, and calls `on_miss` with each of those addresses that
    /// missed, in order. The counters are updated once per run; the
    /// run must end below 4 GiB. The L2 takes the L1-I's misses this
    /// way, so its 8 ways are the one width known at compile time.
    #[inline]
    pub(crate) fn access_run(&mut self, pa: PhysAddr, n: u32, on_miss: impl FnMut(PhysAddr)) {
        match self.ways {
            8 => self.run_w::<8>(pa, n, on_miss),
            _ => self.run_w::<0>(pa, n, on_miss),
        }
    }

    /// [`Cache::access_run`] at `W` ways a set (as in
    /// [`Cache::access_w`]), one lap of the sets at a time: consecutive
    /// lines lie in consecutive sets under one tag, one higher after
    /// each wrap back to set 0.
    #[inline(always)]
    fn run_w<const W: usize>(&mut self, pa: PhysAddr, n: u32, mut on_miss: impl FnMut(PhysAddr)) {
        let w = if W == 0 { self.ways } else { W };
        let (mut set, mut tag) = self.sets.locate(pa);
        let (mut addr, mut left) = (pa.raw(), n as usize);
        let (mut hits, mut evictions) = (0, 0);
        while left > 0 {
            let lap = left.min(self.sets.count() - set);
            for ways in self.tags[set * w..(set + lap) * w].chunks_exact_mut(w) {
                if touch(ways, tag, &mut evictions) {
                    hits += 1;
                } else {
                    on_miss(PhysAddr::new(addr));
                }
                addr = addr.wrapping_add(self.config.line_bytes);
            }
            left -= lap;
            (set, tag) = (0, tag + 1);
        }
        self.stats.hits += u64::from(hits);
        self.stats.misses += u64::from(n - hits);
        self.stats.evictions += evictions;
    }

    /// Probes whether `pa`'s line is resident without touching LRU
    /// state or statistics.
    pub fn probe(&self, pa: PhysAddr) -> bool {
        let (set, tag) = self.sets.locate(pa);
        self.tags[set * self.ways..][..self.ways].contains(&tag)
    }

    /// Invalidates everything.
    pub fn flush(&mut self) {
        self.tags.fill(INVALID);
    }

    /// Number of valid lines.
    pub fn occupancy(&self) -> usize {
        self.tags.iter().filter(|&&t| t != INVALID).count()
    }
}

/// Uses `tag` in `set`, whose ways hold tags most recent first, in
/// one pass: the tag goes into way 0 and each way's tag moves back
/// one, until the pass meets the tag (a hit) or runs off the end (a
/// miss, whose victim is the tag pushed out of the last way, counted
/// in `evictions` unless that way was empty). Returns `true` on a hit.
/// Inlined into each width's instance, so the pass knows its length.
#[inline(always)]
pub(crate) fn touch(set: &mut [u32], tag: u32, evictions: &mut u64) -> bool {
    let mut carried = tag;
    for way in set {
        let held = std::mem::replace(way, carried);
        if held == tag {
            return true;
        }
        carried = held;
    }
    if carried != INVALID {
        *evictions += 1;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets × 2 ways × 32B lines = 128B.
        Cache::new(CacheConfig {
            size_bytes: 128,
            ways: 2,
            line_bytes: 32,
        })
    }

    #[test]
    fn geometry() {
        assert_eq!(CacheConfig::L1_32K.sets(), 256);
        assert_eq!(CacheConfig::L2_1M.sets(), 4096);
        assert_eq!(tiny().config().sets(), 2);
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(PhysAddr::new(0x1000)));
        assert!(c.access(PhysAddr::new(0x1004))); // same 32B line
        assert!(!c.access(PhysAddr::new(0x1020))); // next line
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = tiny();
        // All of these map to set 0 (line address multiple of 2).
        let a = PhysAddr::new(0x000);
        let b = PhysAddr::new(0x040);
        let d = PhysAddr::new(0x080);
        c.access(a);
        c.access(b);
        c.access(a); // a is now MRU
        c.access(d); // evicts b (LRU)
        assert!(c.probe(a));
        assert!(!c.probe(b));
        assert!(c.probe(d));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn distinct_sets_do_not_interfere() {
        let mut c = tiny();
        c.access(PhysAddr::new(0x00)); // set 0
        c.access(PhysAddr::new(0x20)); // set 1
        c.access(PhysAddr::new(0x40)); // set 0
        c.access(PhysAddr::new(0x60)); // set 1
        assert_eq!(c.occupancy(), 4);
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn flush_empties_cache() {
        let mut c = tiny();
        c.access(PhysAddr::new(0x1000));
        c.flush();
        assert_eq!(c.occupancy(), 0);
        assert!(!c.probe(PhysAddr::new(0x1000)));
    }

    #[test]
    #[should_panic(expected = "a cache needs at least one way")]
    fn zero_ways_is_refused_by_name() {
        Cache::new(CacheConfig {
            size_bytes: 128,
            ways: 0,
            line_bytes: 32,
        });
    }

    #[test]
    #[should_panic(expected = "line size must be a power of two above one")]
    fn zero_byte_lines_are_refused_by_name() {
        Cache::new(CacheConfig {
            size_bytes: 128,
            ways: 2,
            line_bytes: 0,
        });
    }

    #[test]
    #[should_panic(expected = "a cache needs at least one set")]
    fn less_than_one_set_is_refused_by_name() {
        Cache::new(CacheConfig {
            size_bytes: 64,
            ways: 4,
            line_bytes: 32,
        });
    }

    #[test]
    #[should_panic(expected = "a cache needs at least one set")]
    fn a_way_count_whose_product_overflows_is_refused_by_name() {
        // ways × line_bytes is 2^32, past `u32`: the set count still
        // comes out as zero, in debug and release alike.
        Cache::new(CacheConfig {
            size_bytes: 1 << 20,
            ways: 1 << 27,
            line_bytes: 32,
        });
    }

    #[test]
    fn a_set_reads_most_recent_first_with_empty_ways_last() {
        // Two sets of four ways; `set0(i)` has tag `i` in set 0.
        let mut c = Cache::new(CacheConfig {
            size_bytes: 256,
            ways: 4,
            line_bytes: 32,
        });
        let set0 = |i: u32| PhysAddr::new(i * 64);
        for i in [0, 1, 2, 1] {
            c.access(set0(i));
        }
        assert_eq!(c.tags[..4], [1, 2, 0, INVALID]);
        assert_eq!(c.tags[4..], [INVALID; 4], "set 1 is untouched");
        c.access(set0(3)); // fills the empty way
        c.access(set0(4)); // drops the last way: 0
        assert_eq!(c.tags[..4], [4, 3, 1, 2]);
        assert_eq!(c.stats().evictions, 1);
        c.access(set0(2)); // a hit on the last way
        assert_eq!(c.tags[..4], [2, 4, 3, 1]);
    }

    #[test]
    fn victims_leave_in_recency_order() {
        use crate::reference::RefCache;
        // One set of four ways, so every access contends; a second
        // set holds one line and an empty way throughout.
        let config = CacheConfig {
            size_bytes: 256,
            ways: 4,
            line_bytes: 32,
        };
        let set0 = |i: u32| PhysAddr::new(i * 64);
        let mut c = Cache::new(config);
        let mut reference = RefCache::new(config);
        let mut both = |c: &mut Cache, pa: PhysAddr| {
            assert_eq!(c.access(pa), reference.access(pa), "{pa:?}");
        };
        both(&mut c, PhysAddr::new(0x20)); // set 1
        for i in [0, 1, 2, 1, 0] {
            both(&mut c, set0(i)); // recency: 2 < 1 < 0, way 3 empty
        }
        both(&mut c, set0(2)); // recency: 1 < 0 < 2
        both(&mut c, set0(3)); // fills the empty way
        both(&mut c, set0(4)); // evicts 1
        assert!(!c.probe(set0(1)));
        // The rest leave oldest first: 0, 2, 3.
        for i in [5, 6, 7] {
            both(&mut c, set0(i));
        }
        for i in [0, 1, 2, 3] {
            assert!(!c.probe(set0(i)), "line {i} was evicted");
        }
        for i in [4, 5, 6, 7] {
            both(&mut c, set0(i)); // all hits
        }
        // Set 1 kept its line and still fills an empty way.
        both(&mut c, PhysAddr::new(0x20));
        both(&mut c, PhysAddr::new(0x60));
        assert_eq!(c.occupancy(), 6);
        assert_eq!(c.stats().evictions, 4);
    }

    #[test]
    fn a_run_that_laps_its_sets_matches_line_by_line() {
        use crate::reference::RefCache;
        // Two sets of four ways; a 12-line run laps both.
        let config = CacheConfig {
            size_bytes: 256,
            ways: 4,
            line_bytes: 32,
        };
        let line = |i: u32| PhysAddr::new(i * 32);
        let mut c = Cache::new(config);
        let mut reference = RefCache::new(config);
        for i in [0, 3, 1, 5, 2, 0, 7] {
            assert_eq!(c.access(line(i)), reference.access(line(i)));
        }
        let mut misses = Vec::new();
        c.access_run(line(1), 12, |pa| misses.push(pa));
        let want: Vec<PhysAddr> = (1..13)
            .map(line)
            .filter(|&pa| !reference.access(pa))
            .collect();
        assert_eq!(misses, want);
        // The order survived: a sweep agrees hit for hit.
        for i in 0..32 {
            assert_eq!(c.access(line(i)), reference.access(line(i)), "line {i}");
        }
        assert_eq!(c.stats(), reference.stats());
    }

    #[test]
    fn duplicated_pte_lines_occupy_more_cache() {
        // The paper's cache-pollution argument in miniature: N private
        // page tables put N distinct lines into the cache; one shared
        // table puts one.
        let mut c = Cache::new(CacheConfig::L2_1M);
        for proc_id in 0..8u32 {
            // Each process's private PTP lives in a different frame.
            let pte_addr = PhysAddr::new((0x100 + proc_id) * 4096 + 2048);
            c.access(pte_addr);
        }
        assert_eq!(c.occupancy(), 8);

        let mut shared = Cache::new(CacheConfig::L2_1M);
        for _ in 0..8 {
            shared.access(PhysAddr::new(0x100 * 4096 + 2048));
        }
        assert_eq!(shared.occupancy(), 1);
    }
}
