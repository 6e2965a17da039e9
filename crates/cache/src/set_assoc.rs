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

    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> u32 {
        self.size_bytes / (self.ways * self.line_bytes)
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

impl CacheStats {
    /// Miss rate over all accesses, in [0, 1].
    pub fn miss_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// One way of one set: 8 bytes, so an 8-way L2 set is one host cache
/// line and a 4-way L1 set half of one.
#[derive(Clone, Copy)]
struct Line {
    tag: u32,
    /// The tick of the last use; 0 marks the way invalid (the tick is
    /// incremented before it is ever stamped, so no use carries 0).
    stamp: u32,
}

const INVALID: Line = Line { tag: 0, stamp: 0 };

/// A set-associative cache with true-LRU replacement.
///
/// All lines live in one flat array, set-major: set `s` is
/// `lines[s * ways..][..ways]`. Recency is a 32-bit stamp from one
/// cache-wide tick; only the order of stamps *within a set* ever
/// decides anything, so when the tick is about to wrap every set's
/// stamps are re-ranked to `1..=valid` (order kept) and the tick
/// restarts above them.
pub struct Cache {
    config: CacheConfig,
    lines: Vec<Line>,
    ways: usize,
    tick: u32,
    stats: CacheStats,
    line_shift: u32,
    set_bits: u32,
    set_mask: u32,
}

impl Cache {
    /// Creates a cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if line size or set count is not a power of two.
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        assert!(
            config.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        Cache {
            config,
            lines: vec![INVALID; (sets * config.ways) as usize],
            ways: config.ways as usize,
            tick: 0,
            stats: CacheStats::default(),
            line_shift: config.line_bytes.trailing_zeros(),
            set_bits: sets.trailing_zeros(),
            set_mask: sets - 1,
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

    /// Splits `pa` into (first index of its set in `lines`, tag).
    #[inline]
    fn locate(&self, pa: PhysAddr) -> (usize, u32) {
        let line_addr = pa.raw() >> self.line_shift;
        let set = (line_addr & self.set_mask) as usize;
        (set * self.ways, line_addr >> self.set_bits)
    }

    /// Accesses the line containing `pa`, allocating it on a miss.
    /// Returns `true` on a hit.
    #[inline]
    pub fn access(&mut self, pa: PhysAddr) -> bool {
        if self.tick == u32::MAX {
            self.rerank();
        }
        self.tick += 1;
        let (base, tag) = self.locate(pa);
        let set = &mut self.lines[base..base + self.ways];

        for line in set.iter_mut() {
            if line.tag == tag && line.stamp != 0 {
                line.stamp = self.tick;
                self.stats.hits += 1;
                return true;
            }
        }
        self.stats.misses += 1;

        // Fill the way with the smallest stamp, the lowest such way on
        // a tie: invalid ways (stamp 0) sort below every valid one, so
        // this is "lowest empty way first, else the LRU way".
        let victim = set
            .iter_mut()
            .min_by_key(|line| line.stamp)
            .expect("a set has at least one way");
        if victim.stamp != 0 {
            self.stats.evictions += 1;
        }
        *victim = Line {
            tag,
            stamp: self.tick,
        };
        false
    }

    /// Rewrites every set's stamps as ranks `1..=valid` in the same
    /// order and restarts the tick at `ways`, above every rank.
    #[cold]
    fn rerank(&mut self) {
        for set in self.lines.chunks_exact_mut(self.ways) {
            // A line's new stamp is one more than the number of valid
            // lines in its set older than it.
            let old: Vec<u32> = set.iter().map(|l| l.stamp).collect();
            for line in set.iter_mut().filter(|l| l.stamp != 0) {
                let older = old.iter().filter(|&&s| s != 0 && s < line.stamp).count();
                line.stamp = older as u32 + 1;
            }
        }
        self.tick = self.ways as u32;
    }

    /// Probes whether `pa`'s line is resident without touching LRU
    /// state or statistics.
    pub fn probe(&self, pa: PhysAddr) -> bool {
        let (base, tag) = self.locate(pa);
        self.lines[base..base + self.ways]
            .iter()
            .any(|l| l.tag == tag && l.stamp != 0)
    }

    /// Invalidates everything.
    pub fn flush(&mut self) {
        self.lines.fill(INVALID);
    }

    /// Number of valid lines.
    pub fn occupancy(&self) -> usize {
        self.lines.iter().filter(|l| l.stamp != 0).count()
    }
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
    fn rerank_keeps_the_victim_order() {
        use crate::reference::RefCache;
        // One set of four ways, so every access contends; a second
        // set holds one line and an empty way across the re-rank.
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
        // Two more uses land just under the wrap, the third re-ranks.
        c.tick = u32::MAX - 2;
        both(&mut c, set0(2)); // recency: 1 < 0 < 2
        both(&mut c, set0(3)); // fills the empty way
        assert_eq!(c.tick, u32::MAX);
        both(&mut c, set0(4)); // re-rank, then evicts 1
        assert_eq!(c.tick, config.ways + 1, "the tick restarted");
        assert!(!c.probe(set0(1)));
        // The rest leave oldest first: 0, 2, 3 — the pre-wrap order.
        for i in [5, 6, 7] {
            both(&mut c, set0(i));
        }
        for i in [0, 1, 2, 3] {
            assert!(!c.probe(set0(i)), "line {i} was evicted");
        }
        for i in [4, 5, 6, 7] {
            both(&mut c, set0(i)); // all hits
        }
        // Set 1 kept its line and still fills its lowest empty way.
        both(&mut c, PhysAddr::new(0x20));
        both(&mut c, PhysAddr::new(0x60));
        assert_eq!(c.occupancy(), 6);
        assert_eq!(c.stats().evictions, 4);
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
