//! The nested-`Option` reference cache.
//!
//! This is the cache [`crate::Cache`] was before its lines moved into
//! one flat array: a heap vector per set, `Option<Line>` ways, a
//! 64-bit global tick that never wraps. It is kept as the executable
//! specification of *which way every fill lands in and which line
//! every eviction removes* — hit or miss per access is part of the
//! simulated machine — and the differential proptest below drives both
//! caches with identical operation sequences.
//!
//! Do not "optimise" this file; its value is being obviously correct.

use sat_types::PhysAddr;

use crate::set_assoc::{CacheConfig, CacheStats};

#[derive(Clone, Copy)]
struct Line {
    tag: u32,
    last_use: u64,
}

/// Reference model of [`crate::Cache`].
pub(crate) struct RefCache {
    sets: Vec<Vec<Option<Line>>>,
    tick: u64,
    stats: CacheStats,
    line_shift: u32,
    set_mask: u32,
}

impl RefCache {
    pub(crate) fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        RefCache {
            sets: vec![vec![None; config.ways as usize]; sets as usize],
            tick: 0,
            stats: CacheStats::default(),
            line_shift: config.line_bytes.trailing_zeros(),
            set_mask: sets - 1,
        }
    }

    pub(crate) fn stats(&self) -> CacheStats {
        self.stats
    }

    pub(crate) fn access(&mut self, pa: PhysAddr) -> bool {
        self.tick += 1;
        let line_addr = pa.raw() >> self.line_shift;
        let set_idx = (line_addr & self.set_mask) as usize;
        let tag = line_addr >> self.set_mask.count_ones();
        let set = &mut self.sets[set_idx];

        for line in set.iter_mut().flatten() {
            if line.tag == tag {
                line.last_use = self.tick;
                self.stats.hits += 1;
                return true;
            }
        }
        self.stats.misses += 1;

        // Fill: empty way first, else evict the LRU way.
        let victim = match set.iter().position(|w| w.is_none()) {
            Some(idx) => idx,
            None => {
                self.stats.evictions += 1;
                set.iter()
                    .enumerate()
                    .min_by_key(|(_, w)| w.as_ref().map(|l| l.last_use).unwrap_or(0))
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            }
        };
        set[victim] = Some(Line {
            tag,
            last_use: self.tick,
        });
        false
    }

    pub(crate) fn probe(&self, pa: PhysAddr) -> bool {
        let line_addr = pa.raw() >> self.line_shift;
        let set_idx = (line_addr & self.set_mask) as usize;
        let tag = line_addr >> self.set_mask.count_ones();
        self.sets[set_idx].iter().flatten().any(|l| l.tag == tag)
    }

    pub(crate) fn flush(&mut self) {
        for set in &mut self.sets {
            set.iter_mut().for_each(|w| *w = None);
        }
    }

    pub(crate) fn occupancy(&self) -> usize {
        self.sets
            .iter()
            .map(|s| s.iter().filter(|w| w.is_some()).count())
            .sum()
    }
}

mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::Cache;

    /// One randomized operation: `(opcode, address)`, decoded in
    /// [`run`].
    type Op = (u8, u32);

    fn ops_strategy(addr_space: u32, len: usize) -> impl Strategy<Value = Vec<Op>> {
        prop::collection::vec((0u8..64, 0..addr_space), 1..len)
    }

    /// Drives both caches with `ops` and checks that they answer alike
    /// after every step. Accesses dominate; probes are frequent; a
    /// flush comes up about once per 64 operations.
    fn run(config: CacheConfig, ops: Vec<Op>) -> Result<(), TestCaseError> {
        let mut new = Cache::new(config);
        let mut old = RefCache::new(config);
        for (i, (code, addr)) in ops.into_iter().enumerate() {
            let pa = PhysAddr::new(addr);
            match code {
                0 => {
                    new.flush();
                    old.flush();
                }
                1..=15 => prop_assert_eq!(new.probe(pa), old.probe(pa), "probe {}", i),
                _ => prop_assert_eq!(new.access(pa), old.access(pa), "access {}", i),
            }
            prop_assert_eq!(new.stats(), old.stats());
        }
        prop_assert_eq!(new.occupancy(), old.occupancy());
        Ok(())
    }

    proptest! {
        /// 2 sets × 2 ways over 16 lines: every fill after the first
        /// few evicts, so victim choice decides each later hit.
        #[test]
        fn tiny_cache_matches_the_nested_cache(ops in ops_strategy(0x200, 600)) {
            run(CacheConfig { size_bytes: 128, ways: 2, line_bytes: 32 }, ops)?;
        }

        /// The L1 geometry with the traffic folded onto 16 of its 256
        /// sets (256 tags each), so every set fills and evicts.
        #[test]
        fn l1_matches_the_nested_cache(ops in ops_strategy(0x1000, 1500)) {
            let ops = ops.into_iter().map(|(c, a)| (c, (a >> 4) * 8192 + (a & 15) * 32)).collect();
            run(CacheConfig::L1_32K, ops)?;
        }

        /// The L2 geometry at a page stride (the walk-descriptor
        /// pattern): 32 sets take all the traffic and evict.
        #[test]
        fn l2_matches_the_nested_cache(ops in ops_strategy(0x800, 1500)) {
            let ops = ops.into_iter().map(|(c, a)| (c, a * 4096)).collect();
            run(CacheConfig::L2_1M, ops)?;
        }
    }
}
