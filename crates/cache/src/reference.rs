//! The nested-`Option` reference cache.
//!
//! This is the cache [`crate::Cache`] was before its lines moved into
//! one flat array: a heap vector per set, `Option<Line>` ways, each
//! stamped from a 64-bit global tick that never wraps, the victim
//! found by the smallest stamp. It is kept as the executable
//! specification of *which line every eviction removes*: hit or miss
//! per access is part of the simulated machine. Which way a line sits
//! in is not; the production cache keeps each set in recency order and
//! has no stamps. The differential proptests below drive each
//! production cache — the flat [`crate::Cache`] and the L1-I's
//! [`crate::StretchCache`] — and this one with identical operation
//! sequences.
//!
//! Do not "optimise" this file; its value is being obviously correct.

use sat_types::PhysAddr;

use crate::set_assoc::{CacheConfig, CacheStats};

#[derive(Clone, Copy)]
struct Line {
    tag: u32,
    last_use: u64,
}

/// Reference model of [`crate::Cache`] and [`crate::StretchCache`].
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
    use crate::{Cache, StretchCache};

    /// One randomized operation: `(opcode, address, run length)`,
    /// decoded in [`run`].
    type Op = (u8, u32, u32);

    /// The lines a run missed, as maximal runs of consecutive lines:
    /// `(first line's address, lines)`.
    type Missed = Vec<(PhysAddr, u32)>;

    /// Appends the missed line at `pa` to `missed`, extending the last
    /// run when `pa` is the line after it.
    fn push_line(missed: &mut Missed, pa: PhysAddr, line_bytes: u32) {
        match missed.last_mut() {
            Some((first, n)) if first.raw() + *n * line_bytes == pa.raw() => *n += 1,
            _ => missed.push((pa, 1)),
        }
    }

    /// A cache driven against [`RefCache`].
    trait UnderTest {
        fn new(config: CacheConfig) -> Self;
        fn access(&mut self, pa: PhysAddr) -> bool;
        /// Accesses the `n` lines from `pa`'s on as one run.
        fn run(&mut self, pa: PhysAddr, n: u32) -> Missed;
        fn probe(&self, pa: PhysAddr) -> bool;
        fn flush(&mut self);
        fn occupancy(&self) -> usize;
        fn stats(&self) -> CacheStats;
    }

    impl UnderTest for Cache {
        fn new(config: CacheConfig) -> Self {
            Cache::new(config)
        }
        fn access(&mut self, pa: PhysAddr) -> bool {
            self.access(pa)
        }
        /// The lines, handed on one at a time, grouped into runs.
        fn run(&mut self, pa: PhysAddr, n: u32) -> Missed {
            let (mut missed, line) = (Vec::new(), self.config().line_bytes);
            self.access_run(pa, n, |pa| push_line(&mut missed, pa, line));
            missed
        }
        fn probe(&self, pa: PhysAddr) -> bool {
            self.probe(pa)
        }
        fn flush(&mut self) {
            self.flush();
        }
        fn occupancy(&self) -> usize {
            self.occupancy()
        }
        fn stats(&self) -> CacheStats {
            self.stats()
        }
    }

    impl UnderTest for StretchCache {
        fn new(config: CacheConfig) -> Self {
            StretchCache::new(config)
        }
        fn access(&mut self, pa: PhysAddr) -> bool {
            self.access(pa)
        }
        /// The runs as handed on: each must already be maximal.
        fn run(&mut self, pa: PhysAddr, n: u32) -> Missed {
            let mut missed = Vec::new();
            self.access_run(pa, n, |pa, n| missed.push((pa, n)));
            missed
        }
        fn probe(&self, pa: PhysAddr) -> bool {
            self.probe(pa)
        }
        fn flush(&mut self) {
            self.flush();
        }
        fn occupancy(&self) -> usize {
            self.occupancy()
        }
        fn stats(&self) -> CacheStats {
            self.stats()
        }
    }

    /// Ops over `addr_space`, fewer than `len` of them, whose runs are
    /// up to a little past three laps of `config`'s sets.
    fn ops_strategy(
        config: CacheConfig,
        addr_space: u32,
        len: usize,
    ) -> impl Strategy<Value = Vec<Op>> {
        let sets = config.sets();
        let longest = 3 * sets + sets / 8 + 4;
        prop::collection::vec((0u8..64, 0..addr_space, 0..longest + 1), 1..len)
    }

    /// Drives a `C` and the reference cache with `ops` and checks that
    /// they answer alike after every step, statistics included.
    /// Accesses dominate; probes are frequent; one op in eight is a run
    /// against the same lines one at a time, started 0 to 7/8 of a line
    /// past the op's address, so most start mid-line, whose missed lines
    /// must come out as the same maximal runs; a flush and an occupancy
    /// count come up about once per 64 operations each.
    fn run<C: UnderTest>(config: CacheConfig, ops: Vec<Op>) -> Result<(), TestCaseError> {
        let mut new = C::new(config);
        let mut old = RefCache::new(config);
        for (i, (code, addr, n)) in ops.into_iter().enumerate() {
            let pa = PhysAddr::new(addr);
            match code {
                0 => {
                    new.flush();
                    old.flush();
                }
                1..=15 => prop_assert_eq!(new.probe(pa), old.probe(pa), "probe {}", i),
                16..=23 => {
                    let start = addr + u32::from(code - 16) * config.line_bytes / 8;
                    let missed = new.run(PhysAddr::new(start), n);
                    let mut want = Vec::new();
                    for k in 0..n {
                        let pa = PhysAddr::new(start + k * config.line_bytes);
                        if !old.access(pa) {
                            push_line(&mut want, pa, config.line_bytes);
                        }
                    }
                    prop_assert_eq!(missed, want, "run {}", i);
                }
                24 => prop_assert_eq!(new.occupancy(), old.occupancy(), "occupancy {}", i),
                _ => prop_assert_eq!(new.access(pa), old.access(pa), "access {}", i),
            }
            prop_assert_eq!(new.stats(), old.stats());
        }
        prop_assert_eq!(new.occupancy(), old.occupancy());
        Ok(())
    }

    const TINY: CacheConfig = CacheConfig {
        size_bytes: 128,
        ways: 2,
        line_bytes: 32,
    };
    const ONE_WAY: CacheConfig = CacheConfig {
        size_bytes: 128,
        ways: 1,
        line_bytes: 32,
    };
    const THREE_WAY: CacheConfig = CacheConfig {
        size_bytes: 384,
        ways: 3,
        line_bytes: 32,
    };
    const FOUR_WAY: CacheConfig = CacheConfig {
        size_bytes: 2048,
        ways: 4,
        line_bytes: 32,
    };
    const EIGHT_WAY: CacheConfig = CacheConfig {
        size_bytes: 4096,
        ways: 8,
        line_bytes: 32,
    };

    /// The L1 geometry with the traffic folded onto 16 of its 256 sets
    /// (256 tags each), so every set fills and evicts; its runs are
    /// short, so the fold holds.
    fn fold_onto_16_l1_sets(ops: Vec<Op>) -> Vec<Op> {
        ops.into_iter()
            .map(|(c, a, n)| (c, (a >> 4) * 8192 + (a & 15) * 32, n % 64))
            .collect()
    }

    proptest! {
        /// 2 sets × 2 ways over 16 lines: every fill after the first
        /// few evicts, so victim choice decides each later hit.
        #[test]
        fn tiny_cache_matches_the_nested_cache(ops in ops_strategy(TINY, 0x200, 600)) {
            run::<Cache>(TINY, ops)?;
        }

        /// 4 sets × 1 way over 32 lines, at the runtime width like the
        /// 2-way cache: a miss always evicts the set's one line.
        #[test]
        fn one_way_cache_matches_the_nested_cache(ops in ops_strategy(ONE_WAY, 0x400, 600)) {
            run::<Cache>(ONE_WAY, ops)?;
        }

        /// 4 sets × 3 ways over 32 lines, at the runtime width.
        #[test]
        fn three_way_cache_matches_the_nested_cache(ops in ops_strategy(THREE_WAY, 0x400, 600)) {
            run::<Cache>(THREE_WAY, ops)?;
        }

        /// The folded L1 (see [`fold_onto_16_l1_sets`]).
        #[test]
        fn l1_matches_the_nested_cache(ops in ops_strategy(CacheConfig::L1_32K, 0x1000, 1500)) {
            run::<Cache>(CacheConfig::L1_32K, fold_onto_16_l1_sets(ops))?;
        }

        /// The unfolded L1 over 8 times its size: runs of up to 800
        /// lines, a hard fault's, lap it three times between accesses
        /// at any byte.
        #[test]
        fn l1_runs_that_lap_match_the_nested_cache(
            ops in ops_strategy(CacheConfig::L1_32K, 0x4_0000, 200),
        ) {
            run::<Cache>(CacheConfig::L1_32K, ops)?;
        }

        /// The L2 geometry at a page stride (the walk-descriptor
        /// pattern): 32 sets take the traffic and evict; short runs.
        #[test]
        fn l2_matches_the_nested_cache(ops in ops_strategy(CacheConfig::L2_1M, 0x800, 1500)) {
            let ops = ops
                .into_iter()
                .map(|(c, a, n)| (c, a * 4096, n % 64))
                .collect();
            run::<Cache>(CacheConfig::L2_1M, ops)?;
        }

        /// The 8-way L2 over 8 times its size, a few ops a case: runs
        /// lap its 4,096 sets a little over three times at most.
        #[test]
        fn l2_runs_that_lap_match_the_nested_cache(
            ops in ops_strategy(CacheConfig::L2_1M, 0x80_0000, 40),
        ) {
            run::<Cache>(CacheConfig::L2_1M, ops)?;
        }

        /// The stretch cache at 1 way, 4 sets over 32 lines (runtime
        /// width): every miss evicts, so a missing stretch's evictions
        /// are its length.
        #[test]
        fn stretch_one_way_cache_matches_the_nested_cache(
            ops in ops_strategy(ONE_WAY, 0x400, 600),
        ) {
            run::<StretchCache>(ONE_WAY, ops)?;
        }

        /// The stretch cache at 3 ways, 4 sets over 32 lines (runtime
        /// width).
        #[test]
        fn stretch_three_way_cache_matches_the_nested_cache(
            ops in ops_strategy(THREE_WAY, 0x400, 600),
        ) {
            run::<StretchCache>(THREE_WAY, ops)?;
        }

        /// The stretch cache at 4 ways (the compile-time width), 16
        /// sets over 256 lines: runs lap the sets, single accesses cut
        /// stretches, and the next run joins them again.
        #[test]
        fn stretch_four_way_cache_matches_the_nested_cache(
            ops in ops_strategy(FOUR_WAY, 0x2000, 600),
        ) {
            run::<StretchCache>(FOUR_WAY, ops)?;
        }

        /// The stretch cache at 8 ways (runtime width), 16 sets over
        /// 512 lines.
        #[test]
        fn stretch_eight_way_cache_matches_the_nested_cache(
            ops in ops_strategy(EIGHT_WAY, 0x4000, 600),
        ) {
            run::<StretchCache>(EIGHT_WAY, ops)?;
        }

        /// The stretch cache as the folded L1.
        #[test]
        fn stretch_l1_matches_the_nested_cache(
            ops in ops_strategy(CacheConfig::L1_32K, 0x1000, 1500),
        ) {
            run::<StretchCache>(CacheConfig::L1_32K, fold_onto_16_l1_sets(ops))?;
        }

        /// The stretch cache as the unfolded L1, runs of up to 800
        /// lines lapping it three times.
        #[test]
        fn stretch_l1_runs_that_lap_match_the_nested_cache(
            ops in ops_strategy(CacheConfig::L1_32K, 0x4_0000, 200),
        ) {
            run::<StretchCache>(CacheConfig::L1_32K, ops)?;
        }
    }
}
