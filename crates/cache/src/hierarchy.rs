//! The two-level hierarchy and its latency model.

use sat_types::PhysAddr;

use crate::set_assoc::{Cache, CacheConfig, CacheStats};

/// What kind of access is being performed, for routing and accounting.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AccessKind {
    /// Instruction fetch (L1-I then L2).
    Instruction,
    /// Data load/store (L1-D then L2).
    Data,
    /// Page-table-walk descriptor fetch. On Cortex-A9 the walker's
    /// fetches allocate into the L1 data cache and the L2.
    PageWalk,
}

/// Miss penalties in cycles. The L1 hit cost is treated as part of the
/// pipeline (zero stall).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LatencyModel {
    /// Extra cycles for an L1 miss that hits in L2.
    pub l2_hit: u64,
    /// Extra cycles for a miss that goes to memory.
    pub memory: u64,
}

impl Default for LatencyModel {
    fn default() -> Self {
        // Roughly Tegra 3: ~25-cycle L2, ~120-cycle DRAM round trip.
        LatencyModel {
            l2_hit: 25,
            memory: 120,
        }
    }
}

/// Stall-cycle totals accumulated by a hierarchy.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct HierarchyStats {
    /// Stall cycles attributed to instruction fetches (the PMU counter
    /// behind the paper's Figure 8).
    pub inst_stall_cycles: u64,
    /// Stall cycles attributed to data accesses.
    pub data_stall_cycles: u64,
    /// Stall cycles attributed to page-table walks.
    pub walk_stall_cycles: u64,
}

impl HierarchyStats {
    /// Total stall cycles.
    pub fn total(&self) -> u64 {
        self.inst_stall_cycles + self.data_stall_cycles + self.walk_stall_cycles
    }
}

/// One core's cache view: private L1-I/L1-D plus the shared L2.
///
/// The L2 is passed in per access so several cores can share one
/// [`Cache`] instance.
pub struct CacheHierarchy {
    l1i: Cache,
    l1d: Cache,
    latency: LatencyModel,
    stats: HierarchyStats,
}

impl Default for CacheHierarchy {
    fn default() -> Self {
        CacheHierarchy::new(
            CacheConfig::L1_32K,
            CacheConfig::L1_32K,
            LatencyModel::default(),
        )
    }
}

impl CacheHierarchy {
    /// Creates a hierarchy with the given L1 geometries.
    pub fn new(l1i: CacheConfig, l1d: CacheConfig, latency: LatencyModel) -> Self {
        CacheHierarchy {
            l1i: Cache::new(l1i),
            l1d: Cache::new(l1d),
            latency,
            stats: HierarchyStats::default(),
        }
    }

    /// Performs an access, updating the appropriate L1, the shared
    /// `l2`, and the stall counters. Returns the stall cycles charged.
    #[inline]
    pub fn access(&mut self, kind: AccessKind, pa: PhysAddr, l2: &mut Cache) -> u64 {
        let l1 = match kind {
            AccessKind::Instruction => &mut self.l1i,
            AccessKind::Data | AccessKind::PageWalk => &mut self.l1d,
        };
        let stall = if l1.access(pa) {
            0
        } else if l2.access(pa) {
            self.latency.l2_hit
        } else {
            self.latency.memory
        };
        match kind {
            AccessKind::Instruction => self.stats.inst_stall_cycles += stall,
            AccessKind::Data => self.stats.data_stall_cycles += stall,
            AccessKind::PageWalk => self.stats.walk_stall_cycles += stall,
        }
        stall
    }

    /// Returns the stall-cycle totals.
    pub fn stats(&self) -> HierarchyStats {
        self.stats
    }

    /// Returns (L1-I, L1-D) hit/miss statistics.
    pub fn l1_stats(&self) -> (CacheStats, CacheStats) {
        (self.l1i.stats(), self.l1d.stats())
    }

    /// Resets the statistics (not the cache contents).
    pub fn reset_stats(&mut self) {
        self.stats = HierarchyStats::default();
        self.l1i.reset_stats();
        self.l1d.reset_stats();
    }

    /// Flushes both L1 caches (e.g. simulating a cold start).
    pub fn flush(&mut self) {
        self.l1i.flush();
        self.l1d.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l2() -> Cache {
        Cache::new(CacheConfig::L2_1M)
    }

    #[test]
    fn first_touch_costs_memory_then_warms() {
        let mut h = CacheHierarchy::default();
        let mut l2 = l2();
        let pa = PhysAddr::new(0x8000);
        let cold = h.access(AccessKind::Instruction, pa, &mut l2);
        assert_eq!(cold, LatencyModel::default().memory);
        let warm = h.access(AccessKind::Instruction, pa, &mut l2);
        assert_eq!(warm, 0);
        assert_eq!(h.stats().inst_stall_cycles, cold);
    }

    #[test]
    fn l2_hit_costs_less_than_memory() {
        let mut h = CacheHierarchy::default();
        let mut l2 = l2();
        let pa = PhysAddr::new(0x8000);
        h.access(AccessKind::Data, pa, &mut l2);
        // Evict from L1 by flushing just the L1s; L2 still holds it.
        h.flush();
        let stall = h.access(AccessKind::Data, pa, &mut l2);
        assert_eq!(stall, LatencyModel::default().l2_hit);
    }

    #[test]
    fn page_walks_fill_the_l1_data_cache() {
        // ARMv7/Cortex-A9: walker fetches allocate into L1-D.
        let mut h = CacheHierarchy::default();
        let mut l2 = l2();
        let pte = PhysAddr::new(0x9000);
        h.access(AccessKind::PageWalk, pte, &mut l2);
        // A subsequent *data* access to the same line hits L1-D.
        let stall = h.access(AccessKind::Data, pte, &mut l2);
        assert_eq!(stall, 0);
        assert_eq!(h.stats().walk_stall_cycles, LatencyModel::default().memory);
    }

    #[test]
    fn two_cores_share_l2() {
        let mut core0 = CacheHierarchy::default();
        let mut core1 = CacheHierarchy::default();
        let mut l2 = l2();
        let pa = PhysAddr::new(0xA000);
        core0.access(AccessKind::Data, pa, &mut l2);
        // Core 1 misses L1 but hits the shared L2.
        let stall = core1.access(AccessKind::Data, pa, &mut l2);
        assert_eq!(stall, LatencyModel::default().l2_hit);
    }

    #[test]
    fn instruction_and_data_use_separate_l1s() {
        let mut h = CacheHierarchy::default();
        let mut l2 = l2();
        let pa = PhysAddr::new(0xB000);
        h.access(AccessKind::Instruction, pa, &mut l2);
        // The data side missed L1 (separate cache) but hits L2.
        let stall = h.access(AccessKind::Data, pa, &mut l2);
        assert_eq!(stall, LatencyModel::default().l2_hit);
    }
}
