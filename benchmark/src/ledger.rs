//! The per-layer ledger: every public stats struct of a machine read
//! at a phase boundary, the difference between two boundaries added
//! up under the per-layer metric names, and an FNV-1a digest of every
//! simulated counter so "the simulator got faster and nothing it
//! simulates changed" is one string compare.

use std::collections::BTreeMap;

use sat_cache::HierarchyStats;
use sat_core::{Kernel, KernelStats, RegistryStats};
use sat_phys::{PhysMemStats, SlabStats};
use sat_sim::{Core, CoreStats, Machine};
use sat_tlb::TlbStats;

/// Per-layer metric name → value. Counts are whole numbers well
/// inside `f64`'s exact range.
pub type Ledger = BTreeMap<&'static str, f64>;

/// Every public stats struct at one instant. Per-core structs are
/// summed over cores.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    pub core: CoreStats,
    pub tlb: TlbStats,
    pub cache: HierarchyStats,
    pub kernel: KernelStats,
    pub registry: RegistryStats,
    pub phys: PhysMemStats,
    pub slab: SlabStats,
    pub ptps_live: u64,
    /// Frames the page cache holds.
    pub page_cache: u64,
}

impl Snapshot {
    /// Reads a bare kernel (no hardware attached yet).
    pub fn of_kernel(k: &Kernel) -> Snapshot {
        Snapshot {
            kernel: k.stats,
            registry: k.registry.stats,
            phys: k.phys.stats(),
            slab: k.ptps.slab_stats(),
            ptps_live: k.ptps.len() as u64,
            page_cache: k.phys.page_cache_len() as u64,
            ..Snapshot::default()
        }
    }

    /// Reads a machine: its kernel plus every core's counters.
    pub fn of(m: &Machine) -> Snapshot {
        let mut s = Snapshot::of_kernel(&m.kernel);
        for c in &m.cores {
            s.add_core(c);
        }
        s
    }

    fn add_core(&mut self, c: &Core) {
        let (a, b) = (&mut self.core, &c.stats);
        a.cycles += b.cycles;
        a.inst_fetches += b.inst_fetches;
        a.data_accesses += b.data_accesses;
        a.page_faults += b.page_faults;
        a.domain_faults += b.domain_faults;
        a.context_switches += b.context_switches;
        a.inst_main_tlb_stall_cycles += b.inst_main_tlb_stall_cycles;
        a.data_main_tlb_stall_cycles += b.data_main_tlb_stall_cycles;
        a.tlb_shootdown_ipis += b.tlb_shootdown_ipis;
        let (a, b) = (&mut self.tlb, c.main_tlb.stats());
        a.hits += b.hits;
        a.misses += b.misses;
        a.global_hits += b.global_hits;
        a.cross_asid_hits += b.cross_asid_hits;
        a.entries_flushed += b.entries_flushed;
        a.full_flushes += b.full_flushes;
        a.evictions += b.evictions;
        a.avoided_flushes += b.avoided_flushes;
        let (a, b) = (&mut self.cache, c.caches.stats());
        a.inst_stall_cycles += b.inst_stall_cycles;
        a.data_stall_cycles += b.data_stall_cycles;
        a.walk_stall_cycles += b.walk_stall_cycles;
    }

    /// Every counter as (per-layer name, value), in a fixed order.
    /// Monotonic counters only; gauges (`in_use`, `high_water`, live
    /// PTPs) are handled by [`add_window`].
    fn counters(&self) -> [(&'static str, u64); 51] {
        let (c, t, h, k, r, p, s) = (
            &self.core,
            &self.tlb,
            &self.cache,
            &self.kernel,
            &self.registry,
            &self.phys,
            &self.slab,
        );
        [
            ("sim.inst_fetches", c.inst_fetches),
            ("sim.data_accesses", c.data_accesses),
            ("sim.cycles", c.cycles),
            ("sim.page_faults", c.page_faults),
            ("sim.domain_faults", c.domain_faults),
            ("sim.context_switches", c.context_switches),
            ("sim.shootdown_ipis", c.tlb_shootdown_ipis),
            ("sim.inst_tlb_stall_cycles", c.inst_main_tlb_stall_cycles),
            ("sim.data_tlb_stall_cycles", c.data_main_tlb_stall_cycles),
            ("tlb.hits", t.hits),
            ("tlb.misses", t.misses),
            ("tlb.global_hits", t.global_hits),
            ("tlb.cross_asid_hits", t.cross_asid_hits),
            ("tlb.entries_flushed", t.entries_flushed),
            ("tlb.full_flushes", t.full_flushes),
            ("tlb.evictions", t.evictions),
            ("tlb.avoided_flushes", t.avoided_flushes),
            ("cache.inst_stall_cycles", h.inst_stall_cycles),
            ("cache.data_stall_cycles", h.data_stall_cycles),
            ("cache.walk_stall_cycles", h.walk_stall_cycles),
            ("mmu.slab_allocs", s.allocs),
            ("mmu.slab_recycled", s.recycled),
            ("phys.allocs", p.total_allocs),
            ("phys.frees", p.total_frees),
            ("phys.page_cache_hits", p.page_cache_hits),
            ("phys.page_cache_misses", p.page_cache_misses),
            ("phys.evictions", p.evictions),
            ("phys.refaults", p.refaults),
            ("phys.low_watermark_hits", p.low_watermark_hits),
            ("core.forks", k.forks),
            ("core.share_forks", k.share_forks),
            ("core.exits", k.exits),
            ("core.ptp_unshares", k.ptp_unshares),
            ("core.unshares_write_fault", k.unshares_write_fault),
            ("core.unshares_new_region", k.unshares_new_region),
            ("core.unshares_region_free", k.unshares_region_free),
            ("core.unshares_region_op", k.unshares_region_op),
            ("core.registry_shares", r.shares),
            ("core.asid_rollovers", k.asid_rollovers),
            ("core.reclaims", k.reclaims),
            ("core.reclaim_pages", k.reclaim_pages),
            ("core.reclaim_pte_tears", k.reclaim_pte_tears),
            ("core.reclaim_shared_tears", k.reclaim_shared_tears),
            ("core.promotions", k.promotions + k.section_promotions),
            ("core.demotions", k.demotions),
            ("core.split_ptes", k.split_ptes),
            ("core.waste_frames", k.waste_frames),
            // Not per-layer metrics of their own, but simulated
            // counters all the same: they feed the digest only.
            ("", k.domain_faults),
            ("", r.first_shares),
            ("", r.exit_detaches),
            ("", s.frees),
        ]
    }

    /// Frames in use that are not page-cache frames: what must return
    /// to its post-boot value once every child has exited.
    pub fn private_frames(&self) -> i64 {
        self.phys.in_use as i64 - self.page_cache as i64
    }
}

/// Adds what happened between two boundaries of one machine to the
/// ledger: counter differences accumulate (the stock and the shared
/// kernel of a rep add up), peaks keep their maximum.
pub fn add_window(ledger: &mut Ledger, before: &Snapshot, after: &Snapshot) {
    for ((name, b), (_, a)) in before.counters().into_iter().zip(after.counters()) {
        if !name.is_empty() {
            *ledger.entry(name).or_insert(0.0) += (a - b) as f64;
        }
    }
    let peak = |ledger: &mut Ledger, name, v: u64| {
        let e = ledger.entry(name).or_insert(0.0);
        *e = e.max(v as f64);
    };
    peak(
        ledger,
        "mmu.ptps_live_peak",
        before.ptps_live.max(after.ptps_live),
    );
    peak(ledger, "phys.high_water_frames", after.phys.high_water);
}

/// Fills in the ratios once every window of the rep has been added.
pub fn finish_ratios(ledger: &mut Ledger) {
    let get = |l: &Ledger, n| l.get(n).copied().unwrap_or(0.0);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let hits = get(ledger, "tlb.hits");
    let lookups = hits + get(ledger, "tlb.misses");
    ledger.insert("tlb.hit_ratio", ratio(hits, lookups));
    let recycled = get(ledger, "mmu.slab_recycled");
    ledger.insert(
        "mmu.slab_recycle_ratio",
        ratio(recycled, get(ledger, "mmu.slab_allocs")),
    );
}

/// FNV-1a, 64 bit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Feeds every simulated counter of a snapshot, gauges included.
    pub fn snapshot(&mut self, s: &Snapshot) {
        for (_, v) in s.counters() {
            self.u64(v);
        }
        for v in [
            s.phys.in_use,
            s.phys.high_water,
            s.phys.free_low_water,
            s.ptps_live,
            s.page_cache,
        ] {
            self.u64(v);
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_accumulate_counts_and_keep_peaks() {
        let mut before = Snapshot::default();
        before.core.inst_fetches = 10;
        before.ptps_live = 7;
        let mut after = before;
        after.core.inst_fetches = 25;
        after.tlb.hits = 3;
        after.tlb.misses = 1;
        after.ptps_live = 4;
        after.phys.high_water = 90;
        let mut ledger = Ledger::new();
        add_window(&mut ledger, &before, &after);
        add_window(&mut ledger, &before, &after);
        finish_ratios(&mut ledger);
        assert_eq!(ledger["sim.inst_fetches"], 30.0);
        assert_eq!(ledger["tlb.hit_ratio"], 0.75);
        assert_eq!(ledger["mmu.ptps_live_peak"], 7.0);
        assert_eq!(ledger["phys.high_water_frames"], 90.0);
        assert_eq!(ledger["mmu.slab_recycle_ratio"], 0.0);
        assert!(!ledger.contains_key(""));
    }

    #[test]
    fn digest_is_fnv1a_and_sees_every_counter() {
        let mut d = Digest::default();
        assert_eq!(d.hex(), "cbf29ce484222325");
        d.snapshot(&Snapshot::default());
        let zero = d;
        let mut moved = Snapshot::default();
        moved.registry.exit_detaches = 1;
        let mut d = Digest::default();
        d.snapshot(&moved);
        assert_ne!(d, zero);
    }
}
