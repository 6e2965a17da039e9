//! The metric tables: every name the benchmark prints, with its unit,
//! its direction, and (end to end) the bound by which it may worsen
//! before a change counts as a regression. `BENCHMARK.json` carries
//! the same tables; `tests/contract.rs` holds the two together.

use crate::stats::Better::{self, Higher, Lower};

/// One metric.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's value by which the metric may worsen.
    /// `Some` on every end-to-end metric, `None` on per-layer ones.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// What a user of the simulator sees, per workload. Host times are
/// the best the run saw (the program is deterministic and
/// single-threaded, so every excess over the minimum is the
/// neighbour's noise); memory is the median rep. The bounds are what
/// this 2-core shared box can resolve — README, "noise", has the
/// measurements behind each.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("host_s", "s", Lower, 0.25),
    e2e("sim_ops_per_s", "1/s", Higher, 0.25),
    e2e("peak_rss_mib", "MiB", Lower, 0.10),
    e2e("peak_heap_mib", "MiB", Lower, 0.25),
    e2e("ops_ok_pct", "%", Higher, 0.001),
];

/// One layer each (layer = crate), all from the traced pass.
pub const PER_LAYER: &[MetricDef] = &[
    // Busy time: self time of the benchmark's spans around public
    // calls, summed per name over the fastest traced rep.
    layer("trace.generate_ms", "ms", Lower),
    layer("android.boot_ms", "ms", Lower),
    layer("android.launch_ms", "ms", Lower),
    layer("android.steady_ms", "ms", Lower),
    layer("android.binder_ms", "ms", Lower),
    layer("sched.spawn_ms", "ms", Lower),
    layer("sched.run_ms", "ms", Lower),
    layer("sched.reap_ms", "ms", Lower),
    layer("sched.serve_ms", "ms", Lower),
    layer("sim.access_ms", "ms", Lower),
    layer("sim.fork_ms", "ms", Lower),
    layer("sim.switch_ms", "ms", Lower),
    layer("core.fault_ms", "ms", Lower),
    layer("core.promote_ms", "ms", Lower),
    layer("core.demote_ms", "ms", Lower),
    layer("core.exit_ms", "ms", Lower),
    layer("bench.trace_overhead_pct", "%", Lower),
    layer("bench.repro_quick_s", "s", Lower),
    layer("bench.paper_err_pct", "points", Lower),
    // sim: `CoreStats` summed over cores.
    layer("sim.inst_fetches", "count", Higher),
    layer("sim.data_accesses", "count", Higher),
    layer("sim.cycles", "cycles", Lower),
    layer("sim.page_faults", "count", Lower),
    layer("sim.domain_faults", "count", Lower),
    layer("sim.context_switches", "count", Lower),
    layer("sim.shootdown_ipis", "count", Lower),
    layer("sim.inst_tlb_stall_cycles", "cycles", Lower),
    layer("sim.data_tlb_stall_cycles", "cycles", Lower),
    // tlb: `TlbStats` summed over the cores' main TLBs.
    layer("tlb.hits", "count", Higher),
    layer("tlb.misses", "count", Lower),
    layer("tlb.hit_ratio", "ratio", Higher),
    layer("tlb.global_hits", "count", Higher),
    layer("tlb.cross_asid_hits", "count", Higher),
    layer("tlb.entries_flushed", "count", Lower),
    layer("tlb.full_flushes", "count", Lower),
    layer("tlb.evictions", "count", Lower),
    layer("tlb.avoided_flushes", "count", Higher),
    // cache: `HierarchyStats` summed over cores.
    layer("cache.inst_stall_cycles", "cycles", Lower),
    layer("cache.data_stall_cycles", "cycles", Lower),
    layer("cache.walk_stall_cycles", "cycles", Lower),
    // mmu: `PtpStore`.
    layer("mmu.ptps_live_peak", "count", Lower),
    layer("mmu.slab_allocs", "count", Lower),
    layer("mmu.slab_recycled", "count", Higher),
    layer("mmu.slab_recycle_ratio", "ratio", Higher),
    // phys: `PhysMemStats`.
    layer("phys.allocs", "count", Lower),
    layer("phys.frees", "count", Lower),
    layer("phys.high_water_frames", "frames", Lower),
    layer("phys.page_cache_hits", "count", Higher),
    layer("phys.page_cache_misses", "count", Lower),
    layer("phys.evictions", "count", Lower),
    layer("phys.refaults", "count", Lower),
    layer("phys.low_watermark_hits", "count", Lower),
    layer("phys.leaked_frames", "frames", Lower),
    // core: `KernelStats` and `RegistryStats`.
    layer("core.forks", "count", Lower),
    layer("core.share_forks", "count", Higher),
    layer("core.exits", "count", Lower),
    layer("core.ptp_unshares", "count", Lower),
    layer("core.unshares_write_fault", "count", Lower),
    layer("core.unshares_new_region", "count", Lower),
    layer("core.unshares_region_free", "count", Lower),
    layer("core.unshares_region_op", "count", Lower),
    layer("core.registry_shares", "count", Higher),
    layer("core.asid_rollovers", "count", Lower),
    layer("core.reclaims", "count", Lower),
    layer("core.reclaim_pages", "count", Lower),
    layer("core.reclaim_pte_tears", "count", Lower),
    layer("core.reclaim_shared_tears", "count", Lower),
    layer("core.promotions", "count", Higher),
    layer("core.demotions", "count", Lower),
    layer("core.split_ptes", "count", Lower),
    layer("core.waste_frames", "frames", Lower),
    layer("core.audit_failures", "count", Lower),
    // sched / android: simulated results.
    layer("sched.requests", "count", Higher),
    layer("sched.preempted_quanta", "count", Lower),
    layer("sched.processes_created", "count", Lower),
    layer("sched.sim_p50_cycles", "cycles", Lower),
    layer("sched.sim_p95_cycles", "cycles", Lower),
    layer("sched.sim_p99_cycles", "cycles", Lower),
    layer("android.launch_speedup_pct", "%", Higher),
    layer("android.fault_reduction_pct", "%", Higher),
    layer("android.ptp_reduction_pct", "%", Higher),
    layer("android.shared_ptp_fraction_pct", "%", Higher),
    layer("android.ipc_client_stall_cut_pct", "%", Higher),
    layer("android.ipc_server_stall_cut_pct", "%", Higher),
    layer("core.fork_speedup_x", "x", Higher),
    layer("core.waste_ratio_x", "x", Lower),
    // obs: one extra `serve_pressure` rep with the event ring and
    // flow tracing on.
    layer("obs.events", "count", Lower),
    layer("obs.dropped", "count", Lower),
    layer("obs.ns_per_event", "ns", Lower),
    layer("obs.overhead_pct", "%", Lower),
    // Host allocator (the counting allocator; exact).
    layer("host.allocs", "count", Lower),
    layer("host.alloc_mib", "MiB", Lower),
    // probe.*: best-of ns/op of one public function on fixed state.
    layer("probe.tlb.lookup_hit_ns", "ns", Lower),
    layer("probe.tlb.lookup_miss_ns", "ns", Lower),
    layer("probe.tlb.insert_ns", "ns", Lower),
    layer("probe.tlb.flush_asid_ns", "ns", Lower),
    layer("probe.tlb.flush_range_ns", "ns", Lower),
    layer("probe.tlb.micro_hit_ns", "ns", Lower),
    layer("probe.cache.l1_hit_ns", "ns", Lower),
    layer("probe.cache.miss_ns", "ns", Lower),
    layer("probe.mmu.walk_ns", "ns", Lower),
    layer("probe.mmu.walk_fault_ns", "ns", Lower),
    layer("probe.mmu.ptp_alloc_ns", "ns", Lower),
    layer("probe.mmu.ptp_free_ns", "ns", Lower),
    layer("probe.phys.alloc_ns", "ns", Lower),
    layer("probe.phys.free_ns", "ns", Lower),
    layer("probe.phys.alloc_run16_ns", "ns", Lower),
    layer("probe.phys.rmap_add_remove_ns", "ns", Lower),
    layer("probe.vm.soft_fault_ns", "ns", Lower),
    layer("probe.vm.cow_fault_ns", "ns", Lower),
    layer("probe.core.fork_stock_ns", "ns", Lower),
    layer("probe.core.fork_shared_ns", "ns", Lower),
    layer("probe.core.exit_ns", "ns", Lower),
    layer("probe.core.unshare_write_ns", "ns", Lower),
    layer("probe.core.reclaim_page_ns", "ns", Lower),
    layer("probe.core.promote_group_ns", "ns", Lower),
    layer("probe.sim.access_hit_ns", "ns", Lower),
    layer("probe.sim.access_walk_ns", "ns", Lower),
    layer("probe.sim.context_switch_ns", "ns", Lower),
    layer("probe.obs.emit_disabled_ns", "ns", Lower),
    layer("probe.obs.emit_enabled_ns", "ns", Lower),
    // share.*: an outside estimate — count × probe ns ÷ host ns.
    layer("share.tlb_pct", "%", Lower),
    layer("share.cache_pct", "%", Lower),
    layer("share.mmu_pct", "%", Lower),
    layer("share.phys_pct", "%", Lower),
    layer("share.core_pct", "%", Lower),
    layer("share.unexplained_pct", "%", Lower),
];

/// Contract limits on the tables.
pub const MAX_END_TO_END: usize = 16;
pub const MAX_PER_LAYER: usize = 128;
pub const MAX_BOUND: f64 = 0.25;

fn valid_token(s: &str, max: usize, extra: &[u8]) -> bool {
    let bytes = s.as_bytes();
    !bytes.is_empty()
        && bytes.len() <= max
        && bytes
            .iter()
            .all(|b| b.is_ascii_alphanumeric() || extra.contains(b))
}

/// A metric or workload name: `[A-Za-z0-9_.-]+`, at most 64 bytes,
/// starting with a letter or a digit.
pub fn valid_name(name: &str) -> bool {
    valid_token(name, 64, b"_.-") && name.as_bytes()[0].is_ascii_alphanumeric()
}

/// A unit: at most 16 of letters, digits, `_`, `/`, `%`, `.`, `-`.
pub fn valid_unit(unit: &str) -> bool {
    valid_token(unit, 16, b"_/%.-")
}

/// Checks both tables against the contract's limits; returns every
/// violation found.
pub fn validate(end_to_end: &[MetricDef], per_layer: &[MetricDef]) -> Vec<String> {
    let mut bad = Vec::new();
    if end_to_end.is_empty() || end_to_end.len() > MAX_END_TO_END {
        bad.push(format!(
            "{} end-to-end metrics (1..={MAX_END_TO_END})",
            end_to_end.len()
        ));
    }
    if per_layer.is_empty() || per_layer.len() > MAX_PER_LAYER {
        bad.push(format!(
            "{} per-layer metrics (1..={MAX_PER_LAYER})",
            per_layer.len()
        ));
    }
    let mut seen = std::collections::BTreeSet::new();
    for m in end_to_end.iter().chain(per_layer) {
        if !valid_name(m.name) {
            bad.push(format!("bad metric name {:?}", m.name));
        }
        if !valid_unit(m.unit) {
            bad.push(format!("bad unit {:?} on {}", m.unit, m.name));
        }
        if !seen.insert(m.name) {
            bad.push(format!("metric {} is defined twice", m.name));
        }
    }
    for m in end_to_end {
        match m.bound {
            Some(b) if b > 0.0 && b <= MAX_BOUND => {}
            other => bad.push(format!(
                "{}: bound {other:?} not in (0, {MAX_BOUND}]",
                m.name
            )),
        }
    }
    for m in per_layer {
        if m.bound.is_some() {
            bad.push(format!("{}: a per-layer metric carries no bound", m.name));
        }
    }
    if !end_to_end
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Lower)
    {
        bad.push("no setup_s (unit s, lower is better) among the end-to-end metrics".into());
    }
    bad
}

/// Looks a metric up in either table.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_shipped_tables_pass_the_validator() {
        assert_eq!(validate(END_TO_END, PER_LAYER), Vec::<String>::new());
    }

    #[test]
    fn validator_rejects_each_kind_of_violation() {
        let bad_name = [e2e("setup_s", "s", Lower, 0.1), e2e("a b", "s", Lower, 0.1)];
        assert!(validate(&bad_name, PER_LAYER)[0].contains("bad metric name"));
        let bad_unit = [e2e("setup_s", "seconds per op!", Lower, 0.1)];
        assert!(validate(&bad_unit, PER_LAYER)[0].contains("bad unit"));
        let big_bound = [e2e("setup_s", "s", Lower, 0.3)];
        assert!(validate(&big_bound, PER_LAYER)[0].contains("bound"));
        let no_setup = [e2e("host_s", "s", Lower, 0.1)];
        assert!(validate(&no_setup, PER_LAYER)[0].contains("no setup_s"));
        let dup = [layer("x", "ms", Lower), layer("x", "ms", Lower)];
        assert!(validate(END_TO_END, &dup)[0].contains("twice"));
        let bounded_layer = [e2e("x", "ms", Lower, 0.1)];
        assert!(validate(END_TO_END, &bounded_layer)[0].contains("no bound"));
        let too_many = vec![e2e("setup_s", "s", Lower, 0.1); MAX_END_TO_END + 1];
        assert!(validate(&too_many, PER_LAYER)[0].contains("end-to-end metrics"));
        assert!(!valid_name("-leading"));
        assert!(!valid_name(""));
        assert!(valid_name("probe.tlb.lookup_hit_ns"));
        assert!(valid_unit("1/s") && valid_unit("%") && !valid_unit("a b"));
    }
}
