//! Counters and gauges, and the log2-bucket histogram the trace
//! analytics aggregate span values into.
//!
//! The registry is updated on every recorded event *before* the event
//! enters the ring, so counters stay exact even when the ring wraps and
//! drops old events — the conservation tests (events vs `KernelStats` /
//! `TlbStats`) and the `BENCH_repro.json` snapshot both read counters,
//! never the (lossy) ring.

use std::collections::BTreeMap;

use crate::event::{Payload, Subsystem};

/// Number of log2 buckets; bucket `i` counts values `v` with
/// `floor(log2(max(v, 1))) == i` (so bucket 0 holds both 0 and 1).
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A log2-bucket histogram of `u64` samples.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Histogram {
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    pub buckets: [u64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; HISTOGRAM_BUCKETS],
        }
    }
}

impl Histogram {
    /// The bucket index for a sample.
    pub fn bucket_of(value: u64) -> usize {
        (63 - value.max(1).leading_zeros()) as usize
    }

    pub fn record(&mut self, value: u64) {
        self.count += 1;
        // Saturate: a clamped sum (and therefore mean) beats a panic
        // when samples approach u64::MAX.
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.buckets[Self::bucket_of(value)] += 1;
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The largest value bucket `i` can hold.
    pub fn bucket_upper_bound(i: usize) -> u64 {
        if i >= HISTOGRAM_BUCKETS - 1 {
            u64::MAX
        } else {
            (1u64 << (i + 1)) - 1
        }
    }

    /// Estimates the `pct`-th percentile (0–100) from the log2
    /// buckets: the upper bound of the bucket holding the rank-th
    /// sample, clamped to the exact observed `[min, max]`. Within a
    /// bucket the estimate errs high by at most 2×; the clamp makes
    /// single-sample, all-equal, and tail (p100 = max) cases exact.
    /// Empty histograms report 0.
    pub fn percentile(&self, pct: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((pct / 100.0) * self.count as f64).ceil() as u64;
        let rank = rank.clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Self::bucket_upper_bound(i).clamp(self.min, self.max);
            }
        }
        self.max
    }
}

/// An instantaneous level (free frames, run-queue depth, TLB
/// occupancy) with its tracked peak. Unlike a counter, a gauge moves
/// both ways; unlike a histogram, it is a *state*, not a population of
/// samples — so the registry keeps the current value plus the peak
/// since the last [`MetricsRegistry::begin_gauge_window`]
/// (per-experiment gating).
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct Gauge {
    /// Most recently published value.
    pub value: u64,
    /// Peak of the values published since the last window reset (the
    /// snapshot's per-experiment `gauge.*` metrics read this); `None`
    /// until the gauge is published in the window.
    pub window_high_water: Option<u64>,
}

impl Gauge {
    fn publish(&mut self, value: u64) {
        self.value = value;
        self.window_high_water = Some(self.window_high_water.map_or(value, |w| w.max(value)));
    }
}

/// Named counters and gauges. Key taxonomy is
/// dotted and stable (documented in DESIGN.md §7 and §12):
/// `kernel.*`, `share.unshare.*`, `vm.fault.*`, `tlb.flush.*`,
/// `android.*`, `bench.*`, `sim.*`, and the gauge set rooted at
/// `phys.*` / `registry.*` / `kernel.*` / `tlb.*` / `sim.*` /
/// `sched.*`.
#[derive(Default, Clone, PartialEq, Eq, Debug)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, Gauge>,
}

impl MetricsRegistry {
    /// Adds `n` to a counter (creating it at zero first).
    pub fn inc(&mut self, key: &str, n: u64) {
        if let Some(v) = self.counters.get_mut(key) {
            *v += n;
        } else {
            self.counters.insert(key.to_string(), n);
        }
    }

    /// Current counter value (0 if never bumped).
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    pub fn counters_map(&self) -> &BTreeMap<String, u64> {
        &self.counters
    }

    /// Publishes a gauge's current value (creating it at zero first).
    pub fn gauge_set(&mut self, key: &str, value: u64) {
        if let Some(g) = self.gauges.get_mut(key) {
            g.publish(value);
        } else {
            let mut g = Gauge::default();
            g.publish(value);
            self.gauges.insert(key.to_string(), g);
        }
    }

    /// The gauge registered under `key`, if any.
    pub fn gauge(&self, key: &str) -> Option<Gauge> {
        self.gauges.get(key).copied()
    }

    /// Starts a fresh per-experiment window, empty: a gauge joins it
    /// when it is next published. The level a gauge was left at
    /// belongs to whatever published it — an earlier experiment's
    /// machines, dropped since — not to the window being opened.
    pub fn begin_gauge_window(&mut self) {
        for g in self.gauges.values_mut() {
            g.window_high_water = None;
        }
    }

    /// The gauges published since the last window reset, with their
    /// current values — what a sample of the window cuts.
    pub(crate) fn window_gauges(&self) -> impl Iterator<Item = (&str, u64)> {
        self.gauges
            .iter()
            .filter(|(_, g)| g.window_high_water.is_some())
            .map(|(k, g)| (k.as_str(), g.value))
    }

    /// The per-gauge peaks since the last window reset. Gauges that
    /// were not published in the window, or never rose above zero, are
    /// omitted (mirrors the per-experiment event-delta convention:
    /// absent means untouched).
    pub fn window_gauge_high_waters(&self) -> BTreeMap<String, u64> {
        self.gauges
            .iter()
            .filter_map(|(k, g)| Some((k.clone(), g.window_high_water.filter(|&w| w > 0)?)))
            .collect()
    }

    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty()
    }

    /// Derives the counter and gauge updates an event implies. Keys
    /// are `&'static str` on the hot flush/fault paths — no per-event
    /// allocation there. Called by the sink before ring admission
    /// (exact under overflow) and by the trace analyzer when replaying
    /// a parsed stream.
    pub fn apply_event(&mut self, subsystem: Subsystem, payload: &Payload) {
        match payload {
            Payload::Fork {
                ptps_shared,
                ptes_copied,
                shared,
                ..
            } => {
                self.inc("kernel.fork", 1);
                if *shared {
                    self.inc("kernel.fork.shared", 1);
                }
                self.inc("kernel.fork.ptps_shared", *ptps_shared);
                self.inc("kernel.fork.ptes_copied", *ptes_copied);
            }
            Payload::Exit => self.inc("kernel.exit", 1),
            Payload::RegionOp { op, unshared, .. } => {
                self.inc(op.counter_key(), 1);
                self.inc("kernel.region_op.unshared", *unshared);
            }
            Payload::DomainFault { .. } => self.inc("kernel.domain_fault", 1),
            Payload::PtpShare {
                ptps,
                write_protect_ops,
            } => {
                self.inc("share.fork_share", 1);
                self.inc("share.fork_share.ptps", *ptps);
                self.inc("share.fork_share.write_protect_ops", *write_protect_ops);
            }
            Payload::PtpUnshare {
                cause,
                ptes_copied,
                last_sharer,
                ..
            } => {
                self.inc("share.unshare", 1);
                self.inc(cause.counter_key(), 1);
                self.inc("share.unshare.ptes_copied", *ptes_copied);
                if *last_sharer {
                    self.inc("share.unshare.last_sharer", 1);
                }
            }
            Payload::PageFault {
                class, file_backed, ..
            } => {
                self.inc("vm.fault", 1);
                self.inc(class.counter_key(), 1);
                if *file_backed {
                    self.inc("vm.fault.file_backed", 1);
                }
            }
            Payload::TlbFlush {
                scope,
                reason,
                entries,
            } => {
                self.inc(scope.counter_key(), 1);
                self.inc(reason.counter_key(), 1);
                if scope.is_main() {
                    self.inc("tlb.flush.main", 1);
                    self.inc("tlb.flush.main.entries", *entries);
                    self.inc(reason.entries_key(), *entries);
                    if matches!(scope, crate::FlushScope::All) {
                        self.inc("tlb.flush.main.full", 1);
                    }
                } else {
                    self.inc("tlb.flush.micro", 1);
                    self.inc("tlb.flush.micro.entries", *entries);
                }
            }
            Payload::AsidRollover { .. } => self.inc("kernel.asid.rollover", 1),
            Payload::TlbShootdown {
                scope,
                cores_targeted,
                cores_local,
                cores_skipped,
                ..
            } => {
                self.inc("tlb.shootdown", 1);
                self.inc("tlb.shootdown.cores", u64::from(*cores_targeted));
                self.inc("tlb.shootdown.local", u64::from(*cores_local));
                self.inc("tlb.shootdown.skipped", u64::from(*cores_skipped));
                if matches!(scope, crate::FlushScope::Range | crate::FlushScope::Page) {
                    self.inc("tlb.shootdown.scope.range", 1);
                } else {
                    self.inc("tlb.shootdown.scope.asid", 1);
                }
            }
            Payload::FlushBatch {
                ops,
                coalesced,
                escalated,
            } => {
                self.inc("tlb.batch", 1);
                self.inc("tlb.batch.ops", *ops);
                self.inc("tlb.batch.coalesced", *coalesced);
                self.inc("tlb.batch.escalated", *escalated);
            }
            Payload::Preempt { .. } => self.inc("sched.preempt", 1),
            // Replaying a parsed trace reconstructs the gauges exactly:
            // the live side publishes at sample points only, so setting
            // the gauge per Sample event reproduces the same values and
            // high-water marks. (At live-record time this re-set is
            // idempotent — the sampler reads the value it writes back.)
            Payload::Sample { gauge, value } => self.gauge_set(gauge, *value),
            // Only the closing half of a span is counted; the opening
            // half exists for trace structure. Span values are
            // aggregated by the trace analytics (`Rollup::spans`).
            Payload::SpanBegin { .. } => {}
            Payload::SpanEnd { .. } => self.inc(
                match subsystem {
                    Subsystem::Android => "android.phase",
                    Subsystem::Bench => "bench.cell",
                    _ => "span.end",
                },
                1,
            ),
            Payload::CycleCharge {
                flow,
                cause,
                cycles,
            } => {
                self.inc("flow.charges", 1);
                self.inc(cause.counter_key(), *cycles);
                if *flow == 0 {
                    self.inc("flow.cycles.unattributed", *cycles);
                }
            }
            Payload::FlowArrive { .. } => self.inc("flow.arrive", 1),
            Payload::FlowBegin { .. } => self.inc("flow.begin", 1),
            Payload::FlowEnd { .. } => self.inc("flow.end", 1),
            Payload::Reclaim {
                pages,
                pte_tears,
                shared_tears,
            } => {
                self.inc("kernel.reclaim", 1);
                self.inc("kernel.reclaim.pages", *pages);
                self.inc("kernel.reclaim.pte_tears", *pte_tears);
                self.inc("kernel.reclaim.shared_tears", *shared_tears);
            }
            Payload::Promote { pages, filled, .. } => {
                self.inc("mmu.promote", 1);
                self.inc("mmu.promote.pages", *pages);
                self.inc("mmu.promote.filled", *filled);
            }
            Payload::Demote { pages, cause, .. } => {
                self.inc("mmu.demote", 1);
                self.inc("mmu.demote.pages", *pages);
                self.inc(cause.counter_key(), 1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 0);
        assert_eq!(Histogram::bucket_of(2), 1);
        assert_eq!(Histogram::bucket_of(3), 1);
        assert_eq!(Histogram::bucket_of(4), 2);
        assert_eq!(Histogram::bucket_of(1023), 9);
        assert_eq!(Histogram::bucket_of(1024), 10);
        assert_eq!(Histogram::bucket_of(u64::MAX), 63);
    }

    #[test]
    fn histogram_stats() {
        let mut a = Histogram::default();
        for v in [1u64, 2, 4, 100] {
            a.record(v);
        }
        assert_eq!(a.count, 4);
        assert_eq!(a.sum, 107);
        assert_eq!(a.min, 1);
        assert_eq!(a.max, 100);
        assert_eq!(a.buckets[6], 1);
    }

    #[test]
    fn percentile_of_empty_histogram_is_zero() {
        let h = Histogram::default();
        assert_eq!(h.percentile(0.0), 0);
        assert_eq!(h.percentile(50.0), 0);
        assert_eq!(h.percentile(100.0), 0);
    }

    #[test]
    fn percentile_of_single_sample_is_exact() {
        // The bucket upper bound (7 for bucket 2) must clamp down to
        // the one observed value.
        let mut h = Histogram::default();
        h.record(5);
        for pct in [0.0, 50.0, 95.0, 100.0] {
            assert_eq!(h.percentile(pct), 5, "p{pct}");
        }
    }

    #[test]
    fn percentile_of_all_equal_samples_is_exact() {
        let mut h = Histogram::default();
        for _ in 0..1000 {
            h.record(300);
        }
        assert_eq!(h.percentile(50.0), 300);
        assert_eq!(h.percentile(95.0), 300);
        assert_eq!(h.percentile(100.0), 300);
    }

    #[test]
    fn percentile_near_u64_max_does_not_overflow() {
        // Bucket 63's upper bound would be 2^64 - computing it must
        // not overflow, and the clamp keeps the answer at max.
        let mut h = Histogram::default();
        h.record(u64::MAX);
        h.record(u64::MAX - 1);
        assert_eq!(Histogram::bucket_upper_bound(63), u64::MAX);
        // Both samples share bucket 63; the estimator reports the
        // bucket's upper bound clamped into [min, max].
        assert_eq!(h.percentile(50.0), u64::MAX);
        assert_eq!(h.percentile(100.0), u64::MAX);
        assert!(h.percentile(50.0) >= h.min && h.percentile(50.0) <= h.max);
        assert_eq!(h.sum, u64::MAX, "sum saturates instead of panicking");
    }

    #[test]
    fn percentile_spread_lands_in_rank_bucket() {
        // 90 fast samples (=4), 10 slow (=1024): p50 is exact in the
        // fast bucket's clamp window, p95 lands in the slow bucket.
        let mut h = Histogram::default();
        for _ in 0..90 {
            h.record(4);
        }
        for _ in 0..10 {
            h.record(1024);
        }
        assert_eq!(h.percentile(50.0), 7); // bucket 2 upper bound
        assert_eq!(h.percentile(95.0), 1024); // bucket 10, clamped to max
        assert_eq!(h.percentile(100.0), 1024);
        // Rank clamps to the first sample; the estimator reports its
        // bucket's upper bound (an upper-bound estimate, not min).
        assert_eq!(h.percentile(0.0), 7);
    }

    #[test]
    fn gauge_tracks_value_and_high_water() {
        let mut m = MetricsRegistry::default();
        m.gauge_set("phys.frames.free", 100);
        m.gauge_set("phys.frames.free", 70);
        m.gauge_set("phys.frames.free", 80);
        let g = m.gauge("phys.frames.free").unwrap();
        assert_eq!(g.value, 80);
        assert_eq!(g.window_high_water, Some(100));
        m.gauge_set("phys.frames.free", 0);
        assert_eq!(m.gauge("phys.frames.free").unwrap().value, 0);
        assert_eq!(
            m.gauge("phys.frames.free").unwrap().window_high_water,
            Some(100)
        );
        assert_eq!(m.gauge("missing"), None);
    }

    #[test]
    fn gauge_window_forgets_levels_not_published_in_it() {
        let mut sink = crate::Recorder::new(16);
        let m = &mut sink.metrics;
        m.gauge_set("phys.slab.live", 50);
        m.gauge_set("phys.slab.live", 10);
        m.gauge_set("registry.sharers", 53);
        assert_eq!(m.window_gauge_high_waters()["phys.slab.live"], 50);
        m.begin_gauge_window();
        // The levels left behind (10 and 53) belong to whoever
        // published them, not to the new window.
        assert!(m.window_gauge_high_waters().is_empty());
        for v in [5, 30, 7] {
            m.gauge_set("phys.slab.live", v);
        }
        // A sample cuts the window's gauges only, so it cannot
        // republish the stale one into the window.
        sink.sample_gauges();
        let rec = sink.finish();
        assert_eq!(rec.events.len(), 1);
        assert_eq!(
            rec.events[0].payload,
            Payload::Sample {
                gauge: "phys.slab.live".to_string(),
                value: 7
            }
        );
        assert_eq!(
            rec.metrics.window_gauge_high_waters(),
            BTreeMap::from([("phys.slab.live".to_string(), 30)])
        );
        // A gauge left out of the window keeps its value, with no peak.
        let sharers = rec.metrics.gauge("registry.sharers").unwrap();
        assert_eq!((sharers.value, sharers.window_high_water), (53, None));
    }

    #[test]
    fn window_high_waters_omit_zero_gauges() {
        let mut m = MetricsRegistry::default();
        m.gauge_set("a", 0);
        m.gauge_set("b", 1);
        assert_eq!(m.window_gauge_high_waters().len(), 1);
    }

    #[test]
    fn sample_event_replay_reconstructs_gauges() {
        let mut live = MetricsRegistry::default();
        let mut replay = MetricsRegistry::default();
        for v in [5u64, 12, 3] {
            live.gauge_set("registry.sharers", v);
            replay.apply_event(
                Subsystem::Share,
                &Payload::Sample {
                    gauge: "registry.sharers".to_string(),
                    value: v,
                },
            );
        }
        assert_eq!(
            live.gauge("registry.sharers"),
            replay.gauge("registry.sharers")
        );
        assert_eq!(
            replay.gauge("registry.sharers").unwrap().window_high_water,
            Some(12)
        );
    }
}
