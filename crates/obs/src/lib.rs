//! `sat-obs`: cross-layer event tracing and metrics.
//!
//! A thread-local recorder collects structured [`Event`]s from every
//! mechanism layer (kernel, PTP share, vm fault, TLB, Android, bench,
//! sim, sched) into a fixed-capacity ring ([`RingSink`]) alongside an exact
//! [`MetricsRegistry`]. Two exporters serialize the harvest: Chrome
//! trace-event JSON ([`chrome_trace_json`]) and a metrics snapshot
//! ([`metrics_json`]) embedded in `BENCH_repro.json`.
//!
//! # Overhead contract
//!
//! Instrumented call sites are written as
//!
//! ```ignore
//! if sat_obs::enabled() {
//!     sat_obs::emit(Subsystem::Tlb, pid, asid, Payload::TlbFlush { .. });
//! }
//! ```
//!
//! With no recorder installed — the default on every thread —
//! [`enabled`] is a single thread-local `Cell<bool>` read: one
//! branch-predictable test, no allocation, no payload construction.
//! `satbench`'s probes time instrumented code with no recorder
//! installed, and `probe.obs.emit_disabled_ns` prices the test alone.
//!
//! # Threads
//!
//! The recorder is deliberately thread-local (no global mutex on the
//! simulator's hot paths; `cargo test` runs tests concurrently). A
//! recording never leaves the thread that made it: `repro` runs every
//! experiment on the thread that installed the recorder.

#![forbid(unsafe_code)]

pub mod analyze;
mod chrome;
mod event;
pub mod json;
mod metrics;
pub mod report;
mod sink;

pub use chrome::{chrome_trace_json, metrics_json, parse_chrome_trace, ParsedTrace};
pub use event::{
    ChargeCause, DemoteCause, Event, FaultClass, FlushReason, FlushScope, Payload, RegionOpKind,
    SpanUnit, Subsystem, UnshareCause,
};
pub use metrics::{Gauge, Histogram, MetricsRegistry, HISTOGRAM_BUCKETS};
pub use sink::{Recording, RingSink};

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;

thread_local! {
    static SINK: RefCell<Option<RingSink>> = const { RefCell::new(None) };
    /// Mirror of `SINK.is_some()`: the cheap check on the disabled
    /// path.
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static FLUSH_REASON: Cell<FlushReason> = const { Cell::new(FlushReason::Unattributed) };
    /// Scoped default cause for aggregate kernel-path charges (see
    /// [`with_charge_cause`]).
    static CHARGE_CAUSE: Cell<ChargeCause> = const { Cell::new(ChargeCause::Exec) };
    /// Request-flow context: pid → flow binding (survives preemption
    /// and core migration) and the flow currently executing per core
    /// (0 = unattributed). Thread-local like the recorder itself.
    static FLOW_BY_PID: RefCell<BTreeMap<u32, u32>> = const { RefCell::new(BTreeMap::new()) };
    static FLOW_BY_CORE: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
    /// Whether cycle-charge attribution is on. Off by default even
    /// with a sink installed: per-access `CycleCharge` events would
    /// swamp the ring on workloads that never look at flows. The
    /// serve driver (and flow tests) opt in via [`set_flow_tracing`].
    static FLOW_TRACING: Cell<bool> = const { Cell::new(false) };
}

/// Default ring capacity (overridable via `SAT_OBS_RING`).
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

/// Parses a `SAT_OBS_RING` value. `Err` carries the warning for an
/// unparseable or zero value (the fallback is never silent); unset is
/// the quiet default.
pub fn parse_ring_capacity(var: Option<&str>) -> Result<usize, String> {
    let Some(raw) = var else {
        return Ok(DEFAULT_RING_CAPACITY);
    };
    match raw.trim().parse::<usize>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!(
            "sat-obs: ignoring SAT_OBS_RING={raw:?} (want a positive integer); \
             using default {DEFAULT_RING_CAPACITY}"
        )),
    }
}

/// Ring capacity from the `SAT_OBS_RING` env var, else the default.
/// An unparseable value warns on stderr once per process.
pub fn env_ring_capacity() -> usize {
    let var = std::env::var("SAT_OBS_RING").ok();
    match parse_ring_capacity(var.as_deref()) {
        Ok(n) => n,
        Err(warning) => {
            static WARN_ONCE: std::sync::Once = std::sync::Once::new();
            WARN_ONCE.call_once(|| eprintln!("{warning}"));
            DEFAULT_RING_CAPACITY
        }
    }
}

/// Whether a recorder is installed on this thread. Call sites gate
/// payload construction on this.
#[inline]
pub fn enabled() -> bool {
    ENABLED.with(|e| e.get())
}

/// Runs `f` on this thread's recorder; `None` (and `f` never runs)
/// when none is installed. Every recording entry point below is this
/// plus one call, so the disabled path is always the single
/// [`enabled`] branch.
#[inline]
fn with_sink<R>(f: impl FnOnce(&mut RingSink) -> R) -> Option<R> {
    if !enabled() {
        return None;
    }
    // Spelled as a `match`: `Option::map` moves a payload-owning
    // closure once more, ~5 ns of the ~28 ns a recorded `emit` costs.
    #[allow(clippy::manual_map)]
    SINK.with(|s| match s.borrow_mut().as_mut() {
        Some(sink) => Some(f(sink)),
        None => None,
    })
}

/// Installs a fresh [`RingSink`] with `capacity` on this thread,
/// replacing (and discarding) any previous one.
pub fn install(capacity: usize) {
    SINK.with(|s| *s.borrow_mut() = Some(RingSink::new(capacity)));
    ENABLED.with(|e| e.set(true));
}

/// Removes this thread's recorder and returns everything it captured.
/// `None` if nothing was installed.
pub fn uninstall() -> Option<Recording> {
    ENABLED.with(|e| e.set(false));
    FLUSH_REASON.with(|r| r.set(FlushReason::Unattributed));
    CHARGE_CAUSE.with(|c| c.set(ChargeCause::Exec));
    FLOW_BY_PID.with(|m| m.borrow_mut().clear());
    FLOW_BY_CORE.with(|v| v.borrow_mut().clear());
    FLOW_TRACING.with(|t| t.set(false));
    SINK.with(|s| s.borrow_mut().take()).map(RingSink::finish)
}

/// Records one event on this thread's recorder (no-op when disabled —
/// but prefer gating on [`enabled`] so the payload is never built).
pub fn emit(subsystem: Subsystem, pid: u32, asid: u8, payload: Payload) {
    // Tested before the closure takes ownership of `payload`: left to
    // `with_sink`, the disabled path pays for moving the payload in
    // and dropping it again (4 ns becomes 11 ns on an ungated site).
    if !enabled() {
        return;
    }
    with_sink(|s| s.record(pid, asid, subsystem, payload));
}

/// Records a histogram sample (e.g. one modeled fault's cycle cost).
pub fn record_value(name: &str, value: u64) {
    with_sink(|s| s.metrics.record(name, value));
}

/// Publishes a gauge's current value on this thread's recorder.
///
/// Gauges are *polled*, not pushed: the layers owning the state
/// (sat-phys, sat-core, sat-sim, sat-sched) expose `publish_gauges`
/// methods that read their existing bookkeeping and call this, and the
/// driver loop invokes them only at sample points. The hot paths
/// therefore pay nothing for the time-series layer — the disabled
/// check is the same single thread-local branch as [`emit`].
pub fn gauge_set(key: &str, value: u64) {
    with_sink(|s| s.metrics.gauge_set(key, value));
}

/// Snapshots every gauge published in the current gauge window into
/// the event ring as [`Payload::Sample`] events — one consistent cut
/// across the window's gauge set. Drive this from a [`Sampler`] rather
/// than calling it directly, so the cadence is explicit.
pub fn sample_gauges() {
    with_sink(RingSink::sample_gauges);
}

/// Starts a fresh per-experiment gauge window on this thread's
/// recorder (see [`MetricsRegistry::begin_gauge_window`]).
pub fn begin_gauge_window() {
    with_sink(|s| s.metrics.begin_gauge_window());
}

/// Clones the per-gauge window high-water marks, if a recorder is
/// live (the per-experiment `gauges` snapshot section).
pub fn window_gauge_high_waters() -> Option<BTreeMap<String, u64>> {
    with_metrics(|m| m.window_gauge_high_waters())
}

/// The sample clock: the loop that owns simulated time (scheduler
/// rounds, fleet spawn batches) calls [`Sampler::tick`] once per
/// logical step, and every `every`-th step the sampler runs the
/// caller's publish closure and snapshots the gauge set into the ring.
///
/// The publish closure is only invoked when a sample is actually due
/// *and* a sink is enabled, so an untraced run never polls the layers
/// at all.
#[derive(Clone, Copy, Debug)]
pub struct Sampler {
    every: u64,
    ticks: u64,
}

impl Sampler {
    /// A sampler firing every `every` ticks (`every` is clamped to at
    /// least 1).
    pub fn new(every: u64) -> Sampler {
        Sampler {
            every: every.max(1),
            ticks: 0,
        }
    }

    /// Ticks this sampler's clock forward. Fires first on tick
    /// `every`, then every `every` ticks after. Returns whether a
    /// sample was cut.
    pub fn tick(&mut self, publish: impl FnOnce()) -> bool {
        self.ticks += 1;
        if !enabled() || !self.ticks.is_multiple_of(self.every) {
            return false;
        }
        publish();
        sample_gauges();
        true
    }

    /// Cuts a sample immediately, off the clock (the final
    /// state-of-the-machine snapshot after a reap phase). The clock
    /// position is unchanged.
    pub fn sample_now(&mut self, publish: impl FnOnce()) -> bool {
        if !enabled() {
            return false;
        }
        publish();
        sample_gauges();
        true
    }
}

/// Runs `f` with the thread's flush-reason set to `reason`, restoring
/// the previous reason afterwards. TLB flush primitives read this to
/// attribute flushes to the kernel path that issued them, without any
/// signature changes through `TlbMaintenance`.
pub fn with_flush_reason<R>(reason: FlushReason, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let prev = FLUSH_REASON.with(|r| r.replace(reason));
    let out = f();
    FLUSH_REASON.with(|r| r.set(prev));
    out
}

/// The flush reason currently in scope (see [`with_flush_reason`]).
pub fn current_flush_reason() -> FlushReason {
    FLUSH_REASON.with(|r| r.get())
}

/// Runs `f` with the thread's default charge cause set to `cause`,
/// restoring the previous cause afterwards. Aggregate kernel-path
/// charges (e.g. the machine's kernel-line fetch loops) read this so
/// the path that *issued* the work — context switch, fault handler,
/// binder ingress — owns the cycles, without signature changes.
pub fn with_charge_cause<R>(cause: ChargeCause, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let prev = CHARGE_CAUSE.with(|c| c.replace(cause));
    let out = f();
    CHARGE_CAUSE.with(|c| c.set(prev));
    out
}

/// The charge cause currently in scope (see [`with_charge_cause`]).
/// [`ChargeCause::Exec`] when no path claimed the work.
pub fn current_charge_cause() -> ChargeCause {
    CHARGE_CAUSE.with(|c| c.get())
}

/// Turns cycle-charge attribution on or off for this thread. Off (the
/// default), [`charge`] and the flow-binding calls are no-ops even
/// with a sink installed, so workloads that never establish flows pay
/// nothing and emit nothing — per-access `CycleCharge` events would
/// otherwise swamp the ring on every traced experiment.
pub fn set_flow_tracing(on: bool) {
    FLOW_TRACING.with(|t| t.set(on));
}

/// Whether cycle-charge attribution is on for this thread.
#[inline]
pub fn flow_tracing() -> bool {
    FLOW_TRACING.with(|t| t.get())
}

/// Binds request `flow` to `pid` and marks it the active flow on
/// `core`. The per-pid binding survives preemption and core migration:
/// [`flow_note_scheduled`] re-establishes the core slot whenever the
/// pid is switched back in, wherever that happens.
pub fn flow_bind(core: usize, pid: u32, flow: u32) {
    if !enabled() || !flow_tracing() {
        return;
    }
    FLOW_BY_PID.with(|m| m.borrow_mut().insert(pid, flow));
    set_core_flow(core, flow);
}

/// Drops `pid`'s flow binding (request complete) and clears any core
/// slot still holding its flow.
pub fn flow_unbind(pid: u32) {
    if !enabled() || !flow_tracing() {
        return;
    }
    let flow = FLOW_BY_PID.with(|m| m.borrow_mut().remove(&pid));
    if let Some(flow) = flow {
        FLOW_BY_CORE.with(|v| {
            for slot in v.borrow_mut().iter_mut() {
                if *slot == flow {
                    *slot = 0;
                }
            }
        });
    }
}

/// Notes that `pid` was switched in on `core`: the core's active flow
/// becomes whatever flow is bound to the pid (0 when none). The
/// machine's context-switch path calls this, so attribution follows a
/// request through preemption and migration with no scheduler help.
pub fn flow_note_scheduled(core: usize, pid: u32) {
    if !enabled() || !flow_tracing() {
        return;
    }
    let flow = FLOW_BY_PID.with(|m| m.borrow().get(&pid).copied().unwrap_or(0));
    set_core_flow(core, flow);
}

/// Clears `core`'s active flow without touching the pid binding: the
/// request was preempted and left the core. Cycles the core spends
/// until the next switch-in (driver bookkeeping, fork churn, other
/// requests) are unattributed or theirs — the preempted request's gap
/// is covered by the driver's explicit run-queue-wait charge instead,
/// so nothing is counted twice.
pub fn flow_park(core: usize) {
    if !enabled() || !flow_tracing() {
        return;
    }
    set_core_flow(core, 0);
}

fn set_core_flow(core: usize, flow: u32) {
    FLOW_BY_CORE.with(|v| {
        let mut v = v.borrow_mut();
        if v.len() <= core {
            v.resize(core + 1, 0);
        }
        v[core] = flow;
    });
}

/// The flow currently active on `core` (0 = unattributed).
pub fn active_flow(core: usize) -> u32 {
    FLOW_BY_CORE.with(|v| v.borrow().get(core).copied().unwrap_or(0))
}

/// Charges `cycles` to the flow active on `core` under `cause`,
/// emitting a [`Payload::CycleCharge`]. Flow 0 (no active request) is
/// recorded too: the unattributed bucket is what lets per-cause global
/// totals reconcile against `TlbStats`/`KernelStats` even on runs with
/// no requests in flight. Disabled-path cost is the usual single
/// thread-local branch; with a sink but [`flow_tracing`] off this is
/// still a no-op (see [`set_flow_tracing`]).
pub fn charge(core: usize, cause: ChargeCause, cycles: u64) {
    if !enabled() || !flow_tracing() || cycles == 0 {
        return;
    }
    let flow = active_flow(core);
    emit(
        Subsystem::Sim,
        0,
        0,
        Payload::CycleCharge {
            flow,
            cause,
            cycles,
        },
    );
}

/// [`charge`] under the scoped default cause — the aggregation point
/// for kernel-line fetch loops.
pub fn charge_scoped(core: usize, cycles: u64) {
    charge(core, current_charge_cause(), cycles);
}

/// Runs `f` against the live metrics registry, if a recorder is
/// installed. Used by conservation tests and `repro`'s per-experiment
/// deltas without tearing the recorder down.
pub fn with_metrics<R>(f: impl FnOnce(&MetricsRegistry) -> R) -> Option<R> {
    with_sink(|s| f(&s.metrics))
}

/// Clones the current counter map, if a recorder is live.
pub fn counters_snapshot() -> Option<BTreeMap<String, u64>> {
    with_metrics(|m| m.counters_map().clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default_and_emit_is_noop() {
        assert!(!enabled());
        emit(Subsystem::Kernel, 1, 1, Payload::Exit);
        record_value("x", 1);
        assert!(uninstall().is_none());
        assert!(counters_snapshot().is_none());
    }

    #[test]
    fn install_emit_uninstall_round_trip() {
        install(8);
        assert!(enabled());
        emit(Subsystem::Kernel, 3, 2, Payload::Exit);
        record_value("sim.soft_fault_cycles", 250);
        let snap = counters_snapshot().unwrap();
        assert_eq!(snap.get("kernel.exit"), Some(&1));
        let rec = uninstall().unwrap();
        assert!(!enabled());
        assert_eq!(rec.events.len(), 1);
        assert_eq!(rec.events[0].pid, 3);
        assert_eq!(
            rec.metrics
                .histogram("sim.soft_fault_cycles")
                .unwrap()
                .count,
            1
        );
        assert!(uninstall().is_none());
    }

    #[test]
    fn flush_reason_scopes_nest_and_restore() {
        install(8);
        assert_eq!(current_flush_reason(), FlushReason::Unattributed);
        let reasons = with_flush_reason(FlushReason::Exit, || {
            let outer = current_flush_reason();
            let inner = with_flush_reason(FlushReason::Unshare, current_flush_reason);
            (outer, current_flush_reason(), inner)
        });
        assert_eq!(
            reasons,
            (FlushReason::Exit, FlushReason::Exit, FlushReason::Unshare)
        );
        assert_eq!(current_flush_reason(), FlushReason::Unattributed);
        uninstall();
    }

    #[test]
    fn sampler_fires_every_k_ticks_and_skips_when_disabled() {
        // Disabled: the publish closure must never run.
        let mut sampler = Sampler::new(2);
        let mut published = 0;
        assert!(!sampler.tick(|| published += 1));
        assert!(!sampler.tick(|| published += 1));
        assert_eq!(published, 0);

        install(64);
        let mut sampler = Sampler::new(3);
        let mut fired = Vec::new();
        for i in 1..=9u64 {
            if sampler.tick(|| gauge_set("sim.x", i)) {
                fired.push(i);
            }
        }
        assert_eq!(fired, vec![3, 6, 9]);
        let rec = uninstall().unwrap();
        let samples: Vec<u64> = rec
            .events
            .iter()
            .filter_map(|e| match &e.payload {
                Payload::Sample { value, .. } => Some(*value),
                _ => None,
            })
            .collect();
        assert_eq!(samples, vec![3, 6, 9]);
    }

    #[test]
    fn sample_now_cuts_an_off_clock_snapshot() {
        install(64);
        let mut sampler = Sampler::new(100);
        assert!(sampler.sample_now(|| gauge_set("sim.final", 42)));
        let rec = uninstall().unwrap();
        assert_eq!(rec.events.len(), 1);
        assert_eq!(
            rec.events[0].payload,
            Payload::Sample {
                gauge: "sim.final".to_string(),
                value: 42
            }
        );
    }

    #[test]
    fn gauge_free_functions_are_noops_when_disabled() {
        assert!(!enabled());
        gauge_set("x", 1);
        sample_gauges();
        begin_gauge_window();
        assert!(window_gauge_high_waters().is_none());
    }

    #[test]
    fn ring_capacity_parse_path() {
        assert_eq!(parse_ring_capacity(None), Ok(DEFAULT_RING_CAPACITY));
        assert_eq!(parse_ring_capacity(Some("1024")), Ok(1024));
        assert_eq!(parse_ring_capacity(Some(" 8 ")), Ok(8));
        for bad in ["", "zero", "0", "-4", "1e6", "65_536"] {
            let err = parse_ring_capacity(Some(bad)).unwrap_err();
            assert!(err.contains("SAT_OBS_RING"), "{err}");
            assert!(err.contains(&DEFAULT_RING_CAPACITY.to_string()), "{err}");
        }
    }

    #[test]
    fn uninstall_resets_flush_reason() {
        install(8);
        // A panicking scope can't unwind our Cell (no Drop guard), but
        // uninstall always restores the default for the next run.
        FLUSH_REASON.with(|r| r.set(FlushReason::Fork));
        uninstall();
        assert_eq!(current_flush_reason(), FlushReason::Unattributed);
    }

    #[test]
    fn charge_cause_scopes_nest_and_restore() {
        install(8);
        assert_eq!(current_charge_cause(), ChargeCause::Exec);
        let causes = with_charge_cause(ChargeCause::Fault, || {
            let outer = current_charge_cause();
            let inner = with_charge_cause(ChargeCause::Unshare, current_charge_cause);
            (outer, inner)
        });
        assert_eq!(causes, (ChargeCause::Fault, ChargeCause::Unshare));
        assert_eq!(current_charge_cause(), ChargeCause::Exec);
        uninstall();
    }

    #[test]
    fn flow_binding_follows_pid_through_reschedule() {
        install(64);
        set_flow_tracing(true);
        flow_bind(0, 7, 42);
        assert_eq!(active_flow(0), 42);
        // Preemption: another pid (no flow) takes core 0.
        flow_note_scheduled(0, 9);
        assert_eq!(active_flow(0), 0);
        // The request's pid migrates to core 2: the binding follows.
        flow_note_scheduled(2, 7);
        assert_eq!(active_flow(2), 42);
        charge(2, ChargeCause::TlbStall, 8);
        charge(0, ChargeCause::Ipi, 2000);
        flow_unbind(7);
        assert_eq!(active_flow(2), 0);
        let rec = uninstall().unwrap();
        let charges: Vec<(u32, ChargeCause, u64)> = rec
            .events
            .iter()
            .filter_map(|e| match e.payload {
                Payload::CycleCharge {
                    flow,
                    cause,
                    cycles,
                } => Some((flow, cause, cycles)),
                _ => None,
            })
            .collect();
        assert_eq!(
            charges,
            vec![(42, ChargeCause::TlbStall, 8), (0, ChargeCause::Ipi, 2000)]
        );
    }

    #[test]
    fn charges_are_noops_when_disabled_and_zero_is_elided() {
        assert!(!enabled());
        flow_bind(0, 1, 5);
        charge(0, ChargeCause::Exec, 10);
        assert_eq!(active_flow(0), 0);
        install(8);
        // Sink up, but flow tracing not opted into: still silent.
        charge(0, ChargeCause::Exec, 10);
        flow_bind(0, 1, 5);
        assert_eq!(active_flow(0), 0);
        set_flow_tracing(true);
        charge(0, ChargeCause::Exec, 0); // zero-cycle charges are noise
        let rec = uninstall().unwrap();
        assert!(rec.events.is_empty());
    }

    #[test]
    fn uninstall_resets_flow_state() {
        install(8);
        set_flow_tracing(true);
        flow_bind(1, 3, 9);
        uninstall();
        assert!(!flow_tracing(), "tracing opt-in must not leak across runs");
        install(8);
        set_flow_tracing(true);
        assert_eq!(active_flow(1), 0);
        flow_note_scheduled(1, 3);
        assert_eq!(active_flow(1), 0, "pid binding must not leak across runs");
        uninstall();
    }
}
