//! `sat-obs`: cross-layer event tracing and metrics.
//!
//! One [`Recorder`] per thread collects structured [`Event`]s from
//! every mechanism layer (kernel, PTP share, vm fault, TLB, Android,
//! bench, sim, sched) into a fixed-capacity ring alongside an exact
//! [`MetricsRegistry`], and holds the request-flow context that cycle
//! charges are attributed to. The ring is exported as Chrome
//! trace-event JSON ([`chrome_trace_json`]) and re-ingested by
//! [`parse_chrome_trace`]; the registry's counters are read in process
//! (`repro` writes them into its own snapshot). The hardware models
//! (`sat-types`, `sat-cache`, `sat-tlb`) do not depend on this crate:
//! the machine in `sat-sim` reports what they do, and every cause (a
//! flush's reason, a cycle charge's cause) is an argument of the call
//! that records it.
//!
//! Each recording job has one way in: [`emit`] for an event,
//! [`gauge_set`] and [`sample`] for gauges, [`Span`] for a begin/end
//! pair, [`charge`] and the `flow_*` calls for attribution, and
//! [`with_recorder`] for anything that reads the recorder itself.
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
//! [`enabled`] is a single thread-local `Cell` read: one
//! branch-predictable test, no allocation, no payload construction.
//! [`charge`] and [`flow_tracing`] read the same cell, which also
//! carries the flow gate. `satbench`'s probes time instrumented code
//! with no recorder installed, and `probe.obs.emit_disabled_ns` prices
//! the test alone.
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

pub use chrome::{chrome_trace_json, parse_chrome_trace, ParsedTrace};
pub use event::{
    ChargeCause, DemoteCause, Event, FaultClass, FlushReason, FlushScope, Payload, RegionOpKind,
    SpanUnit, Subsystem, UnshareCause,
};
pub use metrics::{Gauge, Histogram, MetricsRegistry, HISTOGRAM_BUCKETS};
pub use sink::{Recorder, Recording};

use std::cell::{Cell, RefCell};
use std::fmt::Display;

/// What this thread's slot holds, readable without borrowing it.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// No recorder installed.
    Off,
    Recording,
    /// Recording, with cycle charges and flow bindings on.
    Flows,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
    /// Mirror of the slot plus the flow gate: the one cheap read on
    /// the untraced path.
    static MODE: Cell<Mode> = const { Cell::new(Mode::Off) };
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
    MODE.get() != Mode::Off
}

/// Runs `f` on this thread's recorder; `None` (and `f` never runs)
/// when none is installed. Every recording entry point below is this
/// plus one call, so the disabled path is always the single
/// [`enabled`] branch.
#[inline]
pub fn with_recorder<R>(f: impl FnOnce(&mut Recorder) -> R) -> Option<R> {
    if !enabled() {
        return None;
    }
    // Spelled as a `match`: `Option::map` moves a payload-owning
    // closure once more, ~5 ns of the ~28 ns a recorded `emit` costs.
    #[allow(clippy::manual_map)]
    RECORDER.with(|s| match s.borrow_mut().as_mut() {
        Some(recorder) => Some(f(recorder)),
        None => None,
    })
}

/// Installs a fresh [`Recorder`] with `capacity` on this thread,
/// replacing (and discarding) any previous one. It starts with no flow
/// bindings and flow tracing off.
pub fn install(capacity: usize) {
    RECORDER.set(Some(Recorder::new(capacity)));
    MODE.set(Mode::Recording);
}

/// Removes this thread's recorder and returns everything it captured.
/// `None` if nothing was installed. The flow context leaves with it.
pub fn uninstall() -> Option<Recording> {
    MODE.set(Mode::Off);
    RECORDER.take().map(Recorder::finish)
}

/// Records one event on this thread's recorder (no-op when disabled —
/// but prefer gating on [`enabled`] so the payload is never built).
pub fn emit(subsystem: Subsystem, pid: u32, asid: u8, payload: Payload) {
    // Tested before the closure takes ownership of `payload`: left to
    // `with_recorder`, the disabled path pays for moving the payload
    // in and dropping it again (4 ns becomes 11 ns on an ungated site).
    if !enabled() {
        return;
    }
    with_recorder(|r| r.record(pid, asid, subsystem, payload));
}

/// Publishes a gauge's current value on this thread's recorder.
///
/// Gauges are *polled*, not pushed: the layers owning the state
/// (sat-phys, sat-core, sat-sim, sat-sched) expose `publish_gauges`
/// methods that read their existing bookkeeping and call this inside
/// [`sample`]. The hot paths therefore pay nothing for the time-series
/// layer.
pub fn gauge_set(key: &str, value: u64) {
    with_recorder(|r| r.metrics.gauge_set(key, value));
}

/// Cuts one gauge sample: with a recorder installed, runs `publish`
/// (which calls [`gauge_set`]) and then snapshots every gauge of the
/// current window into the ring ([`Recorder::sample_gauges`]). The
/// loop that owns simulated time calls this once per logical step; an
/// untraced run never polls the layers at all.
pub fn sample(publish: impl FnOnce()) {
    if !enabled() {
        return;
    }
    publish();
    with_recorder(Recorder::sample_gauges);
}

/// One begin/end pair on the trace, the protocol `repro check`
/// validates: the end closes the begin with the same name on the same
/// (pid, asid) track, and carries the value the span measured.
/// Opened with no recorder installed, it builds nothing and its close
/// records nothing.
#[must_use = "a span's end is recorded by `close`"]
pub struct Span {
    subsystem: Subsystem,
    pid: u32,
    asid: u8,
    name: Option<String>,
}

impl Span {
    /// Records the begin of span `name`. `asid` is called only when a
    /// recorder is installed, so a lookup behind it costs an untraced
    /// run nothing.
    pub fn open(
        subsystem: Subsystem,
        pid: u32,
        asid: impl FnOnce() -> u8,
        name: impl Display,
    ) -> Span {
        if !enabled() {
            return Span {
                subsystem,
                pid,
                asid: 0,
                name: None,
            };
        }
        let (asid, name) = (asid(), name.to_string());
        let begin = Payload::SpanBegin { name: name.clone() };
        emit(subsystem, pid, asid, begin);
        Span {
            subsystem,
            pid,
            asid,
            name: Some(name),
        }
    }

    /// Records the end, carrying `value` in `unit`: simulated cycles,
    /// or the ticks a bracket encloses.
    pub fn close(self, value: u64, unit: SpanUnit) {
        if let Some(name) = self.name {
            let end = Payload::SpanEnd { name, value, unit };
            emit(self.subsystem, self.pid, self.asid, end);
        }
    }
}

/// Turns cycle-charge attribution on or off for this thread's
/// recorder (a no-op without one). Off — how every recorder starts —
/// [`charge`] and the flow-binding calls record nothing, so workloads
/// that never establish flows pay nothing and emit nothing: per-access
/// `CycleCharge` events would otherwise swamp the ring on every traced
/// experiment.
pub fn set_flow_tracing(on: bool) {
    if enabled() {
        MODE.set(if on { Mode::Flows } else { Mode::Recording });
    }
}

/// Whether cycle-charge attribution is on for this thread (false with
/// no recorder installed).
#[inline]
pub fn flow_tracing() -> bool {
    MODE.get() == Mode::Flows
}

/// Binds request `flow` to `pid` and marks it the active flow on
/// `core`. The per-pid binding survives preemption and core migration:
/// [`flow_note_scheduled`] re-establishes the core slot whenever the
/// pid is switched back in, wherever that happens.
pub fn flow_bind(core: usize, pid: u32, flow: u32) {
    if flow_tracing() {
        with_recorder(|r| r.bind_flow(core, pid, flow));
    }
}

/// Drops `pid`'s flow binding (request complete) and clears any core
/// slot still holding its flow.
pub fn flow_unbind(pid: u32) {
    if flow_tracing() {
        with_recorder(|r| r.unbind_flow(pid));
    }
}

/// Notes that `pid` was switched in on `core`: the core's active flow
/// becomes whatever flow is bound to the pid (0 when none). The
/// machine's context-switch path calls this, so attribution follows a
/// request through preemption and migration with no scheduler help.
pub fn flow_note_scheduled(core: usize, pid: u32) {
    if flow_tracing() {
        with_recorder(|r| r.note_scheduled(core, pid));
    }
}

/// Clears `core`'s active flow without touching the pid binding: the
/// request was preempted and left the core. Cycles the core spends
/// until the next switch-in (driver bookkeeping, fork churn, other
/// requests) are unattributed or theirs — the preempted request's gap
/// is covered by the driver's explicit run-queue-wait charge instead,
/// so nothing is counted twice.
pub fn flow_park(core: usize) {
    if flow_tracing() {
        with_recorder(|r| r.set_core_flow(core, 0));
    }
}

/// Charges `cycles` to the flow active on `core` under `cause`,
/// emitting a [`Payload::CycleCharge`]. Flow 0 (no active request) is
/// recorded too: the unattributed bucket is what lets per-cause global
/// totals reconcile against `TlbStats`/`KernelStats` even on runs with
/// no requests in flight. The untraced path, and a recorder with
/// [`flow_tracing`] off, pay the one [`enabled`]-style cell read.
#[inline]
pub fn charge(core: usize, cause: ChargeCause, cycles: u64) {
    if flow_tracing() && cycles != 0 {
        emit_charge(core, cause, cycles);
    }
}

/// The recording half of [`charge`], out of line so the untraced
/// callers carry only its test.
#[inline(never)]
fn emit_charge(core: usize, cause: ChargeCause, cycles: u64) {
    with_recorder(|r| r.charge(core, cause, cycles));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default_and_emit_is_noop() {
        assert!(!enabled());
        emit(Subsystem::Kernel, 1, 1, Payload::Exit);
        assert!(uninstall().is_none());
        assert!(with_recorder(|r| r.metrics().counters_map().clone()).is_none());
    }

    #[test]
    fn install_emit_uninstall_round_trip() {
        install(8);
        assert!(enabled());
        emit(Subsystem::Kernel, 3, 2, Payload::Exit);
        let snap = with_recorder(|r| r.metrics().counters_map().clone()).unwrap();
        assert_eq!(snap.get("kernel.exit"), Some(&1));
        let rec = uninstall().unwrap();
        assert!(!enabled());
        assert_eq!(rec.events.len(), 1);
        assert_eq!(rec.events[0].pid, 3);
        assert_eq!(rec.metrics.counter("kernel.exit"), 1);
        assert!(uninstall().is_none());
    }

    #[test]
    fn sample_skips_publish_without_a_recorder() {
        let mut published = 0;
        sample(|| published += 1);
        sample(|| published += 1);
        assert_eq!(published, 0);
    }

    #[test]
    fn sample_cuts_one_sample_per_published_gauge_in_key_order() {
        install(64);
        for i in 1..=3u64 {
            sample(|| {
                gauge_set("sim.y", 10 * i);
                gauge_set("sim.x", i);
            });
        }
        let rec = uninstall().unwrap();
        let samples: Vec<(&str, u64)> = rec
            .events
            .iter()
            .filter_map(|e| match &e.payload {
                Payload::Sample { gauge, value } => Some((gauge.as_str(), *value)),
                _ => None,
            })
            .collect();
        assert_eq!(
            samples,
            vec![
                ("sim.x", 1),
                ("sim.y", 10),
                ("sim.x", 2),
                ("sim.y", 20),
                ("sim.x", 3),
                ("sim.y", 30),
            ]
        );
        assert_eq!(rec.events.len(), samples.len());
    }

    #[test]
    fn gauge_free_functions_are_noops_when_disabled() {
        assert!(!enabled());
        gauge_set("x", 1);
        sample(|| gauge_set("x", 2));
        assert!(with_recorder(|r| r.begin_gauge_window()).is_none());
        assert!(with_recorder(|r| r.metrics().window_gauge_high_waters()).is_none());
    }

    #[test]
    fn a_span_without_a_recorder_builds_and_emits_nothing() {
        let mut looked_up = false;
        let span = Span::open(
            Subsystem::Android,
            4,
            || {
                looked_up = true;
                4
            },
            "launch.exec",
        );
        assert!(span.name.is_none(), "no name is built untraced");
        span.close(100, SpanUnit::Cycles);
        assert!(!looked_up, "the asid lookup must stay behind the gate");
        assert!(uninstall().is_none());
    }

    #[test]
    fn a_cycles_span_and_a_ticks_bracket_validate_and_fold() {
        install(64);
        let bracket = Span::open(Subsystem::Bench, 0, || 0, format_args!("exp.{}", "launch"));
        let first = with_recorder(|r| r.tick()).unwrap();
        let phase = Span::open(Subsystem::Android, 0, || 0, "launch.exec");
        phase.close(700, SpanUnit::Cycles);
        let ticks = with_recorder(|r| r.tick()).unwrap() - first;
        bracket.close(ticks, SpanUnit::Ticks);
        let rec = uninstall().unwrap();
        assert_eq!(rec.events.len(), 4);
        analyze::validate_spans(&rec.events).unwrap();
        assert_eq!(
            rec.events[3].payload,
            Payload::SpanEnd {
                name: "exp.launch".to_string(),
                value: 2,
                unit: SpanUnit::Ticks,
            }
        );
        let r = analyze::Rollup::from_events(&rec.events, rec.dropped);
        let folded: Vec<(&str, u64)> = r.folded.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        assert_eq!(folded, [("pid0;android;exp.launch;launch.exec", 700)]);
        assert_eq!(r.spans["bench.exp.launch"].count, 1);
        assert_eq!(r.spans["android.launch.exec"].hist.max, 700);
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

    /// The flow active on `core`, 0 with no recorder installed.
    fn flow_on(core: usize) -> u32 {
        with_recorder(|r| r.active_flow(core)).unwrap_or(0)
    }

    #[test]
    fn flow_binding_follows_pid_through_reschedule() {
        install(64);
        set_flow_tracing(true);
        flow_bind(0, 7, 42);
        assert_eq!(flow_on(0), 42);
        // Preemption: another pid (no flow) takes core 0.
        flow_note_scheduled(0, 9);
        assert_eq!(flow_on(0), 0);
        // The request's pid migrates to core 2: the binding follows.
        flow_note_scheduled(2, 7);
        assert_eq!(flow_on(2), 42);
        charge(2, ChargeCause::TlbStall, 8);
        charge(0, ChargeCause::Ipi, 2000);
        flow_unbind(7);
        assert_eq!(flow_on(2), 0);
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
        assert_eq!(flow_on(0), 0);
        install(8);
        // Sink up, but flow tracing not opted into: still silent.
        charge(0, ChargeCause::Exec, 10);
        flow_bind(0, 1, 5);
        assert_eq!(flow_on(0), 0);
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
        assert_eq!(flow_on(1), 0);
        flow_note_scheduled(1, 3);
        assert_eq!(flow_on(1), 0, "pid binding must not leak across runs");
        uninstall();
    }

    #[test]
    fn a_fresh_install_starts_with_no_bindings_and_the_gate_off() {
        // After an uninstall, and over a live recorder alike.
        for uninstall_first in [true, false] {
            install(8);
            set_flow_tracing(true);
            flow_bind(0, 3, 9);
            assert_eq!(flow_on(0), 9);
            if uninstall_first {
                uninstall();
            }
            install(8);
            assert!(enabled());
            assert!(!flow_tracing(), "a fresh recorder starts with the gate off");
            charge(0, ChargeCause::Exec, 10);
            set_flow_tracing(true);
            assert_eq!(flow_on(0), 0, "no core slot survives the old recorder");
            flow_note_scheduled(0, 3);
            assert_eq!(flow_on(0), 0, "no pid binding survives the old recorder");
            let rec = uninstall().unwrap();
            assert!(rec.events.is_empty());
        }
    }

    #[test]
    fn set_flow_tracing_without_a_recorder_changes_nothing() {
        set_flow_tracing(true);
        assert!(!flow_tracing());
        assert!(!enabled());
    }
}
