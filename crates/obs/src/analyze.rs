//! Trace analytics: stream-processing an event stream into typed
//! rollups.
//!
//! The raw stream (PR 2) records *what happened*; this module answers
//! *questions*: the Figure-6 per-cause unshare breakdown, flush-reason
//! attribution per TLB, per-subsystem/per-pid volume, duration-span
//! latency summaries (p50/p95/max over [`Histogram`]s), and the
//! pairwise shared-footprint matrix of paper §3 — all derived from
//! events alone, so every number in a report can be cross-checked
//! against the mechanism counters (`KernelStats`, `TlbStats`) the
//! conservation tests pin.
//!
//! Input is either an in-memory recording or a Chrome trace re-ingested
//! via [`crate::parse_chrome_trace`]; both paths produce the same
//! [`Rollup`].

use std::collections::{BTreeMap, BTreeSet};

use crate::event::{ChargeCause, Event, Payload, SpanUnit, UnshareCause};
use crate::metrics::{Histogram, MetricsRegistry};

/// Simulated page size (bytes). The simulator targets ARMv7's 4KB
/// pages; region-op events carry raw virtual addresses and page
/// counts, so the analyzer only needs the constant, not the crate.
const PAGE_BYTES: u32 = 4096;

/// How many processes the shared-footprint matrix keeps (the largest
/// footprints win; a full `repro all` trace touches hundreds of pids).
const FOOTPRINT_PIDS: usize = 8;

/// Aggregate over one named duration span (`cat.name`).
#[derive(Clone, Debug)]
pub struct SpanAgg {
    pub count: u64,
    pub unit: SpanUnit,
    /// Span values (cycles or µs) — p50/p95/max come from here.
    pub hist: Histogram,
}

/// Flush volume attributed to one reason.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct FlushAgg {
    pub flushes: u64,
    pub entries: u64,
}

/// Pairwise shared-footprint matrix (paper §3: 38–46% of two apps'
/// address-space footprints overlap). Reconstructed purely from
/// fork/mmap/munmap events: a fork clones the parent's page set, a
/// region op adds or removes pages.
#[derive(Clone, Debug, Default)]
pub struct FootprintMatrix {
    /// The processes kept (largest final footprints, ascending pid).
    pub pids: Vec<u32>,
    /// Final footprint size, in pages, per kept pid.
    pub pages: Vec<u64>,
    /// `shared[i][j]`: pages in both pid `i`'s and pid `j`'s set.
    pub shared: Vec<Vec<u64>>,
}

impl FootprintMatrix {
    /// Overlap percentage between kept pids `i` and `j`, relative to
    /// the smaller footprint (the paper's framing).
    pub fn overlap_pct(&self, i: usize, j: usize) -> f64 {
        let min = self.pages[i].min(self.pages[j]);
        if min == 0 {
            0.0
        } else {
            100.0 * self.shared[i][j] as f64 / min as f64
        }
    }
}

/// Run-wide summary of one gauge's sampled time series.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GaugeSeries {
    /// Number of [`Payload::Sample`] points seen.
    pub samples: u64,
    pub first: u64,
    pub last: u64,
    pub min: u64,
    /// Sampled maximum — the gauge's high-water mark as reconstructed
    /// from the trace alone.
    pub max: u64,
}

impl GaugeSeries {
    fn observe(&mut self, value: u64) {
        if self.samples == 0 {
            self.first = value;
            self.min = value;
        }
        self.samples += 1;
        self.last = value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }
}

/// Everything the analyzer derives from one event stream. Any number
/// the registry already counts is read from [`Rollup::metrics`]; the
/// other fields hold only what a counter cannot express.
#[derive(Clone, Debug, Default)]
pub struct Rollup {
    pub event_count: u64,
    /// Ring-overflow drops reported by the source (the rollup covers
    /// only surviving events; counters in a live snapshot stay exact).
    pub dropped: u64,
    pub subsystems: BTreeMap<&'static str, u64>,
    pub pids: BTreeMap<u32, u64>,
    /// Main-TLB flush volume per attributed reason.
    pub main_flush_reasons: BTreeMap<&'static str, FlushAgg>,
    /// Micro-TLB flush volume per attributed reason.
    pub micro_flush_reasons: BTreeMap<&'static str, FlushAgg>,
    /// Per-gauge time-series summaries (first/last/min/max over the
    /// sampled values, in key order).
    pub gauges: BTreeMap<String, GaugeSeries>,
    /// Duration spans keyed `cat.name`.
    pub spans: BTreeMap<String, SpanAgg>,
    /// Folded stacks (`pid<p>;<cat>;<span>[;<nested>…] value`-ready)
    /// accumulated over span nesting — flamegraph input.
    pub folded: BTreeMap<String, u64>,
    /// The counter/histogram registry replayed from the events (for a
    /// lossless stream this equals the recorder's live registry).
    pub metrics: MetricsRegistry,
    pub footprint: FootprintMatrix,
}

impl Rollup {
    /// Builds the rollup in one pass over the events (plus the
    /// footprint replay).
    pub fn from_events(events: &[Event], dropped: u64) -> Rollup {
        let mut r = Rollup {
            event_count: events.len() as u64,
            dropped,
            ..Rollup::default()
        };
        // Per-(pid, asid) open-span stacks for folded attribution.
        let mut stacks: BTreeMap<(u32, u8), Vec<String>> = BTreeMap::new();
        // Footprint replay state: pid → resident page-number set.
        let mut pages: BTreeMap<u32, BTreeSet<u32>> = BTreeMap::new();

        for event in events {
            *r.subsystems.entry(event.subsystem.as_str()).or_default() += 1;
            *r.pids.entry(event.pid).or_default() += 1;
            r.metrics.apply_event(event.subsystem, &event.payload);
            match &event.payload {
                Payload::Fork { child, .. } => {
                    let inherited = pages.get(&event.pid).cloned().unwrap_or_default();
                    pages.insert(*child, inherited);
                }
                Payload::RegionOp {
                    op, va, pages: n, ..
                } => {
                    let set = pages.entry(event.pid).or_default();
                    let first = va / PAGE_BYTES;
                    match op {
                        crate::RegionOpKind::Mmap => {
                            set.extend(first..first.saturating_add(*n));
                        }
                        crate::RegionOpKind::Munmap => {
                            for p in first..first.saturating_add(*n) {
                                set.remove(&p);
                            }
                        }
                        crate::RegionOpKind::Mprotect => {}
                    }
                }
                Payload::TlbFlush {
                    scope,
                    reason,
                    entries,
                } => {
                    let table = if scope.is_main() {
                        &mut r.main_flush_reasons
                    } else {
                        &mut r.micro_flush_reasons
                    };
                    let agg = table.entry(reason.as_str()).or_default();
                    agg.flushes += 1;
                    agg.entries += entries;
                }
                Payload::Sample { gauge, value } => {
                    r.gauges.entry(gauge.clone()).or_default().observe(*value);
                }
                Payload::SpanBegin { name } => {
                    stacks
                        .entry((event.pid, event.asid))
                        .or_default()
                        .push(name.clone());
                }
                Payload::SpanEnd { name, value, unit } => {
                    let key = format!("{}.{name}", event.subsystem.as_str());
                    let agg = r.spans.entry(key).or_insert_with(|| SpanAgg {
                        count: 0,
                        unit: *unit,
                        hist: Histogram::default(),
                    });
                    agg.count += 1;
                    agg.hist.record(*value);
                    // Folded stack: everything currently open on this
                    // thread, outermost first. A corrupt stream (end
                    // without begin) degrades to a single frame; the
                    // validator reports it separately.
                    let stack = stacks.entry((event.pid, event.asid)).or_default();
                    match stack.last() {
                        Some(top) if top == name => {
                            let path = format!(
                                "pid{};{};{}",
                                event.pid,
                                event.subsystem.as_str(),
                                stack.join(";")
                            );
                            *r.folded.entry(path).or_default() += value;
                            stack.pop();
                        }
                        _ => {
                            let path =
                                format!("pid{};{};{name}", event.pid, event.subsystem.as_str());
                            *r.folded.entry(path).or_default() += value;
                        }
                    }
                }
                _ => {}
            }
        }

        // Keep the largest footprints, ascending pid for stable output.
        let mut by_size: Vec<(u32, u64)> = pages
            .iter()
            .map(|(pid, set)| (*pid, set.len() as u64))
            .filter(|(_, n)| *n > 0)
            .collect();
        by_size.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        by_size.truncate(FOOTPRINT_PIDS);
        by_size.sort_by_key(|(pid, _)| *pid);
        r.footprint.pids = by_size.iter().map(|(pid, _)| *pid).collect();
        r.footprint.pages = by_size.iter().map(|(_, n)| *n).collect();
        r.footprint.shared = r
            .footprint
            .pids
            .iter()
            .map(|a| {
                r.footprint
                    .pids
                    .iter()
                    .map(|b| pages[a].intersection(&pages[b]).count() as u64)
                    .collect()
            })
            .collect();
        r
    }

    /// Figure-6 rows: (cause, unshares, percent of all unshares), in
    /// the paper's cause order, zero-count causes included.
    pub fn fig6_breakdown(&self) -> Vec<(&'static str, u64, f64)> {
        let total = self.metrics.counter("share.unshare");
        UnshareCause::ALL
            .into_iter()
            .map(|cause| {
                let n = self.metrics.counter(cause.counter_key());
                let pct = if total == 0 {
                    0.0
                } else {
                    100.0 * n as f64 / total as f64
                };
                (cause.as_str(), n, pct)
            })
            .collect()
    }
}

/// Hard cap on timeline rows — a guard against a `--window` far
/// smaller than the trace span blowing up memory/output.
pub const TIMELINE_MAX_WINDOWS: u64 = 1 << 16;

/// Default window count when the caller does not pick a width: the
/// span divides into about this many windows.
const TIMELINE_DEFAULT_WINDOWS: u64 = 20;

/// One tick window's event counts (the numerators of the windowed
/// rates `repro timeline` prints).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WindowRow {
    /// First tick covered by this window.
    pub start: u64,
    pub events: u64,
    pub forks: u64,
    pub faults: u64,
    pub unshares: u64,
    /// TLB flush primitive invocations (main + micro).
    pub flushes: u64,
    /// Cross-core shootdown IPIs: `cores_targeted - cores_local`
    /// summed over the window's shootdowns.
    pub flush_ipis: u64,
    pub preemptions: u64,
    /// Pages evicted by reclaim passes in the window.
    pub reclaimed: u64,
    /// Gauge sample points in the window.
    pub samples: u64,
}

impl WindowRow {
    fn add(&mut self, payload: &Payload) {
        self.events += 1;
        match payload {
            Payload::Fork { .. } => self.forks += 1,
            Payload::PageFault { .. } => self.faults += 1,
            Payload::PtpUnshare { .. } => self.unshares += 1,
            Payload::TlbFlush { .. } => self.flushes += 1,
            Payload::TlbShootdown {
                cores_targeted,
                cores_local,
                ..
            } => self.flush_ipis += u64::from(cores_targeted - cores_local),
            Payload::Preempt { .. } => self.preemptions += 1,
            Payload::Reclaim { pages, .. } => self.reclaimed += pages,
            Payload::Sample { .. } => self.samples += 1,
            _ => {}
        }
    }
}

/// The event stream rebucketed into fixed-width tick windows, plus the
/// per-gauge series summaries — everything `repro timeline` renders.
///
/// Windows tile the trace contiguously from the first event's tick to
/// the last's, so a quiet window shows up as a row of zeros instead of
/// silently vanishing (transients are the whole point of a timeline).
#[derive(Clone, Debug, Default)]
pub struct Timeline {
    /// Window width in ticks.
    pub window: u64,
    /// Tick of the first event (windows are offset from here).
    pub start: u64,
    /// Tick of the last event.
    pub end: u64,
    pub rows: Vec<WindowRow>,
    /// Per-gauge series over the whole (possibly filtered) stream.
    pub gauges: BTreeMap<String, GaugeSeries>,
}

impl Timeline {
    /// Buckets `events` into windows of `window` ticks; `window == 0`
    /// picks a width dividing the span into about 20 windows. Errors
    /// when the stream is not in tick order, or when the explicit width
    /// would produce more than [`TIMELINE_MAX_WINDOWS`] rows.
    pub fn from_events(events: &[Event], window: u64) -> Result<Timeline, String> {
        let Some(first) = events.first() else {
            return Ok(Timeline::default());
        };
        // Everything below (the span, the row index) assumes recorder
        // order, so establish it before any arithmetic on the ticks.
        if let Some(w) = events.windows(2).find(|w| w[1].tick < w[0].tick) {
            return Err(format!(
                "event stream is not tick-sorted (tick {} after tick {})",
                w[1].tick, w[0].tick
            ));
        }
        let start = first.tick;
        let end = events.last().map_or(start, |e| e.tick);
        let span = (end - start).saturating_add(1);
        let window = if window == 0 {
            span.div_ceil(TIMELINE_DEFAULT_WINDOWS).max(1)
        } else {
            window
        };
        let count = span.div_ceil(window);
        if count > TIMELINE_MAX_WINDOWS {
            return Err(format!(
                "--window {window} would produce {count} windows over a span of {span} ticks \
                 (max {TIMELINE_MAX_WINDOWS}); pick a wider window"
            ));
        }
        let mut t = Timeline {
            window,
            start,
            end,
            rows: (0..count)
                .map(|i| WindowRow {
                    start: start + i * window,
                    ..WindowRow::default()
                })
                .collect(),
            gauges: BTreeMap::new(),
        };
        for event in events {
            t.rows[((event.tick - start) / window) as usize].add(&event.payload);
            if let Payload::Sample { gauge, value } = &event.payload {
                t.gauges.entry(gauge.clone()).or_default().observe(*value);
            }
        }
        Ok(t)
    }

    /// Sums every window — the reconciliation hook: these totals must
    /// equal the whole-stream [`Rollup`] counts exactly.
    pub fn totals(&self) -> WindowRow {
        let mut total = WindowRow {
            start: self.start,
            ..WindowRow::default()
        };
        for row in &self.rows {
            total.events += row.events;
            total.forks += row.forks;
            total.faults += row.faults;
            total.unshares += row.unshares;
            total.flushes += row.flushes;
            total.flush_ipis += row.flush_ipis;
            total.preemptions += row.preemptions;
            total.reclaimed += row.reclaimed;
            total.samples += row.samples;
        }
        total
    }
}

const CAUSES: usize = ChargeCause::ALL.len();

/// Exact nearest-rank percentile over an ascending-sorted slice.
/// Unlike [`Histogram::percentile`]'s log2-bucket upper bounds, this
/// is exact — tail blame needs the real request, not a bucket edge.
pub fn nearest_rank(sorted: &[u64], p: f64) -> u64 {
    debug_assert!(!sorted.is_empty());
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// One request flow reconstructed from the stream: its lifecycle
/// events plus every cycle charged against it, split by cause.
#[derive(Clone, Debug)]
pub struct FlowRecord {
    pub flow: u32,
    /// The serving pid (stamped on the flow's `FlowBegin`).
    pub pid: u32,
    pub arrived: bool,
    pub began: bool,
    /// Wall ticks (completion − arrival on the serving core's cycle
    /// clock) from the `FlowEnd` event; `None` while in flight.
    pub wall: Option<u64>,
    /// Charged cycles per cause, in [`ChargeCause::ALL`] order.
    by_cause: [u64; CAUSES],
}

impl FlowRecord {
    pub fn cycles(&self, cause: ChargeCause) -> u64 {
        self.by_cause[cause as usize]
    }

    /// Every cycle charged to this flow, all causes.
    pub fn attributed(&self) -> u64 {
        self.by_cause.iter().sum()
    }
}

/// Per-request critical paths rebuilt from `Flow*`/`CycleCharge`
/// events — what `repro tails` renders and the reconciliation
/// invariant is asserted on. Only meaningful on lossless streams: a
/// dropped charge silently shifts blame, which is why `repro check`
/// warns when a trace carries charges *and* drops.
#[derive(Clone, Debug, Default)]
pub struct FlowTable {
    /// Flows seen, ascending id (flow 0 — the unattributed bucket —
    /// is kept out and accumulated separately).
    pub flows: Vec<FlowRecord>,
    /// Cycles charged while no request was active, per cause.
    unattributed: [u64; CAUSES],
    /// `CycleCharge` events consumed.
    pub charges: u64,
}

impl FlowTable {
    pub fn from_events(events: &[Event]) -> FlowTable {
        let mut by_flow: BTreeMap<u32, FlowRecord> = BTreeMap::new();
        let mut t = FlowTable::default();
        fn record(by_flow: &mut BTreeMap<u32, FlowRecord>, flow: u32) -> &mut FlowRecord {
            by_flow.entry(flow).or_insert(FlowRecord {
                flow,
                pid: 0,
                arrived: false,
                began: false,
                wall: None,
                by_cause: [0; CAUSES],
            })
        }
        for event in events {
            match &event.payload {
                Payload::CycleCharge {
                    flow,
                    cause,
                    cycles,
                } => {
                    t.charges += 1;
                    if *flow == 0 {
                        t.unattributed[*cause as usize] += cycles;
                    } else {
                        record(&mut by_flow, *flow).by_cause[*cause as usize] += cycles;
                    }
                }
                Payload::FlowArrive { flow } if *flow != 0 => {
                    record(&mut by_flow, *flow).arrived = true
                }
                Payload::FlowBegin { flow } if *flow != 0 => {
                    let r = record(&mut by_flow, *flow);
                    r.began = true;
                    r.pid = event.pid;
                }
                Payload::FlowEnd { flow, wall } if *flow != 0 => {
                    record(&mut by_flow, *flow).wall = Some(*wall);
                }
                _ => {}
            }
        }
        t.flows = by_flow.into_values().collect();
        t
    }

    /// Cycles charged to no flow under `cause`.
    pub fn unattributed(&self, cause: ChargeCause) -> u64 {
        self.unattributed[cause as usize]
    }

    /// Whole-stream charge volume under `cause` (attributed +
    /// unattributed) — the side that reconciles against
    /// `TlbStats`/`KernelStats`.
    pub fn total(&self, cause: ChargeCause) -> u64 {
        self.unattributed[cause as usize]
            + self
                .flows
                .iter()
                .map(|f| f.by_cause[cause as usize])
                .sum::<u64>()
    }

    /// Completed requests (a `FlowEnd` was seen).
    pub fn completed(&self) -> usize {
        self.flows.iter().filter(|f| f.wall.is_some()).count()
    }

    /// The house invariant, asserted exactly (no tolerance): every
    /// completed request's attributed cycles — execution charges plus
    /// the run-queue wait that fills its preempted gaps — sum to its
    /// measured wall ticks. Returns how many flows reconciled; any
    /// residue on a lossless stream is a missed or double charge site.
    pub fn reconcile(&self) -> Result<u64, String> {
        let mut checked = 0;
        for f in &self.flows {
            let Some(wall) = f.wall else { continue };
            if !f.began {
                return Err(format!("flow {}: ended without beginning", f.flow));
            }
            let attributed = f.attributed();
            if attributed != wall {
                let breakdown: Vec<String> = ChargeCause::ALL
                    .into_iter()
                    .filter(|c| f.cycles(*c) > 0)
                    .map(|c| format!("{}={}", c.as_str(), f.cycles(c)))
                    .collect();
                return Err(format!(
                    "flow {} (pid {}): attributed {} != wall {} (residue {}; {})",
                    f.flow,
                    f.pid,
                    attributed,
                    wall,
                    wall as i64 - attributed as i64,
                    breakdown.join(" ")
                ));
            }
            checked += 1;
        }
        Ok(checked)
    }

    fn sorted_walls(&self) -> Vec<u64> {
        let mut walls: Vec<u64> = self.flows.iter().filter_map(|f| f.wall).collect();
        walls.sort_unstable();
        walls
    }

    /// Exact (p50, p95, p99) request latency, nearest-rank over the
    /// completed requests' walls. `None` when nothing completed.
    pub fn percentiles(&self) -> Option<(u64, u64, u64)> {
        let walls = self.sorted_walls();
        if walls.is_empty() {
            return None;
        }
        Some((
            nearest_rank(&walls, 50.0),
            nearest_rank(&walls, 95.0),
            nearest_rank(&walls, 99.0),
        ))
    }

    /// Exact (p50, p95, p99) of per-request cycles charged under
    /// `cause`, over completed requests — which causes are background
    /// hum versus tail-makers.
    pub fn cause_percentiles(&self, cause: ChargeCause) -> Option<(u64, u64, u64)> {
        let mut v: Vec<u64> = self
            .flows
            .iter()
            .filter(|f| f.wall.is_some())
            .map(|f| f.cycles(cause))
            .collect();
        if v.is_empty() {
            return None;
        }
        v.sort_unstable();
        Some((
            nearest_rank(&v, 50.0),
            nearest_rank(&v, 95.0),
            nearest_rank(&v, 99.0),
        ))
    }

    /// The `k` slowest completed requests, worst first (ties broken by
    /// ascending flow id for stable output).
    pub fn slowest(&self, k: usize) -> Vec<&FlowRecord> {
        let mut done: Vec<&FlowRecord> = self.flows.iter().filter(|f| f.wall.is_some()).collect();
        done.sort_by(|a, b| b.wall.cmp(&a.wall).then(a.flow.cmp(&b.flow)));
        done.truncate(k);
        done
    }
}

/// Slices an `all`-style trace down to one experiment's events, using
/// the `exp.<name>` bench span brackets `repro` emits around each
/// experiment. Experiments run sequentially on the recorder's global
/// tick sequence, so the bracket's tick range is exactly the
/// experiment's events. A bracket whose end was dropped by ring
/// overflow keeps everything from its begin onward.
pub fn filter_experiment(events: &[Event], name: &str) -> Result<Vec<Event>, String> {
    let span = format!("exp.{name}");
    let mut available: BTreeSet<&str> = BTreeSet::new();
    let mut begin: Option<u64> = None;
    let mut end: Option<u64> = None;
    for event in events {
        match &event.payload {
            Payload::SpanBegin { name: n } => {
                if let Some(exp) = n.strip_prefix("exp.") {
                    available.insert(exp);
                    if begin.is_none() && *n == span {
                        begin = Some(event.tick);
                    }
                }
            }
            Payload::SpanEnd { name: n, .. } if end.is_none() && begin.is_some() && *n == span => {
                end = Some(event.tick);
            }
            _ => {}
        }
    }
    let Some(b) = begin else {
        let known: Vec<&str> = available.into_iter().collect();
        return Err(if known.is_empty() {
            format!("experiment \"{name}\": trace carries no exp.* brackets (re-record it)")
        } else {
            format!(
                "experiment \"{name}\" not in trace; traced experiments: {}",
                known.join(", ")
            )
        });
    };
    let e = end.unwrap_or(u64::MAX);
    Ok(events
        .iter()
        .filter(|ev| ev.tick >= b && ev.tick <= e)
        .cloned()
        .collect())
}

/// Validates stream invariants the recorder guarantees: per-(pid,
/// asid) tick monotonicity (via [`validate_ticks`]), strict begin/end
/// pairing of duration spans (via [`validate_spans`]), and
/// well-formed gauge samples (via [`validate_samples`]). `repro
/// check` runs this over re-ingested traces; a corrupted or
/// hand-edited file fails loudly. Only valid for lossless streams —
/// when the ring dropped events, span begins may be missing from the
/// front, so callers must fall back to [`validate_ticks`] plus
/// [`validate_samples`] (both survive overflow).
pub fn validate_events(events: &[Event]) -> Result<(), String> {
    validate_ticks(events)?;
    validate_spans(events)?;
    validate_samples(events)
}

/// Gauge-sample well-formedness: every sample names a non-empty
/// gauge, and each gauge's sample ticks are strictly increasing.
/// Like tick monotonicity, this survives ring overflow (dropping a
/// prefix of a monotone series keeps it monotone).
pub fn validate_samples(events: &[Event]) -> Result<(), String> {
    let mut last_tick: BTreeMap<&str, u64> = BTreeMap::new();
    for (i, event) in events.iter().enumerate() {
        let Payload::Sample { gauge, .. } = &event.payload else {
            continue;
        };
        if gauge.is_empty() {
            return Err(format!("event {i}: sample with an empty gauge name"));
        }
        if let Some(&prev) = last_tick.get(gauge.as_str()) {
            if event.tick <= prev {
                return Err(format!(
                    "event {i}: sample tick {} not monotonic for gauge \"{gauge}\" (previous {prev})",
                    event.tick
                ));
            }
        }
        last_tick.insert(gauge, event.tick);
    }
    Ok(())
}

/// Per-(pid, asid) tick monotonicity: ticks are a recorder-global
/// sequence, so every thread's subsequence is strictly increasing.
/// This invariant survives ring overflow (dropping a prefix keeps
/// every subsequence increasing).
pub fn validate_ticks(events: &[Event]) -> Result<(), String> {
    let mut last_tick: BTreeMap<(u32, u8), u64> = BTreeMap::new();
    for (i, event) in events.iter().enumerate() {
        let thread = (event.pid, event.asid);
        if let Some(&prev) = last_tick.get(&thread) {
            if event.tick <= prev {
                return Err(format!(
                    "event {i}: tick {} not monotonic for pid {} asid {} (previous {})",
                    event.tick, event.pid, event.asid, prev
                ));
            }
        }
        last_tick.insert(thread, event.tick);
    }
    Ok(())
}

/// Strict span pairing: every `SpanEnd` closes the innermost open
/// `SpanBegin` with the same name on its thread, and nothing stays
/// open at the end of the stream.
pub fn validate_spans(events: &[Event]) -> Result<(), String> {
    let mut stacks: BTreeMap<(u32, u8), Vec<(String, u64)>> = BTreeMap::new();
    for (i, event) in events.iter().enumerate() {
        let thread = (event.pid, event.asid);
        match &event.payload {
            Payload::SpanBegin { name } => {
                stacks
                    .entry(thread)
                    .or_default()
                    .push((name.clone(), event.tick));
            }
            Payload::SpanEnd { name, .. } => match stacks.entry(thread).or_default().pop() {
                Some((open, _)) if &open == name => {}
                Some((open, tick)) => {
                    return Err(format!(
                        "event {i}: span end \"{name}\" closes \"{open}\" (opened at tick {tick}) \
                         on pid {} asid {}",
                        event.pid, event.asid
                    ));
                }
                None => {
                    return Err(format!(
                        "event {i}: span end \"{name}\" without a begin on pid {} asid {}",
                        event.pid, event.asid
                    ));
                }
            },
            _ => {}
        }
    }
    for ((pid, asid), stack) in &stacks {
        if let Some((name, tick)) = stack.last() {
            return Err(format!(
                "span \"{name}\" (opened at tick {tick}) never ends on pid {pid} asid {asid}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{RegionOpKind, Subsystem};

    fn ev(tick: u64, pid: u32, asid: u8, subsystem: Subsystem, payload: Payload) -> Event {
        Event {
            tick,
            pid,
            asid,
            subsystem,
            payload,
        }
    }

    fn begin(tick: u64, pid: u32, name: &str) -> Event {
        ev(
            tick,
            pid,
            pid as u8,
            Subsystem::Android,
            Payload::SpanBegin {
                name: name.to_string(),
            },
        )
    }

    fn end(tick: u64, pid: u32, name: &str, value: u64) -> Event {
        ev(
            tick,
            pid,
            pid as u8,
            Subsystem::Android,
            Payload::SpanEnd {
                name: name.to_string(),
                value,
                unit: SpanUnit::Cycles,
            },
        )
    }

    #[test]
    fn validate_accepts_well_formed_nesting() {
        let events = vec![
            begin(0, 1, "outer"),
            begin(1, 1, "inner"),
            end(2, 1, "inner", 5),
            begin(3, 2, "other-thread"),
            end(4, 1, "outer", 9),
            end(5, 2, "other-thread", 1),
        ];
        assert!(validate_events(&events).is_ok());
    }

    #[test]
    fn validate_rejects_non_monotonic_ticks() {
        let events = vec![begin(5, 1, "a"), end(5, 1, "a", 1)];
        let err = validate_events(&events).unwrap_err();
        assert!(err.contains("not monotonic"), "{err}");
    }

    #[test]
    fn validate_rejects_unmatched_span_end() {
        let err = validate_events(&[end(0, 1, "ghost", 3)]).unwrap_err();
        assert!(err.contains("without a begin"), "{err}");
    }

    #[test]
    fn validate_rejects_cross_matched_spans() {
        let events = vec![begin(0, 1, "a"), end(1, 1, "b", 2)];
        let err = validate_events(&events).unwrap_err();
        assert!(err.contains("closes"), "{err}");
    }

    #[test]
    fn validate_rejects_dangling_begin() {
        let err = validate_events(&[begin(0, 1, "open")]).unwrap_err();
        assert!(err.contains("never ends"), "{err}");
    }

    #[test]
    fn rollup_aggregates_spans_and_folded_stacks() {
        let events = vec![
            begin(0, 1, "launch"),
            begin(1, 1, "launch.exec"),
            end(2, 1, "launch.exec", 100),
            end(3, 1, "launch", 900),
            begin(4, 1, "launch"),
            end(5, 1, "launch", 1100),
        ];
        let r = Rollup::from_events(&events, 0);
        let launch = &r.spans["android.launch"];
        assert_eq!(launch.count, 2);
        assert_eq!(launch.hist.min, 900);
        assert_eq!(launch.hist.max, 1100);
        assert_eq!(r.folded["pid1;android;launch"], 2000);
        assert_eq!(r.folded["pid1;android;launch;launch.exec"], 100);
    }

    #[test]
    fn rollup_reconstructs_footprint_overlap_from_events() {
        let mmap = |tick, pid, va, n| {
            ev(
                tick,
                pid,
                pid as u8,
                Subsystem::Kernel,
                Payload::RegionOp {
                    op: RegionOpKind::Mmap,
                    va,
                    pages: n,
                    unshared: 0,
                },
            )
        };
        let events = vec![
            // Zygote (pid 1) maps 8 pages, then forks two children.
            mmap(0, 1, 0x1000, 8),
            ev(
                1,
                1,
                1,
                Subsystem::Kernel,
                Payload::Fork {
                    child: 2,
                    ptps_shared: 1,
                    ptes_copied: 0,
                    shared: true,
                },
            ),
            ev(
                2,
                1,
                1,
                Subsystem::Kernel,
                Payload::Fork {
                    child: 3,
                    ptps_shared: 1,
                    ptes_copied: 0,
                    shared: true,
                },
            ),
            // Child 2 maps 4 private pages; child 3 unmaps half the
            // inherited range.
            mmap(3, 2, 0x10_0000, 4),
            ev(
                4,
                3,
                3,
                Subsystem::Kernel,
                Payload::RegionOp {
                    op: RegionOpKind::Munmap,
                    va: 0x1000,
                    pages: 4,
                    unshared: 0,
                },
            ),
        ];
        let r = Rollup::from_events(&events, 0);
        let idx = |pid: u32| r.footprint.pids.iter().position(|p| *p == pid).unwrap();
        let (z, a, b) = (idx(1), idx(2), idx(3));
        assert_eq!(r.footprint.pages[z], 8);
        assert_eq!(r.footprint.pages[a], 12);
        assert_eq!(r.footprint.pages[b], 4);
        // Child 2 still shares all 8 inherited pages with the zygote;
        // child 3 kept 4 of them.
        assert_eq!(r.footprint.shared[z][a], 8);
        assert_eq!(r.footprint.shared[z][b], 4);
        assert_eq!(r.footprint.shared[a][b], 4);
        assert!((r.footprint.overlap_pct(z, a) - 100.0).abs() < 1e-9);
        assert!((r.footprint.overlap_pct(a, b) - 100.0).abs() < 1e-9);
    }

    fn sample(tick: u64, gauge: &str, value: u64) -> Event {
        ev(
            tick,
            0,
            0,
            Subsystem::Sim,
            Payload::Sample {
                gauge: gauge.to_string(),
                value,
            },
        )
    }

    fn fault(tick: u64, pid: u32) -> Event {
        ev(
            tick,
            pid,
            pid as u8,
            Subsystem::VmFault,
            Payload::PageFault {
                class: crate::FaultClass::Minor,
                va: 0x1000,
                file_backed: false,
            },
        )
    }

    #[test]
    fn rollup_summarizes_gauge_series() {
        let events = vec![
            sample(0, "phys.frames.free", 100),
            sample(1, "phys.frames.free", 40),
            sample(2, "phys.frames.free", 70),
        ];
        let r = Rollup::from_events(&events, 0);
        let s = r.gauges["phys.frames.free"];
        assert_eq!(s.samples, 3);
        assert_eq!((s.first, s.last, s.min, s.max), (100, 70, 40, 100));
        // The replayed registry carries the same high-water mark.
        assert_eq!(r.metrics.gauge("phys.frames.free").unwrap().high_water, 100);
    }

    #[test]
    fn timeline_windows_tile_the_span_and_totals_reconcile() {
        let events = vec![
            fault(0, 1),
            fault(1, 1),
            sample(2, "sched.runq.c0", 2),
            // Ticks 10..19 are a quiet window: an explicit zero row.
            fault(25, 2),
            ev(
                29,
                2,
                2,
                Subsystem::Sched,
                Payload::TlbShootdown {
                    asid: 2,
                    scope: crate::FlushScope::Asid,
                    cores_targeted: 3,
                    cores_local: 1,
                    cores_skipped: 1,
                },
            ),
        ];
        let t = Timeline::from_events(&events, 10).unwrap();
        assert_eq!(t.window, 10);
        assert_eq!(t.rows.len(), 3);
        assert_eq!(t.rows[0].start, 0);
        assert_eq!(t.rows[0].faults, 2);
        assert_eq!(t.rows[0].samples, 1);
        assert_eq!(
            t.rows[1],
            WindowRow {
                start: 10,
                ..WindowRow::default()
            }
        );
        assert_eq!(t.rows[2].faults, 1);
        assert_eq!(t.rows[2].flush_ipis, 2);
        let totals = t.totals();
        let r = Rollup::from_events(&events, 0);
        assert_eq!(totals.faults, r.metrics.counter("vm.fault"));
        assert_eq!(totals.events, r.event_count);
        assert_eq!(
            totals.flush_ipis,
            r.metrics.counter("tlb.shootdown.cores") - r.metrics.counter("tlb.shootdown.local")
        );
        assert_eq!(t.gauges["sched.runq.c0"].max, 2);
    }

    #[test]
    fn timeline_auto_window_and_row_cap() {
        let events: Vec<Event> = (0..100).map(|i| fault(i, 1)).collect();
        let t = Timeline::from_events(&events, 0).unwrap();
        assert_eq!(t.window, 5); // span 100 / 20 default windows
        assert_eq!(t.rows.len(), 20);
        // An explicit window smaller than span/cap errors out.
        let wide: Vec<Event> = vec![fault(0, 1), fault(TIMELINE_MAX_WINDOWS * 2, 1)];
        let err = Timeline::from_events(&wide, 1).unwrap_err();
        assert!(err.contains("pick a wider window"), "{err}");
        // Empty stream: an empty timeline, not an error.
        assert!(Timeline::from_events(&[], 0).unwrap().rows.is_empty());
    }

    #[test]
    fn timeline_rejects_an_unsorted_stream_before_measuring_its_span() {
        // Last tick below the first: `end - start` must never be
        // computed (it underflows), whatever the window.
        let events = vec![fault(10, 1), fault(3, 1)];
        for window in [0, 1, 5] {
            let err = Timeline::from_events(&events, window).unwrap_err();
            assert_eq!(
                err,
                "event stream is not tick-sorted (tick 3 after tick 10)"
            );
        }
        // A dip in the middle is out of order too, even though the
        // endpoints look sane.
        let events = vec![fault(0, 1), fault(9, 1), fault(4, 1), fault(12, 1)];
        let err = Timeline::from_events(&events, 0).unwrap_err();
        assert!(err.contains("tick 4 after tick 9"), "{err}");
    }

    #[test]
    fn validate_samples_rejects_empty_names_and_rewinds() {
        let ok = vec![sample(0, "a", 1), sample(1, "b", 5), sample(2, "a", 2)];
        assert!(validate_samples(&ok).is_ok());
        let empty = vec![sample(0, "", 1)];
        let err = validate_samples(&empty).unwrap_err();
        assert!(err.contains("empty gauge name"), "{err}");
        // Same tick twice for one gauge is a rewind.
        let rewind = vec![sample(5, "a", 1), sample(5, "a", 2)];
        let err = validate_samples(&rewind).unwrap_err();
        assert!(err.contains("not monotonic"), "{err}");
        // Interleaved gauges at increasing ticks stay valid even when
        // another gauge's tick sits between them.
        assert!(validate_events(&ok).is_ok());
    }

    #[test]
    fn filter_experiment_slices_by_bracket_tick_range() {
        let bracket_begin = |tick, name: &str| {
            ev(
                tick,
                0,
                0,
                Subsystem::Bench,
                Payload::SpanBegin {
                    name: name.to_string(),
                },
            )
        };
        let bracket_end = |tick, name: &str| {
            ev(
                tick,
                0,
                0,
                Subsystem::Bench,
                Payload::SpanEnd {
                    name: name.to_string(),
                    value: 1,
                    unit: SpanUnit::Micros,
                },
            )
        };
        let events = vec![
            bracket_begin(0, "exp.launch"),
            fault(1, 1),
            bracket_end(2, "exp.launch"),
            bracket_begin(3, "exp.steady"),
            fault(4, 2),
            fault(5, 2),
            bracket_end(6, "exp.steady"),
        ];
        let steady = filter_experiment(&events, "steady").unwrap();
        assert_eq!(steady.len(), 4);
        assert!(steady.iter().all(|e| e.tick >= 3 && e.tick <= 6));
        let r = Rollup::from_events(&steady, 0);
        assert_eq!(r.metrics.counter("vm.fault"), 2);
        // Unknown name: the error lists what the trace does carry.
        let err = filter_experiment(&events, "nope").unwrap_err();
        assert!(err.contains("launch, steady"), "{err}");
        let err = filter_experiment(&[fault(0, 1)], "launch").unwrap_err();
        assert!(err.contains("no exp.* brackets"), "{err}");
    }

    fn charge(tick: u64, flow: u32, cause: ChargeCause, cycles: u64) -> Event {
        ev(
            tick,
            0,
            0,
            Subsystem::Sim,
            Payload::CycleCharge {
                flow,
                cause,
                cycles,
            },
        )
    }

    fn flow_end(tick: u64, pid: u32, flow: u32, wall: u64) -> Event {
        ev(
            tick,
            pid,
            pid as u8,
            Subsystem::Sched,
            Payload::FlowEnd { flow, wall },
        )
    }

    #[test]
    fn flow_table_reconciles_exact_walls_and_splits_unattributed() {
        let events = vec![
            ev(0, 5, 5, Subsystem::Sched, Payload::FlowArrive { flow: 1 }),
            ev(1, 5, 5, Subsystem::Sched, Payload::FlowBegin { flow: 1 }),
            charge(2, 1, ChargeCause::RunqWait, 100),
            charge(3, 1, ChargeCause::Exec, 50),
            charge(4, 0, ChargeCause::Ipi, 2000), // idle-core IPI: nobody's fault
            charge(5, 1, ChargeCause::TlbStall, 10),
            flow_end(6, 5, 1, 160),
        ];
        let t = FlowTable::from_events(&events);
        assert_eq!(t.flows.len(), 1);
        assert_eq!(t.completed(), 1);
        assert_eq!(t.reconcile(), Ok(1));
        let f = &t.flows[0];
        assert_eq!((f.flow, f.pid, f.wall), (1, 5, Some(160)));
        assert_eq!(f.cycles(ChargeCause::RunqWait), 100);
        assert_eq!(f.attributed(), 160);
        assert_eq!(t.unattributed(ChargeCause::Ipi), 2000);
        assert_eq!(t.total(ChargeCause::Ipi), 2000);
        assert_eq!(t.total(ChargeCause::Exec), 50);
        // The rollup's replayed registry sees the same per-cause volume.
        let r = Rollup::from_events(&events, 0);
        assert_eq!(r.metrics.counter("flow.cycles.ipi"), 2000);
        assert_eq!(r.metrics.counter("flow.charges"), 4);
        for lifecycle in ["flow.arrive", "flow.begin", "flow.end"] {
            assert_eq!(r.metrics.counter(lifecycle), 1, "{lifecycle}");
        }
        assert_eq!(r.metrics.counter("flow.cycles.exec"), 50);
        assert_eq!(r.metrics.counter("flow.cycles.unattributed"), 2000);
    }

    #[test]
    fn flow_table_reports_residue_with_breakdown() {
        let events = vec![
            ev(0, 7, 7, Subsystem::Sched, Payload::FlowBegin { flow: 2 }),
            charge(1, 2, ChargeCause::Exec, 30),
            flow_end(2, 7, 2, 40),
        ];
        let err = FlowTable::from_events(&events).reconcile().unwrap_err();
        assert!(err.contains("attributed 30 != wall 40"), "{err}");
        assert!(err.contains("residue 10"), "{err}");
        assert!(err.contains("exec=30"), "{err}");
    }

    #[test]
    fn flow_table_percentiles_are_exact_and_slowest_ranks_worst_first() {
        let mut events = Vec::new();
        for i in 1..=100u32 {
            events.push(ev(
                u64::from(i) * 3,
                i,
                i as u8,
                Subsystem::Sched,
                Payload::FlowBegin { flow: i },
            ));
            events.push(charge(
                u64::from(i) * 3 + 1,
                i,
                ChargeCause::Exec,
                u64::from(i),
            ));
            events.push(flow_end(u64::from(i) * 3 + 2, i, i, u64::from(i)));
        }
        let t = FlowTable::from_events(&events);
        assert_eq!(t.reconcile(), Ok(100));
        // Nearest-rank over 1..=100 is exact, not a bucket bound.
        assert_eq!(t.percentiles(), Some((50, 95, 99)));
        assert_eq!(t.cause_percentiles(ChargeCause::Exec), Some((50, 95, 99)));
        assert_eq!(t.cause_percentiles(ChargeCause::Fault), Some((0, 0, 0)));
        let top: Vec<u32> = t.slowest(3).iter().map(|f| f.flow).collect();
        assert_eq!(top, vec![100, 99, 98]);
        // An empty table has no percentiles.
        assert_eq!(FlowTable::default().percentiles(), None);
    }

    #[test]
    fn fig6_breakdown_orders_causes_and_computes_percentages() {
        let unshare = |tick, cause| {
            ev(
                tick,
                1,
                1,
                Subsystem::Share,
                Payload::PtpUnshare {
                    cause,
                    ptes_copied: 1,
                    last_sharer: false,
                    va: 0,
                },
            )
        };
        let events = vec![
            unshare(0, UnshareCause::WriteFault),
            unshare(1, UnshareCause::WriteFault),
            unshare(2, UnshareCause::WriteFault),
            unshare(3, UnshareCause::NewRegion),
        ];
        let r = Rollup::from_events(&events, 0);
        let rows = r.fig6_breakdown();
        assert_eq!(rows[0], ("write_fault", 3, 75.0));
        assert_eq!(rows[1], ("new_region", 1, 25.0));
        assert_eq!(rows[2].1, 0);
        // The replayed registry matches the event-derived table.
        assert_eq!(r.metrics.counter("share.unshare.write_fault"), 3);
        assert_eq!(r.metrics.counter("share.unshare"), 4);
    }
}
