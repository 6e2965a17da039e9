//! The `BENCH_repro.json` snapshot: schema, validation (`repro
//! check`), and metric-by-metric comparison (`repro diff`).
//!
//! A snapshot is a list of records, one per timed experiment, plus one
//! run-wide record. Every record has the same shape: a `params` object
//! (what the numbers were measured *under* — a frame budget, the run's
//! scale) and one flat `metrics` map (what was measured — `wall_ms`,
//! `latency.p99`, `reclaim.pages`, `translation.waste_frames`,
//! `gauge.<name>`, `counter.<name>`, ...).
//! Two records are comparable when their params are equal; comparable
//! records are compared key by key, under the floors in `RULES`. A
//! new metric family is one map insert where it is measured and, if it
//! wants a noise floor, one `RULES` row — never a schema bump.
//!
//! `repro diff old.json new.json` is the regression gate for
//! *simulated* behaviour: the verify smoke compares a fresh `repro all
//! --quick` snapshot against the committed `BENCH_baseline.json` and
//! fails loudly when a metric grows past the threshold. Every gated
//! metric is a function of its experiment and scale, so *any* growth
//! there means the simulator started doing more work — that is either
//! a bug or an intentional change that must refresh the baseline.
//! `wall_ms` is host time: the snapshot records
//! it and the diff reports its movement as a note, but it never
//! decides the verdict — host-time claims go through `satbench
//! compare` (`benchmark/`) and its pairs rule.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use sat_obs::json::Json;

/// The one snapshot schema this build writes and reads. Only the
/// committed baseline is ever read back, so there is no compatibility
/// code: an older file is refreshed, not parsed.
pub const SCHEMA: &str = "sat-bench/repro-v8";

/// Label of the run-wide record in diff output (`total.wall_ms`,
/// `total.counter.tlb.flush`).
const RUN: &str = "total";

/// The gate rules: a metric whose key starts with the prefix never
/// gates while both snapshots are below the floor (first match wins;
/// a metric no row matches gates at any magnitude).
const RULES: [(&str, f64); 5] = [
    // A handful of events swinging 25% is noise, not a signal.
    ("counter.", 100.0),
    // A tiny occupancy doubling is noise, a big one is a leak.
    ("gauge.", 64.0),
    // Simulated cycles: a sub-floor percentile moving is a few kernel
    // lines, not a tail regression.
    ("latency.", 10_000.0),
    // A budgeted cell evicting a handful more pages is quantisation.
    ("reclaim.", 50.0),
    // Deliberately low: even the quick reach grid promotes ~96 groups,
    // and a silent halving of promotions or doubling of waste is
    // exactly what this family exists to catch.
    ("translation.", 8.0),
];

/// The one host-time metric: wall clock swings with the machine, not
/// with the program, so its movement is reported and never judged.
const HOST_TIME: &str = "wall_ms";

fn floor_of(key: &str) -> f64 {
    RULES
        .iter()
        .find(|(prefix, _)| key.starts_with(prefix))
        .map_or(0.0, |&(_, floor)| floor)
}

/// One parsed record: an experiment, or the run as a whole.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Record {
    /// What the metrics were measured under. Records with different
    /// params are not comparable.
    pub params: BTreeMap<String, String>,
    pub metrics: BTreeMap<String, f64>,
}

/// A parsed snapshot.
#[derive(Clone, Debug)]
pub struct Snapshot {
    pub experiments: BTreeMap<String, Record>,
    /// The run-wide record: params `command`/`scale`/`traced`,
    /// metrics `wall_ms` (the total) and one `counter.<name>` per event
    /// counter of a traced run.
    pub run: Record,
}

impl Snapshot {
    /// Reads and parses the snapshot file at `path`.
    pub fn load(path: &str) -> Result<Snapshot, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        Snapshot::parse(&text, path)
    }

    /// Parses a snapshot document of the current schema.
    pub fn parse(text: &str, label: &str) -> Result<Snapshot, String> {
        let doc = Json::parse(text).map_err(|e| format!("{label}: {e}"))?;
        let field = |key: &str| {
            doc.get(key)
                .ok_or_else(|| format!("{label}: missing \"{key}\""))
        };
        let schema = field("schema")?.as_str().unwrap_or("?");
        if schema != SCHEMA {
            return Err(format!(
                "{label}: schema \"{schema}\" (this build reads only \"{SCHEMA}\"; refresh the \
                 file with: repro all --quick --trace <trace.json> --out {label})"
            ));
        }
        // One loop reads every number there is: a record's metrics and
        // the run's counters are the same kind of map.
        let numbers = |map: Option<&Json>, prefix: &str| -> BTreeMap<String, f64> {
            let mut out = BTreeMap::new();
            for (key, v) in map.and_then(Json::as_object).into_iter().flatten() {
                if let Some(n) = v.as_f64() {
                    out.insert(format!("{prefix}{key}"), n);
                }
            }
            out
        };
        let text_of = |v: &Json| match v {
            Json::Str(s) => s.clone(),
            Json::Num(n) => n.to_string(),
            other => format!("{other:?}"),
        };
        // What every number of the run was measured under: workload
        // sizes follow the scale, so it goes into each record's params
        // and decides its comparability. (The command does not:
        // `table4` is the same experiment under `all` and on its own.)
        let scale = ("scale".to_string(), text_of(field("scale")?));
        let mut experiments = BTreeMap::new();
        for exp in field("experiments")?
            .as_array()
            .ok_or_else(|| format!("{label}: \"experiments\" is not an array"))?
        {
            let name = exp
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{label}: experiment without \"name\""))?;
            let params = exp.get("params").and_then(Json::as_object);
            experiments.insert(
                name.to_string(),
                Record {
                    params: params
                        .into_iter()
                        .flatten()
                        .map(|(k, v)| (k.clone(), text_of(v)))
                        .chain([scale.clone()])
                        .collect(),
                    metrics: numbers(exp.get("metrics"), ""),
                },
            );
        }
        let obs = field("obs")?;
        let traced = obs.get("enabled").and_then(Json::as_bool).unwrap_or(false);
        let mut run = Record {
            params: BTreeMap::from([scale]),
            metrics: numbers(obs.get("counters"), "counter."),
        };
        run.params.insert("traced".to_string(), traced.to_string());
        run.params
            .insert("command".to_string(), text_of(field("command")?));
        run.metrics.insert(
            "wall_ms".to_string(),
            field("total_wall_ms")?.as_f64().unwrap_or(0.0),
        );
        Ok(Snapshot { experiments, run })
    }

    fn param(&self, key: &str) -> &str {
        self.run.params.get(key).map_or("?", String::as_str)
    }

    /// The `repro` verb that produced the snapshot.
    pub fn command(&self) -> &str {
        self.param("command")
    }

    /// Whether a recorder was installed for the run.
    pub fn traced(&self) -> bool {
        self.param("traced") == "true"
    }
}

/// One line of the diff, classified.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DiffClass {
    /// Fails the gate.
    Regression,
    /// Informational: the new snapshot got faster / smaller.
    Improvement,
    /// Informational: structure changed without regressing.
    Note,
}

/// The rendered comparison of two snapshots.
#[derive(Clone, Debug, Default)]
pub struct DiffReport {
    pub lines: Vec<(DiffClass, String)>,
    /// Metrics found on both sides of a comparable record pair,
    /// whatever the outcome (`wall_ms` included: compared and
    /// reported, never judged). Zero when every record was skipped.
    pub compared: usize,
}

impl DiffReport {
    pub fn regressions(&self) -> usize {
        self.lines
            .iter()
            .filter(|(c, _)| *c == DiffClass::Regression)
            .count()
    }

    /// Human-readable summary; one line per finding, stable order.
    pub fn render(&self, threshold_pct: f64) -> String {
        let mut out = String::new();
        for (class, line) in &self.lines {
            let tag = match class {
                DiffClass::Regression => "REGRESSION",
                DiffClass::Improvement => "improvement",
                DiffClass::Note => "note",
            };
            let _ = writeln!(out, "{tag:<12} {line}");
        }
        let _ = writeln!(
            out,
            "repro diff: {} metrics compared, {} regression(s) at +{threshold_pct}% threshold",
            self.compared,
            self.regressions()
        );
        out
    }
}

fn pct_change(old: f64, new: f64) -> f64 {
    if old == 0.0 {
        if new == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        100.0 * (new - old) / old
    }
}

/// Compares two snapshots record by record, metric by metric.
///
/// An experiment that vanished between runs of the *same* command and
/// scale is a regression (when either differs the experiment lists are
/// expected to differ, so it is informational). Records whose params
/// differ — another frame budget or scale; for the run-wide record
/// also another command, or traced vs untraced — are noted and not
/// compared. Within comparable records one rule covers
/// every simulated metric, the run-wide counters included: growth
/// beyond `threshold_pct` is a regression, shrinkage an improvement,
/// unless both sides sit below the family's floor in `RULES`, where
/// growth is only noted. `wall_ms` moving beyond the threshold, either
/// way, is a note marked as host time. A metric the new record lost is
/// a note, never silent.
pub fn diff(old: &Snapshot, new: &Snapshot, threshold_pct: f64) -> DiffReport {
    let mut report = DiffReport::default();
    let mut emit = |class, line: String| report.lines.push((class, line));

    let same_list = ["command", "scale"]
        .iter()
        .all(|key| old.param(key) == new.param(key));
    let mut pairs: Vec<(&str, &Record, &Record)> = Vec::new();
    for (name, old_rec) in &old.experiments {
        match new.experiments.get(name) {
            Some(new_rec) => pairs.push((name, old_rec, new_rec)),
            None if same_list => emit(
                DiffClass::Regression,
                format!("experiment \"{name}\" missing from the new snapshot"),
            ),
            None => emit(
                DiffClass::Note,
                format!(
                    "experiment \"{name}\" not in the new snapshot (different command or scale)"
                ),
            ),
        }
    }
    for name in new.experiments.keys() {
        if !old.experiments.contains_key(name) {
            emit(
                DiffClass::Note,
                format!("new experiment \"{name}\" (not in the baseline)"),
            );
        }
    }
    pairs.push((RUN, &old.run, &new.run));

    let mut compared = 0;
    for (name, old_rec, new_rec) in pairs {
        if old_rec.params != new_rec.params {
            emit(
                DiffClass::Note,
                format!(
                    "{name}.params: {:?} -> {:?} (params changed; metrics not compared)",
                    old_rec.params, new_rec.params
                ),
            );
            continue;
        }
        for (key, &old_v) in &old_rec.metrics {
            let Some(&new_v) = new_rec.metrics.get(key) else {
                emit(
                    DiffClass::Note,
                    format!("{name}.{key}: {old_v} -> missing from the new snapshot"),
                );
                continue;
            };
            compared += 1;
            let change = pct_change(old_v, new_v);
            let line = format!("{name}.{key}: {old_v} -> {new_v} ({change:+.1}%)");
            if key == HOST_TIME {
                if change.abs() > threshold_pct {
                    emit(
                        DiffClass::Note,
                        format!("{line} — host time, reported not judged"),
                    );
                }
                continue;
            }
            let floor = floor_of(key);
            let gates = old_v.max(new_v) >= floor;
            if change > threshold_pct && gates {
                emit(DiffClass::Regression, line);
            } else if change > threshold_pct {
                emit(DiffClass::Note, format!("{line} — below the {floor} floor"));
            } else if change < -threshold_pct && gates {
                emit(DiffClass::Improvement, line);
            }
        }
        for (key, &new_v) in &new_rec.metrics {
            if !old_rec.metrics.contains_key(key) && new_v >= floor_of(key) {
                emit(
                    DiffClass::Note,
                    format!("new metric {name}.{key}: {new_v} (not in the baseline)"),
                );
            }
        }
    }
    report.compared = compared;
    report
}

/// Re-ingests the Chrome trace file at `path`.
pub fn read_trace(path: &str) -> Result<sat_obs::ParsedTrace, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    sat_obs::parse_chrome_trace(&doc).map_err(|e| format!("{path}: {e}"))
}

/// Validates the artifacts a traced run wrote: the snapshot's schema
/// and experiment list, and — when `trace` names the trace file — a
/// re-ingest of the full event stream with subsystem coverage, tick
/// monotonicity, and span begin/end pairing enforced. `coverage` maps
/// the snapshot's command to the subsystems its trace must contain
/// (the `repro` verb table owns that choice).
pub fn check(
    trace: Option<&str>,
    out: &str,
    coverage: impl Fn(&str) -> &'static [&'static str],
) -> Result<String, String> {
    let mut report = String::new();

    let snap = Snapshot::load(out)?;
    if snap.experiments.is_empty() {
        return Err(format!("{out}: empty \"experiments\" array"));
    }
    let _ = writeln!(
        report,
        "repro check: {out} ok ({} experiments, obs {})",
        snap.experiments.len(),
        if snap.traced() { "enabled" } else { "disabled" }
    );
    let metric = |rec: &Record, key: &str| rec.metrics.get(key).copied().unwrap_or(0.0);

    // A run under a frame budget that never reclaimed proves nothing
    // about behaviour under pressure: the budget sat above the peak
    // footprint the whole time. Warn, mirroring the partial-blame
    // warning (works untraced — the totals live in the snapshot).
    let budgeted: Vec<&Record> = snap
        .experiments
        .values()
        .filter(|r| r.params.contains_key("mem_frames"))
        .collect();
    if !budgeted.is_empty() && budgeted.iter().all(|r| metric(r, "reclaim.pages") == 0.0) {
        let _ = writeln!(
            report,
            "repro check: warning: the frame budget never bit ({} budgeted \
             experiment(s) reclaimed zero pages; lower --mem-frames below the \
             uncapped peak for real pressure)",
            budgeted.len()
        );
    }

    // A reach run whose promoted cell collapsed nothing measured only
    // 4KB paging three times: the waste-vs-reach trade the experiment
    // exists for never happened. Warn, mirroring the budget warning
    // (works untraced — the totals live in the snapshot).
    if snap.command() == "reach" {
        let promoted_fired = snap
            .experiments
            .get("reach_promoted")
            .is_some_and(|r| metric(r, "translation.promotions") > 0.0);
        if !promoted_fired {
            let _ = writeln!(
                report,
                "repro check: warning: the promotion scanner never fired (the \
                 reach_promoted cell reports zero promotions; every cell ran plain \
                 4KB paging, so the reach-vs-waste trade was not measured)"
            );
        }
    }

    if let Some(trace_path) = trace {
        let parsed = read_trace(trace_path)?;
        if parsed.events.is_empty() {
            return Err(format!("{trace_path}: empty event stream"));
        }
        sat_obs::analyze::validate_ticks(&parsed.events)
            .map_err(|e| format!("{trace_path}: {e}"))?;
        // Counter-track samples must carry non-empty gauge names on
        // strictly increasing per-gauge ticks (exact even under ring
        // overflow: a monotone series minus a prefix stays monotone).
        sat_obs::analyze::validate_samples(&parsed.events)
            .map_err(|e| format!("{trace_path}: {e}"))?;
        // Span pairing is only checkable on a lossless stream: ring
        // overflow drops the oldest events, begins first.
        let spans_note = if parsed.dropped == 0 {
            sat_obs::analyze::validate_spans(&parsed.events)
                .map_err(|e| format!("{trace_path}: {e}"))?;
            "spans paired"
        } else {
            "span pairing skipped (ring overflow)"
        };
        // A lossy ring under a charge-carrying trace means blame can
        // no longer be reconstructed exactly: some `CycleCharge`
        // events are gone, so per-request sums understate their walls.
        let has_charges = parsed
            .events
            .iter()
            .any(|e| matches!(e.payload, sat_obs::Payload::CycleCharge { .. }));
        if parsed.dropped > 0 && has_charges {
            let _ = writeln!(
                report,
                "repro check: warning: blame attribution is partial ({} events dropped \
                 from a stream carrying cycle charges; raise SAT_OBS_RING for exact tails)",
                parsed.dropped
            );
        }
        let cats: std::collections::BTreeSet<&str> =
            parsed.events.iter().map(|e| e.subsystem.as_str()).collect();
        let missing: Vec<&str> = coverage(snap.command())
            .iter()
            .filter(|s| !cats.contains(**s))
            .copied()
            .collect();
        if !missing.is_empty() {
            return Err(format!(
                "{trace_path}: no events from subsystem(s) {} (saw: {})",
                missing.join(", "),
                cats.into_iter().collect::<Vec<_>>().join(", ")
            ));
        }
        if !snap.traced() {
            return Err(format!(
                "{out}: obs section disabled although a trace was produced"
            ));
        }
        let (samples, gauges) = {
            let mut n = 0usize;
            let mut names = std::collections::BTreeSet::new();
            for e in &parsed.events {
                if let sat_obs::Payload::Sample { gauge, .. } = &e.payload {
                    n += 1;
                    names.insert(gauge.as_str());
                }
            }
            (n, names.len())
        };
        let _ = writeln!(
            report,
            "repro check: {trace_path} ok ({} events, {} dropped, ticks monotonic, \
             {spans_note}, {samples} samples over {gauges} gauges, subsystems: {})",
            parsed.events.len(),
            parsed.dropped,
            cats.into_iter().collect::<Vec<_>>().join(", ")
        );
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    type Rec<'a> = (&'a str, &'a [(&'a str, u64)], &'a [(&'a str, f64)]);

    /// The one fixture builder: a traced `all --quick` snapshot with
    /// the given `(name, params, metrics)` records, run-wide counters,
    /// and total wall time, as JSON.
    fn snap_json(records: &[Rec], counters: &[(&str, f64)], total_wall_ms: f64) -> String {
        fn map<V: std::fmt::Display>(pairs: &[(&str, V)]) -> String {
            let body: Vec<String> = pairs.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
            format!("{{{}}}", body.join(", "))
        }
        let records: Vec<String> = records
            .iter()
            .map(|(name, params, metrics)| {
                format!(
                    "{{\"name\": \"{name}\", \"params\": {}, \"metrics\": {}, \
                     \"events\": {{}}}}",
                    map(params),
                    map(metrics)
                )
            })
            .collect();
        format!(
            "{{\"schema\": \"{SCHEMA}\", \"command\": \"all\", \"scale\": \"quick\", \
             \"experiments\": [{}], \"total_wall_ms\": {total_wall_ms}, \
             \"obs\": {{\"enabled\": true, \"dropped_events\": 0, \"counters\": {}, \
             \"histograms\": {{}}}}}}",
            records.join(", "),
            map(counters)
        )
    }

    /// [`snap_json`] parsed back, so every test also exercises
    /// `Snapshot::parse`.
    fn snap(records: &[Rec], counters: &[(&str, f64)], total_wall_ms: f64) -> Snapshot {
        Snapshot::parse(&snap_json(records, counters, total_wall_ms), "test").unwrap()
    }

    /// Two experiments and one big, one tiny counter.
    fn suite(launch_wall: f64, total: f64, flushes: f64) -> Snapshot {
        snap(
            &[
                ("launch", &[], &[("wall_ms", launch_wall)]),
                ("steady", &[], &[("wall_ms", 40.0)]),
            ],
            &[("tlb.flush", flushes), ("tiny.counter", 3.0)],
            total,
        )
    }

    fn has(report: &DiffReport, class: DiffClass, needles: &[&str]) -> bool {
        report
            .lines
            .iter()
            .any(|(c, l)| *c == class && needles.iter().all(|n| l.contains(n)))
    }

    /// A metric, a value that gates, a value under its floor, and the
    /// record's params.
    type Case = (&'static str, f64, f64, &'static [(&'static str, u64)]);

    /// One case per [`RULES`] row.
    const CASES: [Case; 5] = [
        ("counter.tlb.flush", 5000.0, 3.0, &[]),
        ("gauge.phys.slab.live", 1000.0, 3.0, &[]),
        ("latency.p99", 120_000.0, 500.0, &[]),
        ("reclaim.pages", 400.0, 20.0, &[("mem_frames", 900)]),
        ("translation.waste_frames", 960.0, 2.0, &[]),
    ];

    /// Drives one [`CASES`] row through the single gate rule: +50%
    /// regresses, -50% improves, sub-floor movement is only noted, and
    /// a sub-floor baseline does not excuse growth past the floor.
    fn gate_case(family: &str) {
        let &(key, big, small, params) = CASES
            .iter()
            .find(|(k, ..)| k.starts_with(family))
            .expect("a case per rule row");
        let with = |v: f64| match key.strip_prefix("counter.") {
            Some(counter) => snap(&[("cell", params, &[])], &[(counter, v)], 100.0),
            None => snap(&[("cell", params, &[(key, v)])], &[], 100.0),
        };
        let label = match key.strip_prefix("counter.") {
            Some(_) => format!("{RUN}.{key}"),
            None => format!("cell.{key}"),
        };
        let old = with(big);

        let report = diff(&old, &old, 25.0);
        assert!(report.lines.is_empty(), "{key}: {:?}", report.lines);

        let report = diff(&old, &with(big * 1.5), 25.0);
        assert_eq!(report.regressions(), 1, "{key}: {:?}", report.lines);
        let movement = format!("{big} -> {}", big * 1.5);
        assert!(
            has(&report, DiffClass::Regression, &[&label, &movement]),
            "{key}: {:?}",
            report.lines
        );
        assert!(report.render(25.0).contains("REGRESSION"));

        let report = diff(&old, &with(big * 0.5), 25.0);
        assert_eq!(report.regressions(), 0, "{key}: {:?}", report.lines);
        assert!(has(&report, DiffClass::Improvement, &[&label]));

        // Doubling under the floor is a note; growing from under the
        // floor to far above it is a regression like any other.
        let report = diff(&with(small), &with(small * 2.0), 25.0);
        assert_eq!(report.regressions(), 0, "{key}: {:?}", report.lines);
        assert!(has(&report, DiffClass::Note, &[&label, "floor"]));
        let report = diff(&with(small), &with(big), 25.0);
        assert_eq!(report.regressions(), 1, "{key}: {:?}", report.lines);
    }

    #[test]
    fn every_rule_row_has_exactly_one_case() {
        for (prefix, _) in RULES {
            let n = CASES.iter().filter(|(k, ..)| k.starts_with(prefix)).count();
            assert_eq!(n, 1, "rule row {prefix}");
        }
        assert_eq!(CASES.len(), RULES.len());
        // A metric no row names gates at any magnitude.
        assert_eq!(floor_of("brand.new"), 0.0);
    }

    #[test]
    fn identical_snapshots_produce_no_regressions() {
        let a = suite(100.0, 150.0, 5000.0);
        let report = diff(&a, &a, 25.0);
        assert_eq!(report.regressions(), 0, "{:?}", report.lines);
        // Two records' `wall_ms`, the total's, and two counters.
        assert_eq!(report.compared, 5);
    }

    /// Host time is reported, never judged: `wall_ms` doctored past
    /// the threshold, up or down, on a record and on the total, is a
    /// note and no verdict. (The name dates from when it gated.)
    #[test]
    fn doctored_wall_time_regresses() {
        let fast = suite(100.0, 150.0, 5000.0);
        let slow = suite(150.0, 210.0, 5000.0);
        for (old, new, lines) in [(&fast, &slow, 2), (&slow, &fast, 2), (&fast, &fast, 0)] {
            let report = diff(old, new, 25.0);
            assert_eq!(report.lines.len(), lines, "{:?}", report.lines);
            for (class, line) in &report.lines {
                assert_eq!(*class, DiffClass::Note, "{line}");
                assert!(line.contains(".wall_ms: "), "{line}");
                assert!(line.contains("host time"), "{line}");
            }
            assert_eq!(report.compared, 5);
        }
        let rendered = diff(&fast, &slow, 25.0).render(25.0);
        assert!(!rendered.contains("REGRESSION"), "{rendered}");
        assert!(!rendered.contains("improvement"), "{rendered}");
        assert!(rendered.contains("5 metrics compared, 0 regression(s)"));
    }

    /// `wall_ms` has no floor because it has no verdict: a 20ms cell
    /// growing to 400ms is a host-time note like any other movement.
    /// (The name dates from when it gated.)
    #[test]
    fn sub_floor_wall_growing_past_the_floor_regresses() {
        let report = diff(
            &suite(20.0, 150.0, 5000.0),
            &suite(400.0, 150.0, 5000.0),
            25.0,
        );
        assert_eq!(report.regressions(), 0, "{:?}", report.lines);
        assert_eq!(report.lines.len(), 1, "{:?}", report.lines);
        assert!(has(
            &report,
            DiffClass::Note,
            &["launch.wall_ms: 20 -> 400", "host time"]
        ));
    }

    #[test]
    fn counter_growth_regresses_and_shrinkage_improves() {
        gate_case("counter.");
    }

    #[test]
    fn sub_floor_metrics_never_gate() {
        // tiny.counter doubling (3 -> 6, under the 100-event floor) is
        // a note.
        let old = suite(100.0, 150.0, 5000.0);
        let mut new = old.clone();
        new.run
            .metrics
            .insert("counter.tiny.counter".to_string(), 6.0);
        let report = diff(&old, &new, 25.0);
        assert_eq!(report.regressions(), 0, "{:?}", report.lines);
        assert!(has(&report, DiffClass::Note, &["tiny.counter", "floor"]));
    }

    #[test]
    fn missing_metric_is_a_note_never_silent() {
        // One rule for every family: a metric the new record lost —
        // a gauge, a reclaim total, a run-wide counter — is a note.
        let rec = |metrics: &[(&str, f64)], counters: &[(&str, f64)]| {
            snap(
                &[("cell", &[("mem_frames", 900)], metrics)],
                counters,
                100.0,
            )
        };
        let old = rec(
            &[("gauge.phys.slab.live", 1000.0), ("reclaim.pages", 400.0)],
            &[("tlb.flush", 5000.0)],
        );
        let report = diff(&old, &rec(&[], &[]), 25.0);
        assert_eq!(report.regressions(), 0, "{:?}", report.lines);
        // Only the total's `wall_ms` is on both sides.
        assert_eq!(report.compared, 1);
        for key in [
            "cell.gauge.phys.slab.live",
            "cell.reclaim.pages",
            "total.counter.tlb.flush",
        ] {
            assert!(
                has(&report, DiffClass::Note, &[key, "missing"]),
                "{key}: {:?}",
                report.lines
            );
        }
        // The other direction is a note too (above the floor).
        let report = diff(&rec(&[], &[]), &old, 25.0);
        assert_eq!(report.regressions(), 0, "{:?}", report.lines);
        assert!(has(
            &report,
            DiffClass::Note,
            &["new metric", "reclaim.pages"]
        ));
    }

    #[test]
    fn missing_experiment_is_a_regression() {
        let old = suite(100.0, 150.0, 5000.0);
        let mut new = old.clone();
        new.experiments.remove("steady");
        let report = diff(&old, &new, 25.0);
        assert_eq!(report.regressions(), 1);
        assert!(report.lines[0].1.contains("steady"));
    }

    #[test]
    fn cross_command_missing_experiment_is_informational() {
        // Diffing a full-suite baseline against a single-experiment
        // run: the absent experiments are expected, not regressions,
        // and the run-wide totals are not comparable at all.
        let old = suite(100.0, 150.0, 5000.0);
        let mut new = suite(100.0, 900.0, 5000.0);
        new.run
            .params
            .insert("command".to_string(), "launch".to_string());
        new.experiments.remove("steady");
        let report = diff(&old, &new, 25.0);
        assert_eq!(report.regressions(), 0, "{:?}", report.lines);
        assert!(has(
            &report,
            DiffClass::Note,
            &["steady", "different command"]
        ));
        assert!(has(&report, DiffClass::Note, &["total.params", "launch"]));
    }

    #[test]
    fn fleet_regression_at_one_n_is_not_masked_by_the_aggregate() {
        // The fleet grid writes one record per N. A 2x blowup of the
        // PTP high-water at N=4096 with every other cell *smaller*
        // keeps the run-wide allocation counter inside the threshold —
        // the per-N record must still fail the gate on its own.
        let fleet = |n256: f64, n4096: f64, total: f64| {
            snap(
                &[
                    ("fleet_n256", &[], &[("gauge.phys.slab.live", n256)]),
                    ("fleet_n4096", &[], &[("gauge.phys.slab.live", n4096)]),
                ],
                &[("mmu.ptp_alloc", total)],
                100.0,
            )
        };
        let old = fleet(400.0, 400.0, 800.0);
        let new = fleet(100.0, 800.0, 900.0);
        let report = diff(&old, &new, 25.0);
        assert_eq!(report.regressions(), 1, "{:?}", report.lines);
        assert!(has(&report, DiffClass::Regression, &["fleet_n4096"]));
    }

    #[test]
    fn doctored_gauge_high_water_regresses_and_tiny_gauges_never_gate() {
        gate_case("gauge.");
    }

    #[test]
    fn doctored_serve_p99_regresses_and_sub_floor_latency_never_gates() {
        gate_case("latency.");
    }

    #[test]
    fn doctored_reclaim_totals_regress_under_the_same_budget() {
        gate_case("reclaim.");
    }

    #[test]
    fn changed_budget_notes_instead_of_comparing_reclaim() {
        let cell = |budget: u64, pages: f64| {
            snap(
                &[(
                    "pressure_shared_starved",
                    &[("mem_frames", budget)],
                    &[("reclaim.pages", pages), ("latency.p99", pages * 300.0)],
                )],
                &[],
                100.0,
            )
        };
        let old = cell(900, 400.0);
        assert_eq!(
            old.experiments["pressure_shared_starved"].params["mem_frames"],
            "900"
        );
        let report = diff(&old, &cell(600, 4000.0), 25.0);
        assert_eq!(report.regressions(), 0, "{:?}", report.lines);
        assert!(has(
            &report,
            DiffClass::Note,
            &["pressure_shared_starved.params", "mem_frames", "900", "600"]
        ));
        assert!(!report.lines.iter().any(|(_, l)| l.contains("reclaim")));
        // The skipped record's metrics are not counted as work done.
        assert_eq!(report.compared, 1);
    }

    /// (The name dates from the worker pool, when the thread count was
    /// a param too.)
    #[test]
    fn scale_and_threads_decide_comparability_for_every_record() {
        // `scale` is written once per run, but every workload size
        // follows it: a snapshot at another scale compares nothing —
        // not the records, not the total — says why per record, and
        // passes.
        let text = snap_json(
            &[
                ("table4", &[], &[("wall_ms", 50.0)]),
                (
                    "serve_stock",
                    &[],
                    &[("gauge.kernel.processes", 90.0), ("latency.p99", 2e5)],
                ),
            ],
            &[("tlb.flush", 5000.0)],
            100.0,
        );
        let doctored = text
            .replace("\"wall_ms\": 50", "\"wall_ms\": 160")
            .replace(
                "\"gauge.kernel.processes\": 90",
                "\"gauge.kernel.processes\": 901",
            )
            .replace("\"tlb.flush\": 5000", "\"tlb.flush\": 9000");
        let old = Snapshot::parse(&text, "old").unwrap();
        assert_eq!(old.experiments["table4"].params["scale"], "quick");
        let paper = doctored.replace("\"scale\": \"quick\"", "\"scale\": \"paper\"");
        let report = diff(&old, &Snapshot::parse(&paper, "new").unwrap(), 25.0);
        assert_eq!(report.regressions(), 0, "{:?}", report.lines);
        assert_eq!(report.compared, 0, "{:?}", report.lines);
        assert_eq!(report.lines.len(), 3, "{:?}", report.lines);
        for name in ["table4", "serve_stock", RUN] {
            let params = format!("{name}.params");
            assert!(
                has(
                    &report,
                    DiffClass::Note,
                    &[&params, "paper", "not compared"]
                ),
                "{name}: {:?}",
                report.lines
            );
        }
        assert!(report.render(25.0).contains("0 metrics compared"));
        // The same doctoring at equal scale does gate — and against a
        // file that still carries the keys older builds wrote, which
        // are not read.
        let new = Snapshot::parse(&doctored, "new").unwrap();
        assert_eq!(diff(&old, &new, 25.0).regressions(), 2);
        let keyed = text
            .replace("\"scale\"", "\"threads\": 1, \"scale\"")
            .replace("\"params\"", "\"cells\": 2, \"params\"");
        let report = diff(&Snapshot::parse(&keyed, "keyed").unwrap(), &new, 25.0);
        assert_eq!(report.regressions(), 2, "{:?}", report.lines);
        assert_eq!(report.compared, 5, "{:?}", report.lines);
    }

    #[test]
    fn another_scale_excuses_a_missing_experiment() {
        // The fleet grid names its records per N and the Ns follow the
        // scale: quick's `fleet_n64` is absent from a paper run.
        let old = suite(100.0, 150.0, 5000.0);
        let mut new = old.clone();
        new.experiments.remove("steady");
        new.run
            .params
            .insert("scale".to_string(), "paper".to_string());
        let report = diff(&old, &new, 25.0);
        assert_eq!(report.regressions(), 0, "{:?}", report.lines);
        assert!(has(&report, DiffClass::Note, &["steady", "or scale"]));
    }

    #[test]
    fn doctored_translation_totals_gate_like_counters() {
        gate_case("translation.");
    }

    #[test]
    fn v7_snapshots_are_rejected_with_the_refresh_hint() {
        let v7 = r#"{"schema": "sat-bench/repro-v7", "command": "all", "scale": "quick",
            "experiments": [], "total_wall_ms": 1.0,
            "obs": {"enabled": false, "dropped_events": 0, "counters": {}, "histograms": {}}}"#;
        let err = Snapshot::parse(v7, "BENCH_baseline.json").unwrap_err();
        assert!(err.contains("repro-v7"), "{err}");
        assert!(err.contains(SCHEMA), "{err}");
        assert!(
            err.contains("repro all --quick --trace <trace.json> --out BENCH_baseline.json"),
            "{err}"
        );
        assert!(Snapshot::parse(&v7.replace("repro-v7", "repro-v8"), "ok").is_ok());
    }
}
