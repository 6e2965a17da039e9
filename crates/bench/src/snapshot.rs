//! The `BENCH_repro.json` snapshot: schema, validation (`repro
//! check`), and number-by-number comparison (`repro diff`).
//!
//! A snapshot is a list of records, one per timed experiment, plus one
//! run-wide record. Every record has the same shape: a `params` object
//! (what the numbers were measured *under* — a frame budget, the run's
//! scale) and one flat `metrics` map (what was measured — `wall_ms`,
//! `latency.p99`, `reclaim.pages`, `translation.waste_frames`,
//! `gauge.<name>`, `counter.<name>`, `event.<name>`, ...). A new
//! metric family is one map insert where it is measured — never a
//! schema bump.
//!
//! `repro diff old.json new.json` is the gate for *simulated*
//! behaviour: the verify smoke compares a fresh `repro all --quick`
//! snapshot against the committed `BENCH_baseline.json`. Every number
//! but `wall_ms` is a function of its experiment and scale, so the diff
//! is an equality: any difference — a count up or down, a param, a
//! record or key on one side only — means the simulator changed
//! behaviour, which is either a bug or an intentional change that must
//! refresh the baseline. `wall_ms` is host time: the snapshot records
//! it and the diff never reads it — host-time claims go through
//! `satbench compare` (`benchmark/`) and its pairs rule.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::{Display, Write as _};

use sat_obs::json::Json;

/// The one snapshot schema this build writes and reads. Only the
/// committed baseline is ever read back, so there is no compatibility
/// code: an older file is refreshed, not parsed.
pub const SCHEMA: &str = "sat-bench/repro-v8";

/// Label of the run-wide record in diff output
/// (`total.counter.tlb.flush`).
const RUN: &str = "total";

/// The one host-time metric: wall clock swings with the machine, not
/// with the program, so the diff never reads it.
const HOST_TIME: &str = "wall_ms";

/// One parsed record: an experiment, or the run as a whole.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Record {
    /// What the metrics were measured under.
    pub params: BTreeMap<String, String>,
    /// Every number measured: the record's metrics and, as
    /// `event.<name>`, its counter deltas.
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
        // sizes follow the scale, so it goes into each record's params.
        // (The command does not: `table4` is the same experiment under
        // `all` and on its own.)
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
                    metrics: numbers(exp.get("metrics"), "")
                        .into_iter()
                        .chain(numbers(exp.get("events"), "event."))
                        .collect(),
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

/// Compares two snapshots number by number: one `record.key: old ->
/// new` line per difference, in record and key order; empty when the
/// snapshots agree. Every record's params and numbers are compared,
/// the run-wide record's included, all but `wall_ms`; a record or key
/// on one side only is a difference (`missing` on the other).
pub fn diff(old: &Snapshot, new: &Snapshot) -> Vec<String> {
    let names: BTreeSet<&str> = old
        .experiments
        .keys()
        .chain(new.experiments.keys())
        .map(String::as_str)
        .collect();
    let pairs = names
        .into_iter()
        .map(|name| (name, old.experiments.get(name), new.experiments.get(name)))
        .chain([(RUN, Some(&old.run), Some(&new.run))]);
    let mut lines = Vec::new();
    for (name, old_rec, new_rec) in pairs {
        match (old_rec, new_rec) {
            (Some(a), Some(b)) => {
                differences(&mut lines, &format!("{name}.params"), &a.params, &b.params);
                differences(&mut lines, name, &a.metrics, &b.metrics);
            }
            (a, b) => {
                let side = |r: Option<_>| r.map_or("missing", |_| "recorded");
                lines.push(format!("{name}: {} -> {}", side(a), side(b)));
            }
        }
    }
    lines
}

/// Appends a `label.key: old -> new` line per key whose values differ
/// (or that one side lacks), `wall_ms` aside.
fn differences<V: PartialEq + Display>(
    lines: &mut Vec<String>,
    label: &str,
    old: &BTreeMap<String, V>,
    new: &BTreeMap<String, V>,
) {
    let shown = |v: Option<&V>| v.map_or("missing".to_string(), V::to_string);
    let keys: BTreeSet<&String> = old.keys().chain(new.keys()).collect();
    for key in keys.into_iter().filter(|k| *k != HOST_TIME) {
        let (a, b) = (old.get(key), new.get(key));
        if a != b {
            lines.push(format!("{label}.{key}: {} -> {}", shown(a), shown(b)));
        }
    }
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
    // How many records `carry` a mechanism, when some do and none of
    // them shows it at work (`key` is zero in every one): the run
    // measured nothing of that mechanism. These warnings work untraced
    // — the totals live in the snapshot — and mirror the partial-blame
    // one.
    let idle = |carry: fn(&Record) -> bool, key: &str| -> Option<usize> {
        let carriers: Vec<&Record> = snap.experiments.values().filter(|r| carry(r)).collect();
        let zero = |r: &&Record| r.metrics.get(key).copied().unwrap_or(0.0) == 0.0;
        (!carriers.is_empty() && carriers.iter().all(zero)).then_some(carriers.len())
    };
    // A budget that never reclaimed sat above the peak footprint the
    // whole run.
    let budgeted = |r: &Record| r.params.contains_key("mem_frames");
    if let Some(n) = idle(budgeted, "reclaim.pages") {
        let _ = writeln!(
            report,
            "repro check: warning: the frame budget never bit ({n} budgeted \
             experiment(s) reclaimed zero pages; a budget at or above the \
             uncapped peak measures no pressure)"
        );
    }
    // Cells that count promotions but never promoted ran plain 4KB
    // paging: the waste-vs-reach trade never happened.
    let promotions = |r: &Record| r.metrics.contains_key("translation.promotions");
    if let Some(n) = idle(promotions, "translation.promotions") {
        let _ = writeln!(
            report,
            "repro check: warning: the promotion scanner never fired ({n} \
             experiment(s) report zero promotions; every cell ran plain 4KB \
             paging, so the reach-vs-waste trade was not measured)"
        );
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

    /// A traced `all --quick` snapshot holding one number of every
    /// family the diff reads, and host time on the record and the run.
    fn base() -> String {
        format!(
            r#"{{"schema": "{SCHEMA}", "command": "all", "scale": "quick",
            "experiments": [{{"name": "cell", "params": {{"mem_frames": 900}},
                "metrics": {{"wall_ms": 12.5, "gauge.phys.slab.live": 1000,
                    "latency.p99": 120000, "reclaim.pages": 400,
                    "translation.waste_frames": 960}},
                "events": {{"tlb.flush.main": 75771}}}}],
            "total_wall_ms": 30.25,
            "obs": {{"enabled": true, "dropped_events": 0,
                "counters": {{"tlb.flush.reason.unshare": 973}}, "histograms": {{}}}}}}"#
        )
    }

    fn parse(text: &str) -> Snapshot {
        Snapshot::parse(text, "test").unwrap()
    }

    /// One number of each family: its key in the file, its value, and
    /// the label its diff line carries.
    const ROWS: [(&str, u64, &str); 7] = [
        (
            "tlb.flush.reason.unshare",
            973,
            "total.counter.tlb.flush.reason.unshare",
        ),
        ("gauge.phys.slab.live", 1000, "cell.gauge.phys.slab.live"),
        ("latency.p99", 120_000, "cell.latency.p99"),
        ("reclaim.pages", 400, "cell.reclaim.pages"),
        (
            "translation.waste_frames",
            960,
            "cell.translation.waste_frames",
        ),
        ("tlb.flush.main", 75771, "cell.event.tlb.flush.main"),
        ("mem_frames", 900, "cell.params.mem_frames"),
    ];

    #[test]
    fn identical_snapshots_produce_no_regressions() {
        assert_eq!(diff(&parse(&base()), &parse(&base())), Vec::<String>::new());
    }

    /// Every number is compared for equality: one unit up or down on
    /// any family is exactly one line naming it.
    #[test]
    fn every_family_moving_by_one_is_one_named_line() {
        let old = parse(&base());
        for (key, v, label) in ROWS {
            let at = format!("\"{key}\": {v}");
            assert_eq!(base().matches(&at).count(), 1, "{key}");
            for moved in [v + 1, v - 1] {
                let new = parse(&base().replace(&at, &format!("\"{key}\": {moved}")));
                assert_eq!(diff(&old, &new), [format!("{label}: {v} -> {moved}")]);
            }
        }
    }

    /// Host time is recorded and never read.
    #[test]
    fn wall_time_moving_is_no_difference() {
        let slow = base()
            .replace("\"wall_ms\": 12.5", "\"wall_ms\": 400")
            .replace("\"total_wall_ms\": 30.25", "\"total_wall_ms\": 900");
        assert_ne!(slow, base());
        assert!(diff(&parse(&base()), &parse(&slow)).is_empty());
    }

    /// A record or key on one side only is a difference, either way,
    /// and so is a run at another scale (on every record).
    #[test]
    fn one_sided_records_keys_and_params_are_differences() {
        let old = parse(&base());
        let mut lost = old.clone();
        lost.experiments.remove("cell");
        assert_eq!(diff(&old, &lost), ["cell: recorded -> missing"]);
        assert_eq!(diff(&lost, &old), ["cell: missing -> recorded"]);

        let mut lost = old.clone();
        let cell = lost.experiments.get_mut("cell").unwrap();
        cell.metrics.remove("latency.p99");
        assert_eq!(diff(&old, &lost), ["cell.latency.p99: 120000 -> missing"]);
        assert_eq!(diff(&lost, &old), ["cell.latency.p99: missing -> 120000"]);

        let paper = base().replace("\"scale\": \"quick\"", "\"scale\": \"paper\"");
        assert_eq!(
            diff(&old, &parse(&paper)),
            [
                "cell.params.scale: quick -> paper",
                "total.params.scale: quick -> paper"
            ]
        );
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
