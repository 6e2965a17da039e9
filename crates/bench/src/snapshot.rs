//! The `BENCH_repro.json` snapshot, and the one module that knows its
//! format: `repro` fills [`Record`]s, [`Snapshot::render`] writes them,
//! [`Snapshot::parse`] reads them back, [`check`] validates a run's
//! artifacts (`repro check`) and [`diff`] compares two snapshots number
//! by number (`repro diff`).
//!
//! A snapshot is one run-wide record plus one record per experiment,
//! all of one shape: a name, a `params` object of strings (what the
//! numbers were measured *under* — the run's scale, a frame budget)
//! and one flat `metrics` map of counts (what was measured —
//! `latency.p99`, `reclaim.pages`, `translation.waste_frames`,
//! `gauge.<name>`, `event.<name>`, ...). The run-wide record's params
//! are `command`/`scale`/`traced`, and its metrics one `counter.<name>`
//! per event counter of a traced run. A new metric family is one map
//! insert where it is measured — never a schema bump.
//!
//! Every number is a function of the verb and the scale, so two runs of
//! one verb write byte-identical files, and `repro diff` is an
//! equality. It is the gate for *simulated* behaviour: the verify smoke
//! compares a fresh `repro all --quick` snapshot against the committed
//! `BENCH_baseline.json`, and any difference — a count up or down, a
//! param, a record or key on one side only — means the simulator
//! changed behaviour, which is either a bug or an intentional change
//! that must refresh the baseline. Host time is not in the snapshot:
//! host-time claims go through `satbench compare` (`benchmark/`) and
//! its pairs rule.
//!
//! ```text
//! {
//!   "schema": "sat-bench/repro-v9",
//!   "run": {"name": "total", "params": {"command": "all", "scale": "quick", "traced": "true"},
//!           "metrics": {"counter.kernel.fork": 1689, ...}},
//!   "experiments": [
//!     {"name": "table4", "params": {"scale": "quick"}, "metrics": {"event.kernel.fork": 3, ...}},
//!     ...
//!   ]
//! }
//! ```

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::{Display, Write as _};

use sat_obs::json::{escape_into, Json};

use crate::Scale;

/// The one snapshot schema this build writes and reads. Only the
/// committed baseline is ever read back, so there is no compatibility
/// code: an older file is refreshed, not parsed.
pub const SCHEMA: &str = "sat-bench/repro-v9";

/// Name of the run-wide record (`total.counter.tlb.flush` in diff
/// output).
const RUN: &str = "total";

/// The param of a record measured under a physical-frame budget.
const BUDGET: &str = "mem_frames";

/// One record: an experiment, or the run as a whole.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Record {
    pub name: String,
    /// What the metrics were measured under.
    pub params: BTreeMap<String, String>,
    /// Every number measured: simulated, hence exact and repeatable.
    pub metrics: BTreeMap<String, u64>,
}

impl Record {
    /// An experiment's record, before anything is measured.
    pub fn new(name: &str) -> Record {
        Record {
            name: name.to_string(),
            ..Record::default()
        }
    }

    /// Adds what an experiment measured itself.
    pub fn add_metrics(&mut self, metrics: impl IntoIterator<Item = (&'static str, u64)>) {
        for (key, v) in metrics {
            self.metrics.insert(key.to_string(), v);
        }
    }

    /// Records the physical-frame budget the experiment ran under.
    pub fn set_budget(&mut self, mem_frames: u64) {
        self.params
            .insert(BUDGET.to_string(), mem_frames.to_string());
    }

    /// Adds the recorder's view of the experiment: each gauge's peak
    /// over the experiment's window as `gauge.<name>`, and each counter
    /// it moved — `after` less `before` — as `event.<name>`.
    pub fn add_observed(
        &mut self,
        gauge_peaks: BTreeMap<String, u64>,
        before: &BTreeMap<String, u64>,
        after: &BTreeMap<String, u64>,
    ) {
        for (gauge, peak) in gauge_peaks {
            self.metrics.insert(format!("gauge.{gauge}"), peak);
        }
        for (key, v) in after {
            let delta = v - before.get(key).copied().unwrap_or(0);
            if delta > 0 {
                self.metrics.insert(format!("event.{key}"), delta);
            }
        }
    }
}

/// A snapshot: what one `repro` run measured.
#[derive(Clone, Debug, PartialEq)]
pub struct Snapshot {
    /// The run-wide record: params `command`/`scale`/`traced`, metrics
    /// one `counter.<name>` per event counter of a traced run.
    pub run: Record,
    /// One record per experiment, in run order.
    pub experiments: Vec<Record>,
}

impl Snapshot {
    /// The snapshot of one `repro <command>` run: its experiment
    /// records, each stamped with the run's scale (workload sizes
    /// follow it, so it is part of what every number was measured
    /// under), and the recorder's `counters` when the run was traced.
    pub fn new(
        command: &str,
        scale: Scale,
        mut experiments: Vec<Record>,
        counters: Option<&BTreeMap<String, u64>>,
    ) -> Snapshot {
        let scale = match scale {
            Scale::Paper => "paper",
            Scale::Quick => "quick",
        };
        for rec in &mut experiments {
            rec.params.insert("scale".to_string(), scale.to_string());
        }
        let traced = counters.is_some().to_string();
        let run = Record {
            name: RUN.to_string(),
            params: [("command", command), ("scale", scale), ("traced", &traced)]
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .into(),
            metrics: counters
                .into_iter()
                .flatten()
                .map(|(k, &v)| (format!("counter.{k}"), v))
                .collect(),
        };
        Snapshot { run, experiments }
    }

    /// Reads and parses the snapshot file at `path`.
    pub fn load(path: &str) -> Result<Snapshot, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        Snapshot::parse(&text, path)
    }

    /// Parses a snapshot document of the current schema. Strict: a
    /// record without its params or metrics, a param that is not a
    /// string, a metric that is not a count, or an experiment recorded
    /// twice is an error naming the record (and key) — never a skip.
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
        let run = read_record(field("run")?).map_err(|e| format!("{label}: {e}"))?;
        let mut experiments: Vec<Record> = Vec::new();
        for exp in field("experiments")?
            .as_array()
            .ok_or_else(|| format!("{label}: \"experiments\" is not an array"))?
        {
            let rec = read_record(exp).map_err(|e| format!("{label}: {e}"))?;
            if experiments.iter().any(|r| r.name == rec.name) {
                return Err(format!(
                    "{label}: experiment \"{}\" recorded twice",
                    rec.name
                ));
            }
            experiments.push(rec);
        }
        Ok(Snapshot { run, experiments })
    }

    /// The document [`Snapshot::parse`] reads back as `self`: one line
    /// per record, keys in order.
    pub fn render(&self) -> String {
        let experiments: Vec<String> = self
            .experiments
            .iter()
            .map(|rec| format!("    {}", record_json(rec)))
            .collect();
        format!(
            "{{\n  \"schema\": \"{SCHEMA}\",\n  \"run\": {},\n  \"experiments\": [\n{}\n  ]\n}}\n",
            record_json(&self.run),
            experiments.join(",\n")
        )
    }

    /// The experiment record called `name`.
    pub fn experiment(&self, name: &str) -> Option<&Record> {
        self.experiments.iter().find(|r| r.name == name)
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

/// One record as a JSON object on one line.
fn record_json(rec: &Record) -> String {
    fn quoted(s: &str) -> String {
        let mut out = String::from("\"");
        escape_into(&mut out, s);
        out.push('"');
        out
    }
    fn object<V>(map: &BTreeMap<String, V>, value: impl Fn(&V) -> String) -> String {
        let members: Vec<String> = map
            .iter()
            .map(|(k, v)| format!("{}: {}", quoted(k), value(v)))
            .collect();
        format!("{{{}}}", members.join(", "))
    }
    format!(
        "{{\"name\": {}, \"params\": {}, \"metrics\": {}}}",
        quoted(&rec.name),
        object(&rec.params, |v| quoted(v)),
        object(&rec.metrics, u64::to_string)
    )
}

/// Reads one record of a snapshot document.
fn read_record(json: &Json) -> Result<Record, String> {
    let name = json
        .get("name")
        .and_then(Json::as_str)
        .ok_or("a record without a \"name\"")?;
    let members = |key: &str| {
        json.get(key)
            .and_then(Json::as_object)
            .ok_or_else(|| format!("record \"{name}\" has no \"{key}\" object"))
    };
    let mut rec = Record::new(name);
    for (key, v) in members("params")? {
        let v = v
            .as_str()
            .ok_or_else(|| format!("{name}.params.{key} is not a string"))?;
        rec.params.insert(key.clone(), v.to_string());
    }
    for (key, v) in members("metrics")? {
        let v = v
            .as_u64()
            .ok_or_else(|| format!("{name}.{key} is not a count"))?;
        rec.metrics.insert(key.clone(), v);
    }
    Ok(rec)
}

/// Compares two snapshots number by number: one `record.key: old ->
/// new` line per difference, in record and key order; empty when the
/// snapshots agree. Every record's params and metrics are compared,
/// the run-wide record's included; a record or key on one side only is
/// a difference (`missing` on the other).
pub fn diff(old: &Snapshot, new: &Snapshot) -> Vec<String> {
    fn by_name(s: &Snapshot) -> BTreeMap<&str, &Record> {
        s.experiments.iter().map(|r| (r.name.as_str(), r)).collect()
    }
    let (old_exps, new_exps) = (by_name(old), by_name(new));
    let names: BTreeSet<&str> = old_exps.keys().chain(new_exps.keys()).copied().collect();
    let pairs = names
        .into_iter()
        .map(|n| (n, old_exps.get(n).copied(), new_exps.get(n).copied()))
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
/// (or that one side lacks).
fn differences<V: PartialEq + Display>(
    lines: &mut Vec<String>,
    label: &str,
    old: &BTreeMap<String, V>,
    new: &BTreeMap<String, V>,
) {
    let shown = |v: Option<&V>| v.map_or("missing".to_string(), V::to_string);
    let keys: BTreeSet<&String> = old.keys().chain(new.keys()).collect();
    for key in keys {
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
        let carriers: Vec<&Record> = snap.experiments.iter().filter(|r| carry(r)).collect();
        let zero = |r: &&Record| r.metrics.get(key).copied().unwrap_or(0) == 0;
        (!carriers.is_empty() && carriers.iter().all(zero)).then_some(carriers.len())
    };
    // A budget that never reclaimed sat above the peak footprint the
    // whole run.
    let budgeted = |r: &Record| r.params.contains_key(BUDGET);
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
            // A ring too small for the run keeps only its last events,
            // so the missing layers may have recorded and been dropped.
            let overflow = match parsed.dropped {
                0 => String::new(),
                n => format!(
                    "; the ring overflowed and dropped {n} events (raise SAT_OBS_RING, \
                     e.g. SAT_OBS_RING=2097152, and trace again)"
                ),
            };
            return Err(format!(
                "{trace_path}: no events from subsystem(s) {} (saw: {}){overflow}",
                missing.join(", "),
                cats.into_iter().collect::<Vec<_>>().join(", ")
            ));
        }
        if !snap.traced() {
            return Err(format!(
                "{out}: an untraced run although a trace was produced"
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
    /// family the diff reads.
    fn base() -> Snapshot {
        let mut cell = Record::new("cell");
        cell.set_budget(900);
        cell.add_metrics([
            ("latency.p99", 120_000),
            ("reclaim.pages", 400),
            ("translation.waste_frames", 960),
        ]);
        let counters = BTreeMap::from([("tlb.flush.main".to_string(), 75771)]);
        let gauges = BTreeMap::from([("phys.slab.live".to_string(), 1000)]);
        cell.add_observed(gauges, &BTreeMap::new(), &counters);
        let counters = BTreeMap::from([("tlb.flush.reason.unshare".to_string(), 973)]);
        Snapshot::new("all", Scale::Quick, vec![cell], Some(&counters))
    }

    fn parse(text: &str) -> Snapshot {
        Snapshot::parse(text, "test").unwrap()
    }

    /// One number of each family: its key in the file, its value, and
    /// the label its diff line carries.
    const ROWS: [(&str, u64, &str); 7] = [
        (
            "counter.tlb.flush.reason.unshare",
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
        ("event.tlb.flush.main", 75771, "cell.event.tlb.flush.main"),
        ("mem_frames", 900, "cell.params.mem_frames"),
    ];

    /// Where `key` holds `v` in a rendered file (params are strings).
    fn member(key: &str, v: u64) -> String {
        match key {
            BUDGET => format!("\"{key}\": \"{v}\""),
            _ => format!("\"{key}\": {v}"),
        }
    }

    #[test]
    fn identical_snapshots_produce_no_regressions() {
        assert_eq!(diff(&base(), &base()), Vec::<String>::new());
    }

    /// What the writer renders, the parser reads back as it was, and
    /// renders again byte for byte — the committed baseline included.
    #[test]
    fn the_writer_and_the_parser_round_trip() {
        let text = base().render();
        assert_eq!(parse(&text), base());
        assert_eq!(parse(&text).render(), text);
        let baseline = include_str!("../../../BENCH_baseline.json");
        assert_eq!(parse(baseline).render(), baseline);
    }

    /// Every number is compared for equality: one unit up or down on
    /// any family is exactly one line naming it.
    #[test]
    fn every_family_moving_by_one_is_one_named_line() {
        let text = base().render();
        for (key, v, label) in ROWS {
            let at = member(key, v);
            assert_eq!(text.matches(&at).count(), 1, "{key}");
            for moved in [v + 1, v - 1] {
                let new = parse(&text.replace(&at, &member(key, moved)));
                assert_eq!(diff(&base(), &new), [format!("{label}: {v} -> {moved}")]);
            }
        }
    }

    /// A param that is not a string, a metric or counter that is not a
    /// count, and an experiment recorded twice are refused, by record
    /// and key — never skipped, which would let `repro check` pass the
    /// file and `repro diff` compare less than it holds.
    #[test]
    fn a_value_of_the_wrong_kind_is_refused_by_record_and_key() {
        let text = base().render();
        for (key, v, label) in ROWS {
            for wrong in [
                format!("\"{key}\": \"{v}\""),
                format!("\"{key}\": {v}"),
                format!("\"{key}\": -{v}"),
                format!("\"{key}\": {v}.5"),
                format!("\"{key}\": null"),
                // Past u64: refused, not saturated to u64::MAX.
                format!("\"{key}\": 1e30"),
                format!("\"{key}\": 18446744073709551616"),
            ] {
                let bad = text.replace(&member(key, v), &wrong);
                if bad == text {
                    continue;
                }
                let err = Snapshot::parse(&bad, "snap.json").unwrap_err();
                assert!(err.starts_with("snap.json: "), "{err}");
                assert!(err.contains(label), "{wrong}: {err}");
            }
        }
        let cell = text.lines().find(|l| l.contains("\"cell\"")).unwrap();
        let twice = text.replace(cell, &format!("{cell},\n{cell}"));
        let err = Snapshot::parse(&twice, "snap.json").unwrap_err();
        assert_eq!(err, "snap.json: experiment \"cell\" recorded twice");
    }

    /// A record or key on one side only is a difference, either way,
    /// and so is a run at another scale (on every record).
    #[test]
    fn one_sided_records_keys_and_params_are_differences() {
        let old = base();
        let mut lost = old.clone();
        lost.experiments.clear();
        assert_eq!(diff(&old, &lost), ["cell: recorded -> missing"]);
        assert_eq!(diff(&lost, &old), ["cell: missing -> recorded"]);

        let mut lost = old.clone();
        lost.experiments[0].metrics.remove("latency.p99");
        assert_eq!(diff(&old, &lost), ["cell.latency.p99: 120000 -> missing"]);
        assert_eq!(diff(&lost, &old), ["cell.latency.p99: missing -> 120000"]);

        let paper = old
            .render()
            .replace("\"scale\": \"quick\"", "\"scale\": \"paper\"");
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
        let current = base().render();
        for old in ["sat-bench/repro-v7", "sat-bench/repro-v8"] {
            let err =
                Snapshot::parse(&current.replace(SCHEMA, old), "BENCH_baseline.json").unwrap_err();
            assert!(err.contains(old), "{err}");
            assert!(err.contains(SCHEMA), "{err}");
            assert!(
                err.contains("repro all --quick --trace <trace.json> --out BENCH_baseline.json"),
                "{err}"
            );
        }
    }
}
