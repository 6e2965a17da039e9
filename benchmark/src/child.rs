//! One rep, run in a process of its own: the runner spawns
//! `satbench rep ...` once per rep so every rep starts from a fresh
//! heap and leaves a `VmHWM` of its own. The rep's books go back to
//! the runner as one JSON object on the last line of stdout.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

use sat_obs::json::Json;

use crate::alloc::HEAP;
use crate::span;
use crate::workload::{self, Sizing, Workload};

const MIB: f64 = 1024.0 * 1024.0;

/// Where spans and result files go: `out/` beside the benchmark's
/// manifest (the build is in place, so this is inside the checkout).
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// What to run.
#[derive(Clone, Copy, Debug)]
pub struct RepSpec {
    pub workload: Workload,
    pub sizing: Sizing,
    pub seed: u64,
    /// Record spans (the traced pass).
    pub trace: bool,
    /// Install the `sat-obs` event ring and flow tracing (the `obs.*`
    /// rep).
    pub obs: bool,
}

impl RepSpec {
    /// The arguments that make a child run this spec.
    pub fn to_args(&self) -> Vec<String> {
        let mut args = vec![
            "rep".to_string(),
            "--workload".into(),
            self.workload.name().into(),
            "--sizing".into(),
            self.sizing.name().into(),
            "--seed".into(),
            self.seed.to_string(),
        ];
        if self.trace {
            args.push("--trace".into());
        }
        if self.obs {
            args.push("--obs".into());
        }
        args
    }
}

/// One rep's books as the runner sees them.
#[derive(Clone, Debug, Default)]
pub struct RepOut {
    /// Seconds of each set-up phase, in order.
    pub setup_phases: Vec<f64>,
    /// Seconds of each measured phase, in order.
    pub host_phases: Vec<f64>,
    pub ops: u64,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub digest: String,
    pub peak_heap_mib: f64,
    pub peak_rss_mib: f64,
    pub paper_err_pct: Option<f64>,
    /// (what, measured, paper).
    pub paper_rows: Vec<(String, f64, f64)>,
    pub layers: BTreeMap<String, f64>,
}

/// The process's peak resident set, from `/proc/self/status`.
fn vm_hwm_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn seconds(ns: &[u64]) -> Vec<f64> {
    ns.iter().map(|ns| *ns as f64 / 1e9).collect()
}

/// Runs the rep in this process.
pub fn run(spec: RepSpec) -> RepOut {
    if spec.obs {
        sat_obs::install(1 << 21);
        sat_obs::set_flow_tracing(true);
    }
    if spec.trace {
        span::enable();
    }
    let rep = workload::run(spec.workload, spec.sizing, spec.seed);
    let spans = span::take();
    let recording = spec.obs.then(sat_obs::uninstall).flatten();

    let mut layers: BTreeMap<String, f64> = rep
        .ledger
        .iter()
        .map(|(k, v)| (k.to_string(), *v))
        .collect();
    for (name, ns) in span::self_time_by_name(&spans) {
        // Phase brackets (`rep`, `setup`, `measured`) are not layers.
        if name.ends_with("_ms") {
            layers.insert(name.to_string(), ns as f64 / 1e6);
        }
    }
    if let Some(rec) = recording {
        layers.insert(
            "obs.events".into(),
            rec.events.len() as f64 + rec.dropped as f64,
        );
        layers.insert("obs.dropped".into(), rec.dropped as f64);
    }
    if spec.trace {
        let dir = out_dir();
        let path = dir.join(format!("spans-{}.json", spec.workload.name()));
        if let Err(e) =
            std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, span::to_json(&spans)))
        {
            eprintln!("satbench: cannot write {}: {e}", path.display());
        }
    }
    let heap = HEAP.stats();
    layers.insert("host.allocs".into(), heap.allocs as f64);
    layers.insert("host.alloc_mib".into(), heap.bytes as f64 / MIB);
    RepOut {
        setup_phases: seconds(&rep.setup_ns),
        host_phases: seconds(&rep.host_ns),
        ops: rep.ops,
        attempted: rep.attempted,
        failed: rep.failed,
        failures: rep.failures.clone(),
        digest: rep.digest.hex(),
        peak_heap_mib: heap.peak as f64 / MIB,
        peak_rss_mib: vm_hwm_mib(),
        paper_err_pct: rep.paper_err_pct(),
        paper_rows: rep
            .paper_rows
            .iter()
            .map(|(what, m, p)| (what.to_string(), *m, *p))
            .collect(),
        layers,
    }
}

/// Appends `s` as a JSON string literal.
pub fn json_str(out: &mut String, s: &str) {
    out.push('"');
    sat_obs::json::escape_into(out, s);
    out.push('"');
}

/// A finite number as JSON (non-finite values become `null`).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Appends a `{"name": number, ...}` object.
pub fn json_num_map<'a>(out: &mut String, map: impl Iterator<Item = (&'a str, f64)>) {
    out.push('{');
    for (i, (k, v)) in map.enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        json_str(out, k);
        let _ = write!(out, ": {}", json_num(v));
    }
    out.push('}');
}

impl RepOut {
    /// Set-up seconds of this rep.
    pub fn setup_s(&self) -> f64 {
        self.setup_phases.iter().sum()
    }

    /// Measured seconds of this rep.
    pub fn host_s(&self) -> f64 {
        self.host_phases.iter().sum()
    }

    /// One line of JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let _ = write!(
            out,
            "\"ops\": {}, \"attempted\": {}, \"failed\": {}, \
             \"peak_heap_mib\": {}, \"peak_rss_mib\": {}, \"paper_err_pct\": {}, \"digest\": ",
            self.ops,
            self.attempted,
            self.failed,
            json_num(self.peak_heap_mib),
            json_num(self.peak_rss_mib),
            self.paper_err_pct.map_or("null".into(), json_num),
        );
        json_str(&mut out, &self.digest);
        out.push_str(", \"failures\": [");
        for (i, f) in self.failures.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            json_str(&mut out, f);
        }
        out.push_str("], \"paper_rows\": [");
        for (i, (what, m, p)) in self.paper_rows.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push('[');
            json_str(&mut out, what);
            let _ = write!(out, ", {}, {}]", json_num(*m), json_num(*p));
        }
        for (key, phases) in [
            ("setup_phases", &self.setup_phases),
            ("host_phases", &self.host_phases),
        ] {
            let _ = write!(out, "], \"{key}\": [");
            for (i, p) in phases.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&json_num(*p));
            }
        }
        out.push_str("], \"layers\": ");
        json_num_map(&mut out, self.layers.iter().map(|(k, v)| (k.as_str(), *v)));
        out.push('}');
        out
    }

    /// Parses what [`RepOut::to_json`] wrote.
    pub fn from_json(text: &str) -> Result<RepOut, String> {
        let j = Json::parse(text).map_err(|e| e.to_string())?;
        let num = |key: &str| {
            j.get(key)
                .and_then(Json::as_f64)
                .ok_or(format!("rep result lacks number {key:?}"))
        };
        let int = |key: &str| {
            j.get(key)
                .and_then(Json::as_u64)
                .ok_or(format!("rep result lacks count {key:?}"))
        };
        let list = |key: &str| {
            j.get(key)
                .and_then(Json::as_array)
                .ok_or(format!("rep result lacks list {key:?}"))
        };
        let times = |key: &str| -> Result<Vec<f64>, String> {
            list(key)?
                .iter()
                .map(|p| p.as_f64().ok_or(format!("{key} holds a non-number")))
                .collect()
        };
        let mut out = RepOut {
            setup_phases: times("setup_phases")?,
            host_phases: times("host_phases")?,
            ops: int("ops")?,
            attempted: int("attempted")?,
            failed: int("failed")?,
            peak_heap_mib: num("peak_heap_mib")?,
            peak_rss_mib: num("peak_rss_mib")?,
            paper_err_pct: j.get("paper_err_pct").and_then(Json::as_f64),
            digest: j
                .get("digest")
                .and_then(Json::as_str)
                .ok_or("rep result lacks a digest")?
                .to_string(),
            ..RepOut::default()
        };
        for f in list("failures")? {
            out.failures.push(f.as_str().unwrap_or("?").to_string());
        }
        for row in list("paper_rows")? {
            if let Some([what, m, p]) = row.as_array() {
                out.paper_rows.push((
                    what.as_str().unwrap_or("?").to_string(),
                    m.as_f64().unwrap_or(f64::NAN),
                    p.as_f64().unwrap_or(f64::NAN),
                ));
            }
        }
        let layers = j
            .get("layers")
            .and_then(Json::as_object)
            .ok_or("rep result lacks layers")?;
        for (k, v) in layers {
            out.layers.insert(k.clone(), v.as_f64().unwrap_or(0.0));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rep_result_survives_the_pipe() {
        let mut out = RepOut {
            setup_phases: vec![0.0123],
            host_phases: vec![0.3, 0.2],
            ops: 12_402_696,
            attempted: 80,
            failed: 1,
            failures: vec!["audit \"rmap\": bad".into()],
            digest: "e9317c95ce5fe749".into(),
            peak_heap_mib: 14.4,
            peak_rss_mib: 20.25,
            paper_err_pct: Some(21.0),
            paper_rows: vec![("fork speed-up x".into(), 2.25, 2.1)],
            ..RepOut::default()
        };
        out.layers.insert("sim.cycles".into(), 1e9);
        let back = RepOut::from_json(&out.to_json()).unwrap();
        assert_eq!(back.to_json(), out.to_json());
        assert_eq!(back.ops, out.ops);
        assert_eq!(back.host_phases, out.host_phases);
        assert_eq!(back.setup_s(), 0.0123);
        assert_eq!(back.host_s(), 0.5);
        assert_eq!(back.failures, out.failures);
        assert_eq!(back.paper_rows, out.paper_rows);
        assert_eq!(back.layers["sim.cycles"], 1e9);
        out.paper_err_pct = None;
        assert_eq!(
            RepOut::from_json(&out.to_json()).unwrap().paper_err_pct,
            None
        );
    }
}
