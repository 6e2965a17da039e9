//! The benchmark against its own contract: `BENCHMARK.json` is what
//! the metric tables say, every name in it is printed and nothing
//! else is, and `satbench all --smoke` walks all three passes.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

use sat_obs::json::Json;
use satbench::metrics::{self, END_TO_END, PER_LAYER};
use satbench::report;
use satbench::workload::Workload;

fn benchmark_json() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn names(table: &Json) -> Vec<String> {
    table
        .as_array()
        .expect("a list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("a name")
                .to_string()
        })
        .collect()
}

#[test]
fn benchmark_json_is_what_the_tables_say() {
    let text = benchmark_json();
    let j = Json::parse(&text).expect("BENCHMARK.json parses");
    let run_seconds = j
        .get("run_seconds")
        .and_then(Json::as_u64)
        .expect("run_seconds");
    assert!((1..=60).contains(&run_seconds));
    assert_eq!(
        text,
        report::manifest(run_seconds as u32),
        "regenerate with `satbench manifest`"
    );

    // The contract's limits, checked on the file itself.
    let keys: Vec<&str> = j.as_object().unwrap().keys().map(String::as_str).collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    assert!(text.len() <= 64 * 1024);
    let workloads = j.get("workloads").and_then(Json::as_array).unwrap();
    assert_eq!(
        names(j.get("workloads").unwrap()),
        Workload::ALL.map(|w| w.name().to_string())
    );
    for w in workloads {
        let why = w.get("why").and_then(Json::as_str).unwrap();
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "{} chars: {why}",
            why.len()
        );
        assert_eq!(w.as_object().unwrap().len(), 2);
    }
    let command = j.get("command").and_then(Json::as_array).unwrap();
    assert!(command.len() <= 32);
    for part in command {
        let part = part.as_str().unwrap();
        assert!(part.len() <= 200 && !part.starts_with('/') && !part.contains(".."));
    }
    assert_eq!(
        names(j.get("end_to_end").unwrap()),
        END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()
    );
    assert_eq!(
        names(j.get("per_layer").unwrap()),
        PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>()
    );
    for m in j.get("end_to_end").and_then(Json::as_array).unwrap() {
        let keys: Vec<&str> = m.as_object().unwrap().keys().map(String::as_str).collect();
        assert_eq!(keys, ["better", "bound", "name", "unit"]);
        let bound = m.get("bound").and_then(Json::as_f64).unwrap();
        assert!(bound > 0.0 && bound <= metrics::MAX_BOUND);
    }
    for m in j.get("per_layer").and_then(Json::as_array).unwrap() {
        let keys: Vec<&str> = m.as_object().unwrap().keys().map(String::as_str).collect();
        assert_eq!(keys, ["better", "name", "unit"]);
    }
    for w in Workload::ALL {
        assert!(metrics::valid_name(w.name()));
    }
}

#[test]
fn smoke_run_walks_all_three_passes_and_prints_every_metric() {
    let dir = std::env::temp_dir().join(format!("satbench-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out_file = dir.join("smoke.json");
    let started = Instant::now();
    let out = Command::new(env!("CARGO_BIN_EXE_satbench"))
        .args(["all", "--smoke", "--seed", "3", "--out"])
        .arg(&out_file)
        .output()
        .expect("satbench starts");
    let elapsed = started.elapsed();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    if !cfg!(debug_assertions) {
        assert!(elapsed.as_secs_f64() < 10.0, "smoke run took {elapsed:?}");
    }
    assert!(stdout.contains("checks: all passed"), "{stdout}");
    // Every metric is printed by name with its unit ...
    for m in END_TO_END.iter().chain(PER_LAYER) {
        let printed = stdout
            .lines()
            .any(|l| l.split_whitespace().take(3).any(|t| t == m.name) && l.contains(m.unit));
        assert!(printed, "{} ({}) is not printed", m.name, m.unit);
    }
    for extra in [
        "ops_failed_pct",
        "paper_err_pct",
        "sim_digest",
        "halves_gap_pct",
        "unvalidated",
    ] {
        assert!(stdout.contains(extra), "{extra} is not printed");
    }

    // ... and the result file holds exactly the tables' names, for
    // every workload, with all three passes behind them.
    let j = Json::parse(&std::fs::read_to_string(&out_file).unwrap()).unwrap();
    let want_e2e: BTreeSet<&str> = END_TO_END.iter().map(|m| m.name).collect();
    let want_layers: BTreeSet<&str> = PER_LAYER.iter().map(|m| m.name).collect();
    for w in Workload::ALL {
        let r = j
            .get("workloads")
            .and_then(|x| x.get(w.name()))
            .unwrap_or_else(|| panic!("{} is missing", w.name()));
        let keys = |k: &str| -> BTreeSet<String> {
            r.get(k)
                .and_then(Json::as_object)
                .unwrap()
                .keys()
                .cloned()
                .collect()
        };
        assert_eq!(
            keys("end_to_end"),
            want_e2e.iter().map(|s| s.to_string()).collect()
        );
        assert_eq!(
            keys("per_layer"),
            want_layers.iter().map(|s| s.to_string()).collect()
        );
        assert_eq!(r.get("failed").and_then(Json::as_u64), Some(0));
        let layer = |n: &str| {
            r.get("per_layer")
                .unwrap()
                .get(n)
                .and_then(Json::as_f64)
                .unwrap()
        };
        // Pass 2 (traced) ran: spans were recorded; pass 3 ran: the
        // probes are in, and the fidelity rep where there is one.
        assert!(layer("probe.tlb.lookup_hit_ns") > 0.0);
        assert!(layer("host.allocs") > 0.0);
        assert_eq!(
            r.get("paper_err_pct").and_then(Json::as_f64).is_some(),
            w.has_paper_reference(),
            "{}",
            w.name()
        );
    }
    let layer = |w: &str, n: &str| {
        j.get("workloads")
            .unwrap()
            .get(w)
            .unwrap()
            .get("per_layer")
            .unwrap()
            .get(n)
            .and_then(Json::as_f64)
            .unwrap()
    };
    assert!(layer("suite_steady", "android.steady_ms") > 0.0);
    assert!(layer("fleet_churn", "sched.spawn_ms") > 0.0);
    assert!(layer("serve_pressure", "obs.events") > 0.0);
    assert!(layer("reach_promote", "core.promote_ms") > 0.0);
    assert!(layer("binder_ipc", "android.binder_ms") > 0.0);

    // compare: a set is never worse than itself. (At smoke sizing two
    // reps of a few milliseconds may well be `unresolved`.)
    let cmp = Command::new(env!("CARGO_BIN_EXE_satbench"))
        .arg("compare")
        .args([&out_file, &out_file])
        .output()
        .unwrap();
    let table = String::from_utf8_lossy(&cmp.stdout);
    assert!(table.contains("simulated statistics: identical"), "{table}");
    let verdicts = |v: &str| table.lines().filter(|l| l.ends_with(v)).count();
    assert_eq!(
        verdicts("  ok") + verdicts("  unresolved"),
        Workload::ALL.len() * END_TO_END.len(),
        "{table}"
    );
    assert_eq!(verdicts("  worse"), 0, "{table}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn all_refuses_fewer_than_ten_reps() {
    let out = Command::new(env!("CARGO_BIN_EXE_satbench"))
        .args(["all", "--reps", "9"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--reps below 10"));
}
