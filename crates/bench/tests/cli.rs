//! End-to-end CLI tests for the experiment verbs (golden stdout),
//! `repro check`, `repro report`, `repro timeline`, `repro tails`, and
//! `repro diff`: real artifacts on disk, the real binary, real exit
//! codes.

use std::path::PathBuf;
use std::process::{Command, Output};

use sat_obs::{FlushReason, FlushScope, Payload, SpanUnit, Subsystem, UnshareCause};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro binary runs")
}

/// Runs `repro` with `args` under `env`; it must succeed. Returns its
/// stdout.
fn repro_ok(args: &[&str], env: &[(&str, &str)]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .envs(env.iter().copied())
        .output()
        .expect("repro binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert!(
        out.status.success(),
        "repro {args:?} failed: {}{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sat-bench-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// A healthy trace covering every required subsystem, with one
/// properly paired span. `breakage` lets a test corrupt the stream
/// before export.
fn write_trace(name: &str, breakage: Option<&str>) -> PathBuf {
    sat_obs::install(256);
    sat_obs::emit(
        Subsystem::Bench,
        0,
        0,
        Payload::SpanBegin {
            name: "exp.launch".to_string(),
        },
    );
    sat_obs::gauge_set("phys.frames.free", 1000);
    sat_obs::gauge_set("phys.slab.live", 80);
    sat_obs::sample_gauges();
    sat_obs::emit(
        Subsystem::Kernel,
        1,
        1,
        Payload::Fork {
            child: 2,
            ptps_shared: 4,
            ptes_copied: 0,
            shared: true,
        },
    );
    sat_obs::emit(
        Subsystem::Share,
        2,
        2,
        Payload::PtpUnshare {
            cause: UnshareCause::WriteFault,
            ptes_copied: 3,
            last_sharer: false,
            va: 0x1000,
        },
    );
    sat_obs::emit(
        Subsystem::VmFault,
        2,
        2,
        Payload::PageFault {
            class: sat_obs::FaultClass::Cow,
            va: 0x1000,
            file_backed: false,
        },
    );
    sat_obs::emit(
        Subsystem::Tlb,
        0,
        2,
        Payload::TlbFlush {
            scope: FlushScope::Asid,
            reason: FlushReason::Unshare,
            entries: 2,
        },
    );
    sat_obs::emit(
        Subsystem::Android,
        2,
        2,
        Payload::SpanBegin {
            name: "launch.exec".to_string(),
        },
    );
    if breakage != Some("dangling_begin") {
        sat_obs::emit(
            Subsystem::Android,
            2,
            2,
            Payload::SpanEnd {
                name: "launch.exec".to_string(),
                value: 750,
                unit: SpanUnit::Cycles,
            },
        );
    }
    if breakage == Some("negative_ipis") {
        // One flushing core, two of them "local": the exporter writes
        // whatever it is handed, the re-ingester must refuse it.
        sat_obs::emit(
            Subsystem::Sim,
            0,
            2,
            Payload::TlbShootdown {
                asid: 2,
                scope: FlushScope::Asid,
                cores_targeted: 1,
                cores_local: 2,
                cores_skipped: 0,
            },
        );
    }
    sat_obs::gauge_set("phys.frames.free", 850);
    sat_obs::gauge_set("phys.slab.live", 120);
    sat_obs::sample_gauges();
    sat_obs::emit(
        Subsystem::Bench,
        0,
        0,
        Payload::SpanEnd {
            name: "exp.launch".to_string(),
            value: 1234,
            unit: SpanUnit::Micros,
        },
    );
    let mut rec = sat_obs::uninstall().unwrap();
    if breakage == Some("tick_rewind") {
        // Hand-edit the last event's timestamp backwards, as a corrupt
        // or truncated-and-merged trace file would look.
        let last = rec.events.last_mut().unwrap();
        last.tick = 0;
    }
    let path = tmp(name);
    std::fs::write(&path, sat_obs::chrome_trace_json(&rec)).unwrap();
    path
}

/// One snapshot record of the fixture: name, `params` and `metrics` as
/// JSON object literals.
type Rec<'a> = (&'a str, &'a str, &'a str);

/// The one snapshot fixture builder: a traced `all --quick` snapshot
/// with the given records, run-wide `counters` (a JSON object literal)
/// and total wall time.
fn write_snapshot_of(name: &str, records: &[Rec], counters: &str, total_wall_ms: f64) -> PathBuf {
    let records: Vec<String> = records
        .iter()
        .map(|(name, params, metrics)| {
            format!(
                r#"    {{"name": "{name}", "params": {params}, "metrics": {metrics}, "events": {{}}}}"#
            )
        })
        .collect();
    let path = tmp(name);
    std::fs::write(
        &path,
        format!(
            r#"{{
  "schema": "sat-bench/repro-v8",
  "command": "all",
  "scale": "quick",
  "experiments": [
{}
  ],
  "total_wall_ms": {total_wall_ms:.3},
  "obs": {{"enabled": true, "dropped_events": 0, "counters": {counters}, "histograms": {{}}}}
}}
"#,
            records.join(",\n")
        ),
    )
    .unwrap();
    path
}

/// The two-experiment suite most tests need.
fn write_snapshot(name: &str, launch_wall_ms: f64, total_wall_ms: f64) -> PathBuf {
    let launch = format!(r#"{{"wall_ms": {launch_wall_ms}, "gauge.phys.frames.in_use": 1000}}"#);
    write_snapshot_of(
        name,
        &[
            ("launch", "{}", &launch),
            ("steady", "{}", r#"{"wall_ms": 64}"#),
        ],
        r#"{"share.unshare": 400}"#,
        total_wall_ms,
    )
}

/// Every experiment's stdout is byte-pinned: `all --quick` must print
/// exactly the golden. (A change that means to move a table
/// regenerates it: see SKILL.md.)
#[test]
fn all_quick_stdout_matches_the_golden() {
    let golden = include_str!("golden/all_quick.txt");
    let out_path = tmp("golden.json");
    let stdout = repro_ok(
        &["all", "--quick", "--out", out_path.to_str().unwrap()],
        &[],
    );
    if stdout != golden {
        let line = stdout
            .lines()
            .zip(golden.lines())
            .position(|(got, want)| got != want)
            .unwrap_or_else(|| stdout.lines().count().min(golden.lines().count()));
        panic!(
            "stdout differs from the golden at line {}:\n  got:  {:?}\n  want: {:?}",
            line + 1,
            stdout.lines().nth(line),
            golden.lines().nth(line)
        );
    }
}

/// An unknown verb exits 1 and lists every experiment of the table.
#[test]
fn unknown_verb_lists_the_verb_table() {
    let out = repro(&["bogus", "--quick"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        stderr.trim_end(),
        "repro bogus: unknown experiment 'bogus' (try: table1 fig2 fig3 table2 fig4 latfault \
         table3 table4 launch steady fig13 ablations scalability grouped pollution smaps \
         extensions reach timeshare fleet serve pressure all)"
    );
}

#[test]
fn check_passes_on_healthy_artifacts_and_fails_on_corruption() {
    let snap = write_snapshot("check-snap.json", 100.0, 200.0);
    let trace = write_trace("check-trace.json", None);
    let stdout = repro_ok(
        &[
            "check",
            "--trace",
            trace.to_str().unwrap(),
            "--out",
            snap.to_str().unwrap(),
        ],
        &[],
    );
    assert!(stdout.contains("spans paired"), "{stdout}");
    assert!(stdout.contains("4 samples over 2 gauges"), "{stdout}");

    // Deliberately corrupted trace #1: a span that never ends.
    let broken = write_trace("check-dangling.json", Some("dangling_begin"));
    let out = repro(&[
        "check",
        "--trace",
        broken.to_str().unwrap(),
        "--out",
        snap.to_str().unwrap(),
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("never ends"), "{stderr}");

    // Deliberately corrupted trace #2: a timestamp rewound on one
    // thread (monotonicity violation).
    let broken = write_trace("check-rewind.json", Some("tick_rewind"));
    let out = repro(&[
        "check",
        "--trace",
        broken.to_str().unwrap(),
        "--out",
        snap.to_str().unwrap(),
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("not monotonic"), "{stderr}");
}

#[test]
fn report_renders_all_three_formats_from_a_trace() {
    let trace = write_trace("report-trace.json", None);
    let path = trace.to_str().unwrap();

    let out = repro(&["report", path]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Unshare causes (Figure 6)"), "{text}");
    assert!(text.contains("write_fault"), "{text}");

    let out = repro(&["report", "--trace", path, "--format", "json"]);
    assert!(out.status.success());
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(json.contains("\"schema\": \"sat-obs/report-v1\""), "{json}");
    assert!(json.contains("\"p95\""), "{json}");

    let out = repro(&["report", path, "--format", "folded"]);
    assert!(out.status.success());
    let folded = String::from_utf8_lossy(&out.stdout);
    assert!(folded.contains("pid2;android;launch.exec 750"), "{folded}");

    let out = repro(&["report"]);
    assert!(!out.status.success(), "report without a trace must fail");
}

#[test]
fn timeline_renders_windows_and_gauge_series_from_a_trace() {
    let trace = write_trace("timeline-trace.json", None);
    let path = trace.to_str().unwrap();

    let text = repro_ok(&["timeline", path], &[]);
    assert!(text.contains("repro timeline"), "{text}");
    assert!(text.contains("Windowed event counts"), "{text}");
    assert!(text.contains("Windowed rates (per 1k ticks)"), "{text}");
    assert!(text.contains("phys.frames.free"), "{text}");
    assert!(text.contains("phys.slab.live"), "{text}");

    // An explicit window width works and still reconciles.
    let out = repro(&["timeline", "--trace", path, "--window", "2"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("window 2 ticks"), "{text}");

    let out = repro(&["timeline"]);
    assert!(!out.status.success(), "timeline without a trace must fail");

    let out = repro(&["timeline", path, "--window", "0"]);
    assert!(!out.status.success(), "--window 0 must be rejected");
}

/// Corrupt traces fail `timeline` with the reason, not a panic or a
/// wrapped count: an out-of-order stream (its span would underflow)
/// and a shootdown whose IPI count would go negative.
#[test]
fn timeline_rejects_unsorted_and_impossible_traces() {
    for (breakage, want) in [
        (
            "tick_rewind",
            "event stream is not tick-sorted (tick 0 after tick",
        ),
        (
            "negative_ipis",
            "\"cores_local\" 2 exceeds \"cores_targeted\" 1",
        ),
    ] {
        let trace = write_trace(&format!("timeline-{breakage}.json"), Some(breakage));
        for window in [&[][..], &["--window", "3"]] {
            let out = repro(&[&["timeline", trace.to_str().unwrap()], window].concat());
            assert!(!out.status.success(), "{breakage}: must exit non-zero");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(stderr.contains(want), "{breakage}: {stderr}");
            assert!(!stderr.contains("panicked"), "{breakage}: {stderr}");
        }
    }
}

#[test]
fn experiment_filter_slices_report_and_timeline() {
    let trace = write_trace("exp-trace.json", None);
    let path = trace.to_str().unwrap();

    let text = repro_ok(&["report", path, "--experiment", "launch"], &[]);
    assert!(text.contains("write_fault"), "{text}");

    let out = repro(&["timeline", path, "--experiment", "launch"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("phys.frames.free"), "{text}");

    // An unknown experiment fails and names the traced ones.
    let out = repro(&["timeline", path, "--experiment", "nope"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("launch"), "{stderr}");
}

/// One `repro diff` gate case: a metric (or, with the `counter.`
/// prefix, a run-wide counter), the frame budget (0 = none) and value
/// on each side, and whether the gate must fail.
type GateCase = (&'static str, (u64, u64), (u64, u64), bool);

/// One case per rule row of `snapshot::RULES`, plus host time moving
/// (+50%, and a 20ms cell growing to 400ms) and reclaim volume under a
/// changed budget — both a note, not a verdict.
const GATE_CASES: [GateCase; 8] = [
    ("wall_ms", (0, 0), (100, 150), false),
    ("wall_ms", (0, 0), (20, 400), false),
    ("counter.share.unshare", (0, 0), (400, 600), true),
    ("gauge.phys.frames.in_use", (0, 0), (1000, 1500), true),
    ("latency.p99", (0, 0), (120_000, 180_000), true),
    ("reclaim.pages", (900, 900), (400, 600), true),
    ("reclaim.pages", (900, 600), (400, 4000), false),
    ("translation.waste_frames", (0, 0), (960, 1440), true),
];

fn run_gate_cases(family: &str) {
    for (i, &(key, budgets, values, regresses)) in GATE_CASES
        .iter()
        .enumerate()
        .filter(|(_, c)| c.0.starts_with(family))
    {
        let write = |side: &str, budget: u64, value: u64| {
            let params = match budget {
                0 => "{}".to_string(),
                n => format!(r#"{{"mem_frames": {n}}}"#),
            };
            let (metrics, counters) = match key.strip_prefix("counter.") {
                Some(counter) => ("{}".to_string(), format!(r#"{{"{counter}": {value}}}"#)),
                None => (format!(r#"{{"{key}": {value}}}"#), "{}".to_string()),
            };
            let path = write_snapshot_of(
                &format!("gate-{i}-{side}.json"),
                &[("cell", &params, &metrics)],
                &counters,
                100.0,
            );
            path.to_str().unwrap().to_string()
        };
        let old = write("old", budgets.0, values.0);
        let new = write("new", budgets.1, values.1);

        let out = repro(&["diff", &old, &old]);
        assert!(out.status.success(), "{key}: identical must pass");

        let out = repro(&["diff", &old, &new, "--threshold-pct", "25"]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(!out.status.success(), regresses, "{key}: {stdout}");
        let expect = match (regresses, key.strip_prefix("counter.")) {
            (false, _) if key == "wall_ms" => {
                format!("note         cell.{key}: {} -> {} (", values.0, values.1)
            }
            (false, _) => "note         cell.params: ".to_string(),
            (true, Some(_)) => format!("REGRESSION   total.{key}: {} -> {} (", values.0, values.1),
            (true, None) => format!("REGRESSION   cell.{key}: {} -> {} (", values.0, values.1),
        };
        assert!(stdout.contains(&expect), "{key}: {stdout}");
        assert_eq!(
            stdout.contains("cell.reclaim"),
            regresses && key.starts_with("reclaim")
        );
    }
}

/// Host time is reported, never judged: `wall_ms` moving past the
/// threshold prints as a note marked as such and the diff exits 0.
/// (The name dates from when it gated.)
#[test]
fn diff_gates_on_wall_time_regressions() {
    run_gate_cases("wall_ms");

    let baseline = write_snapshot("diff-old.json", 100.0, 200.0);
    let slower = write_snapshot("diff-new.json", 150.0, 300.0);
    let (baseline, slower) = (baseline.to_str().unwrap(), slower.to_str().unwrap());
    for (old, new) in [(baseline, slower), (slower, baseline)] {
        let out = repro(&["diff", old, new]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "wall_ms must not gate: {stdout}");
        for record in ["launch", "total"] {
            let note = stdout
                .lines()
                .find(|l| l.contains(&format!(" {record}.wall_ms: ")))
                .unwrap_or_else(|| panic!("no {record}.wall_ms line: {stdout}"));
            assert!(note.starts_with("note "), "{note}");
            assert!(note.contains("host time"), "{note}");
        }
        assert!(!stdout.contains("REGRESSION"), "{stdout}");
        assert!(!stdout.contains("improvement"), "{stdout}");
        // launch: wall_ms + gauge; steady: wall_ms; total: wall_ms +
        // one counter.
        assert!(stdout.contains("5 metrics compared, 0 regression(s)"));
    }
    // A generous threshold silences the notes too.
    let out = repro(&["diff", baseline, slower, "--threshold-pct", "80"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("repro diff: "), "{stdout}");

    let out = repro(&["diff", baseline]);
    assert!(!out.status.success(), "diff requires two snapshots");
}

/// `scale` is written once per run but decides what every record
/// means (every workload size follows it): snapshots at different
/// scales compare nothing, say why, and exit 0 — however far the
/// numbers moved. (The name dates from the worker pool, when the thread
/// count decided it too.)
#[test]
fn diff_compares_nothing_across_scales_or_thread_counts() {
    let old = write_snapshot_of(
        "scale-old.json",
        &[(
            "serve_stock",
            "{}",
            r#"{"wall_ms": 50, "gauge.kernel.processes": 90, "latency.p99": 200000}"#,
        )],
        r#"{"share.unshare": 400}"#,
        100.0,
    );
    let moved = write_snapshot_of(
        "scale-moved.json",
        &[(
            "serve_stock",
            "{}",
            r#"{"wall_ms": 160, "gauge.kernel.processes": 901, "latency.p99": 900000}"#,
        )],
        r#"{"share.unshare": 4000}"#,
        400.0,
    );
    let text = std::fs::read_to_string(&moved).unwrap();
    let out = repro(&["diff", old.to_str().unwrap(), moved.to_str().unwrap()]);
    assert!(!out.status.success(), "like for like, the doctoring gates");
    let (quick, paper) = (r#""scale": "quick""#, r#""scale": "paper""#);
    assert!(text.contains(quick));
    let new = tmp("scale-new.json");
    std::fs::write(&new, text.replace(quick, paper)).unwrap();
    let out = repro(&["diff", old.to_str().unwrap(), new.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    for record in ["serve_stock", "total"] {
        let note = format!("note         {record}.params: ");
        assert!(stdout.contains(&note), "{stdout}");
    }
    assert!(stdout.contains("params changed; metrics not compared"));
    assert!(!stdout.contains("wall_ms: "), "{stdout}");
    assert!(!stdout.contains("latency"), "{stdout}");
    assert!(stdout.contains("repro diff: 0 metrics compared, 0 regression(s)"));
}

/// Inflated reclaim volume fails `repro diff` on the reclaim gate
/// specifically — unless the budget changed, which is only a note.
#[test]
fn diff_gates_on_doctored_reclaim_totals() {
    run_gate_cases("reclaim.");
}

/// The remaining rule rows, and the missing-metric note.
#[test]
fn diff_gates_on_every_other_rule_row() {
    for family in ["counter.", "gauge.", "latency.", "translation."] {
        run_gate_cases(family);
    }
    // A metric the new run lost is a note, never silent.
    let old = write_snapshot("lost-old.json", 100.0, 200.0);
    let new = write_snapshot_of(
        "lost-new.json",
        &[
            ("launch", "{}", r#"{"wall_ms": 100}"#),
            ("steady", "{}", r#"{"wall_ms": 64}"#),
        ],
        "{}",
        200.0,
    );
    let out = repro(&["diff", old.to_str().unwrap(), new.to_str().unwrap()]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for key in [
        "launch.gauge.phys.frames.in_use: 1000",
        "total.counter.share.unshare: 400",
    ] {
        let line = format!("note         {key} -> missing from the new snapshot");
        assert!(stdout.contains(&line), "{stdout}");
    }
}

/// Only the current schema is read: the diff refuses an older file and
/// says how to refresh it.
#[test]
fn diff_rejects_an_old_schema_with_the_refresh_hint() {
    let new = write_snapshot("schema-new.json", 100.0, 200.0);
    let old = tmp("schema-v7.json");
    let v7 = std::fs::read_to_string(&new)
        .unwrap()
        .replace("repro-v8", "repro-v7");
    std::fs::write(&old, v7).unwrap();
    let out = repro(&["diff", old.to_str().unwrap(), new.to_str().unwrap()]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("repro-v7"), "{stderr}");
    assert!(
        stderr.contains("refresh the file with: repro all --quick"),
        "{stderr}"
    );
}

/// Malformed flag input must produce an error message and a nonzero
/// exit, never a panic.
#[test]
fn malformed_threshold_pct_exits_nonzero_with_a_message() {
    let baseline = write_snapshot("bad-flag-old.json", 100.0, 200.0);
    let same = write_snapshot("bad-flag-new.json", 100.0, 200.0);
    for bad in ["abc", "-5", "25%"] {
        let out = repro(&[
            "diff",
            baseline.to_str().unwrap(),
            same.to_str().unwrap(),
            "--threshold-pct",
            bad,
        ]);
        assert!(!out.status.success(), "--threshold-pct {bad} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("bad --threshold-pct"), "{stderr}");
        assert!(
            !stderr.contains("panicked"),
            "bad input must not panic: {stderr}"
        );
    }
    // A flag with its value missing is an error too.
    let out = repro(&[
        "diff",
        baseline.to_str().unwrap(),
        same.to_str().unwrap(),
        "--threshold-pct",
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("requires a number"), "{stderr}");
}

/// Runs `repro <verb> --quick` with a trace, returning stdout and the
/// artifact paths.
fn run_traced(verb: &str, tag: &str, ring: &str) -> (String, PathBuf, PathBuf) {
    let trace = tmp(&format!("{verb}-trace-{tag}.json"));
    let snap = tmp(&format!("{verb}-snap-{tag}.json"));
    let (trace_arg, snap_arg) = (trace.to_str().unwrap(), snap.to_str().unwrap());
    let stdout = repro_ok(
        &[verb, "--quick", "--trace", trace_arg, "--out", snap_arg],
        &[("SAT_OBS_RING", ring)],
    );
    (stdout, trace, snap)
}

/// A record is a function of its verb and scale: the serve records of
/// a traced `serve --quick` equal the ones inside a traced `all
/// --quick` — gauge peaks included, whatever machines the experiments
/// before them left behind — but for host time. (The registry is exact
/// under ring overflow, so the default ring will do.)
#[test]
fn serve_records_are_the_same_alone_and_inside_all() {
    let records = |verb: &str| {
        let (_, _, snap) = run_traced(verb, "alone-vs-all", "65536");
        let mut snap = sat_bench::snapshot::Snapshot::load(snap.to_str().unwrap()).unwrap();
        assert!(snap.traced());
        ["serve_stock", "serve_shared"].map(|name| {
            let mut rec = snap.experiments.remove(name).expect(name);
            rec.metrics
                .remove("wall_ms")
                .expect("host time is recorded");
            assert!(rec.metrics.contains_key("gauge.phys.frames.in_use"));
            rec
        })
    };
    assert_eq!(records("serve"), records("all"));
}

/// The serve workload is seeded and cycle-clocked: repeated runs must
/// be byte-identical, and the snapshot must carry the latency
/// percentiles `repro diff` gates on.
#[test]
fn serve_is_deterministic_and_snapshots_latency() {
    let run = |out_name: &str| -> String {
        let out_path = tmp(out_name);
        repro_ok(
            &["serve", "--quick", "--out", out_path.to_str().unwrap()],
            &[],
        )
    };
    let first = run("serve-a.json");
    let second = run("serve-b.json");
    assert!(first.contains("serving bursty requests"), "{first}");
    assert!(first.contains("p99"), "{first}");
    assert_eq!(first, second, "repeated serve run changed the table");

    let snap = std::fs::read_to_string(tmp("serve-a.json")).unwrap();
    assert!(
        snap.contains("\"schema\": \"sat-bench/repro-v8\""),
        "{snap}"
    );
    assert!(snap.contains("\"name\": \"serve_stock\""), "{snap}");
    assert!(snap.contains("\"name\": \"serve_shared\""), "{snap}");
    assert!(snap.contains("\"latency.p99\": "), "{snap}");
    // Without a budget the records carry no reclaim metrics at all.
    assert!(!snap.contains("\"mem_frames\""), "{snap}");
    assert!(!snap.contains("\"reclaim."), "{snap}");
}

/// A losslessly traced serve run reconciles exactly, and `repro tails`
/// honors `--top K`.
#[test]
fn tails_breaks_down_slowest_requests_from_a_serve_trace() {
    let (_, trace, snap) = run_traced("serve", "tails", "2097152");
    let path = trace.to_str().unwrap();

    let stdout = repro_ok(
        &["check", "--trace", path, "--out", snap.to_str().unwrap()],
        &[],
    );
    assert!(stdout.contains("0 dropped"), "{stdout}");
    assert!(
        !stdout.contains("blame attribution is partial"),
        "lossless trace must not warn: {stdout}"
    );

    let text = repro_ok(&["tails", path, "--top", "2"], &[]);
    assert!(text.contains("serve_stock"), "{text}");
    assert!(text.contains("serve_shared"), "{text}");
    assert!(text.contains("attribution exact"), "{text}");
    assert!(text.contains("Top 2 slowest requests"), "{text}");
    assert!(text.contains("runq_wait"), "{text}");

    // --experiment narrows to one bracket.
    let out = repro(&["tails", path, "--experiment", "serve_shared"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("serve_shared"), "{text}");
    assert!(!text.contains("serve_stock"), "{text}");

    // No trace, bad --top, unknown flag: errors, not panics.
    let out = repro(&["tails"]);
    assert!(!out.status.success(), "tails without a trace must fail");
    let out = repro(&["tails", path, "--top", "0"]);
    assert!(!out.status.success(), "--top 0 must be rejected");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("bad --top"), "{stderr}");
    let out = repro(&["serve", "--quick", "--bogus"]);
    assert!(!out.status.success(), "unknown flags must be rejected");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag '--bogus'"), "{stderr}");
    assert!(stderr.contains("--top"), "{stderr}");

    // A flow-free trace is an error for tails.
    let plain = write_trace("tails-no-flows.json", None);
    let out = repro(&["tails", plain.to_str().unwrap()]);
    assert!(!out.status.success(), "flow-free trace must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("no flow events"), "{stderr}");
}

/// An overflowing ring under a charge-carrying trace makes `repro
/// check` warn that blame attribution is partial (and still pass —
/// the stream itself is valid).
#[test]
fn check_warns_on_partial_blame_attribution() {
    let (_, trace, snap) = run_traced("serve", "partial", "65536");
    let stdout = repro_ok(
        &[
            "check",
            "--trace",
            trace.to_str().unwrap(),
            "--out",
            snap.to_str().unwrap(),
        ],
        &[],
    );
    assert!(stdout.contains("blame attribution is partial"), "{stdout}");
}

/// The quick-scale uncapped serve peak, for sizing budgets that must
/// bite on both kernels.
fn quick_serve_peak_floor() -> u64 {
    use sat_bench::servebench::{serve_kernel, serve_kernels};
    use sat_bench::Scale;
    serve_kernels()
        .into_iter()
        .map(|(_, label, config)| {
            let (_, r) = serve_kernel(Scale::Quick, label, config, None).unwrap();
            r.frames_peak
        })
        .min()
        .expect("two serve kernels")
}

/// `--mem-frames` is validated like every other flag: bad values and
/// wrong commands are errors with messages, never panics.
#[test]
fn mem_frames_flag_is_validated() {
    for bad in ["0", "abc", "-5", "12.5"] {
        let out = repro(&["serve", "--quick", "--mem-frames", bad]);
        assert!(!out.status.success(), "--mem-frames {bad} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("bad --mem-frames"), "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
    // Value missing entirely.
    let out = repro(&["serve", "--quick", "--mem-frames"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("requires a frame count"), "{stderr}");
    // Only serve takes a budget; pressure derives its own.
    for cmd in ["timeshare", "pressure", "all"] {
        let out = repro(&[cmd, "--quick", "--mem-frames", "1000"]);
        assert!(!out.status.success(), "{cmd} must reject --mem-frames");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("only applies to the serve experiment"),
            "{stderr}"
        );
    }
    // The unknown-flag hint advertises it.
    let out = repro(&["serve", "--quick", "--bogus"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--mem-frames"), "{stderr}");
}

/// A budgeted serve run reclaims, renders the reclaim columns, stays
/// deterministic, and snapshots `_mem`-suffixed records that diff
/// cleanly against an uncapped baseline.
#[test]
fn budgeted_serve_reclaims_and_snapshots_mem_records() {
    let budget = (quick_serve_peak_floor() * 3 / 4).to_string();
    let run = |out_name: &str| -> String {
        let out_path = tmp(out_name);
        let out_arg = out_path.to_str().unwrap();
        repro_ok(
            &[
                "serve",
                "--quick",
                "--mem-frames",
                &budget,
                "--out",
                out_arg,
            ],
            &[],
        )
    };
    let first = run("serve-mem-a.json");
    let second = run("serve-mem-b.json");
    assert!(first.contains("frame budget"), "{first}");
    assert!(first.contains("reclaims"), "{first}");
    assert!(first.contains("refaults"), "{first}");
    assert_eq!(first, second, "budgeted serve run changed the table");

    let snap = std::fs::read_to_string(tmp("serve-mem-a.json")).unwrap();
    assert!(snap.contains("\"name\": \"serve_stock_mem\""), "{snap}");
    assert!(snap.contains("\"name\": \"serve_shared_mem\""), "{snap}");
    assert!(
        snap.contains(&format!("\"params\": {{\"mem_frames\": {budget}}}")),
        "{snap}"
    );
    assert!(snap.contains("\"reclaim.passes\": "), "{snap}");

    // The budget bit, so check must not warn about it.
    let stdout = repro_ok(
        &["check", "--out", tmp("serve-mem-a.json").to_str().unwrap()],
        &[],
    );
    assert!(!stdout.contains("never bit"), "{stdout}");

    // Two runs of the same binary diff clean at a 0% gate, reclaim and
    // latency rows included: every simulated metric is equal, and host
    // time — under a parallel test run it swings past any threshold —
    // is only ever a note.
    let (a, b) = (tmp("serve-mem-a.json"), tmp("serve-mem-b.json"));
    let (a, b) = (a.to_str().unwrap(), b.to_str().unwrap());
    let out = repro(&["diff", a, b, "--threshold-pct", "0"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(!stdout.contains("REGRESSION"), "{stdout}");
    assert!(!stdout.contains("improvement"), "{stdout}");
    for line in stdout.lines().filter(|l| !l.starts_with("repro diff:")) {
        assert!(
            line.starts_with("note ") && line.contains(".wall_ms: "),
            "identical budgeted serve runs differ beyond wall time: {stdout}"
        );
    }
    // Per kernel: wall_ms, three latency percentiles and five reclaim
    // totals; run-wide: wall_ms (untraced, so no gauges or counters).
    assert!(
        stdout.contains("repro diff: 19 metrics compared, 0 regression(s)"),
        "{stdout}"
    );
}

/// A budget far above the peak never reclaims; `repro check` says so.
#[test]
fn check_warns_when_the_frame_budget_never_bites() {
    let snap = tmp("serve-slack.json");
    let slack = ["serve", "--quick", "--mem-frames", "100000000"];
    repro_ok(
        &[&slack[..], &["--out", snap.to_str().unwrap()]].concat(),
        &[],
    );
    let stdout = repro_ok(&["check", "--out", snap.to_str().unwrap()], &[]);
    assert!(stdout.contains("frame budget never bit"), "{stdout}");
    assert!(stdout.contains("reclaimed zero pages"), "{stdout}");
}

/// `repro reach` snapshots per-strategy translation totals, and
/// `repro check` owns the coverage floor: a real run passes silently,
/// a doctored snapshot whose promoted cell never collapsed anything
/// draws the scanner-never-fired warning.
#[test]
fn reach_snapshots_translation_and_check_covers_the_scanner() {
    let snap = tmp("reach-snap.json");
    let stdout = repro_ok(&["reach", "--quick", "--out", snap.to_str().unwrap()], &[]);
    assert!(stdout.contains("translation reach"), "{stdout}");
    let text = std::fs::read_to_string(&snap).unwrap();
    assert!(text.contains("\"name\": \"reach_promoted\""), "{text}");
    assert!(text.contains("\"translation.promotions\": 96"), "{text}");

    let stdout = repro_ok(&["check", "--out", snap.to_str().unwrap()], &[]);
    assert!(!stdout.contains("never fired"), "{stdout}");

    // Doctor the snapshot: zero out the promoted cell's collapses.
    let doctored = text.replace(
        "\"translation.promotions\": 96",
        "\"translation.promotions\": 0",
    );
    std::fs::write(&snap, doctored).unwrap();
    let stdout = repro_ok(&["check", "--out", snap.to_str().unwrap()], &[]);
    assert!(stdout.contains("promotion scanner never fired"), "{stdout}");
}

/// The pressure grid derives its budgets from the uncapped wave, so
/// the whole run is a pure function of the seed: byte-identical across
/// repeats. (The name dates from the worker pool.)
#[test]
fn pressure_is_deterministic_across_runs_and_thread_counts() {
    let run = |out_name: &str| -> String {
        let out_path = tmp(out_name);
        repro_ok(
            &["pressure", "--quick", "--out", out_path.to_str().unwrap()],
            &[],
        )
    };
    let first = run("pr-a.json");
    let second = run("pr-b.json");
    assert!(first.contains("serving under memory pressure"), "{first}");
    assert!(first.contains("starved"), "{first}");
    assert_eq!(first, second, "repeated run changed the pressure grid");

    // The snapshot carries every cell; finite cells carry budgets and
    // reclaim totals for the diff gate.
    let snap = std::fs::read_to_string(tmp("pr-a.json")).unwrap();
    for name in sat_bench::pressurebench::record_names() {
        assert!(snap.contains(&format!("\"name\": \"{name}\"")), "{snap}");
    }
    assert!(snap.contains("\"params\": {\"mem_frames\": "), "{snap}");
    assert!(snap.contains("\"reclaim.passes\": "), "{snap}");
}

/// The sat-sched experiment is a pure function of its seed: the same
/// run repeated must produce byte-identical tables. (The name dates
/// from the worker pool.)
#[test]
fn timeshare_is_deterministic_across_runs_and_thread_counts() {
    let run = |out_name: &str| -> String {
        let out_path = tmp(out_name);
        repro_ok(
            &["timeshare", "--quick", "--out", out_path.to_str().unwrap()],
            &[],
        )
    };
    let first = run("ts-a.json");
    let second = run("ts-b.json");
    assert!(first.contains("timesharing N apps"), "{first}");
    assert_eq!(first, second, "repeated run changed the table");
}
