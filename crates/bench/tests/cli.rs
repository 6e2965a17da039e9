//! End-to-end CLI tests for the experiment verbs (golden stdout),
//! `repro check`, `repro report`, `repro timeline`, `repro tails`, and
//! `repro diff`: real artifacts on disk, the real binary, real exit
//! codes.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Output};

use sat_bench::snapshot::{Record, Snapshot, SCHEMA};
use sat_bench::Scale;
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
    sat_obs::sample(|| {
        sat_obs::gauge_set("phys.frames.free", 1000);
        sat_obs::gauge_set("phys.slab.live", 80);
    });
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
    sat_obs::sample(|| {
        sat_obs::gauge_set("phys.frames.free", 850);
        sat_obs::gauge_set("phys.slab.live", 120);
    });
    sat_obs::emit(
        Subsystem::Bench,
        0,
        0,
        Payload::SpanEnd {
            name: "exp.launch".to_string(),
            value: 1234,
            unit: SpanUnit::Ticks,
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

/// The one snapshot fixture: a traced `all --quick` snapshot of two
/// experiments, one gauge and one run-wide counter.
fn write_snapshot(name: &str) -> PathBuf {
    let mut launch = Record::new("launch");
    let peaks = BTreeMap::from([("phys.frames.in_use".to_string(), 1000)]);
    launch.add_observed(peaks, &BTreeMap::new(), &BTreeMap::new());
    let counters = BTreeMap::from([("share.unshare".to_string(), 400)]);
    let experiments = vec![launch, Record::new("steady")];
    let snap = Snapshot::new("all", Scale::Quick, experiments, Some(&counters));
    let path = tmp(name);
    std::fs::write(&path, snap.render()).unwrap();
    path
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
    let snap = write_snapshot("check-snap.json");
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

/// A trace nested past the JSON parser's depth limit is refused with
/// the limit named and exit 1, not a stack overflow.
#[test]
fn report_refuses_a_trace_nested_past_the_depth_limit() {
    let trace = tmp("deep-trace.json");
    std::fs::write(&trace, "[".repeat(50_000)).unwrap();
    let out = repro(&["report", trace.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("nesting deeper than MAX_DEPTH (128)"),
        "{stderr}"
    );
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

/// `repro diff` is an equality: identical snapshots exit 0, one
/// counter moved exits 1 and names it, and `--threshold-pct` is an
/// unknown flag.
#[test]
fn diff_exits_one_on_any_simulated_difference_and_zero_otherwise() {
    let old = write_snapshot("diff-old.json");
    let moved = tmp("diff-moved.json");
    let text = std::fs::read_to_string(&old).unwrap();
    let counter = r#""counter.share.unshare": 400"#;
    assert!(text.contains(counter));
    let text = text.replace(counter, r#""counter.share.unshare": 399"#);
    std::fs::write(&moved, text).unwrap();
    let (old, moved) = (old.to_str().unwrap(), moved.to_str().unwrap());
    for (new, code, want) in [
        (old, 0, "repro diff: 0 difference(s)\n"),
        (
            moved,
            1,
            "total.counter.share.unshare: 400 -> 399\nrepro diff: 1 difference(s)\n",
        ),
    ] {
        let out = repro(&["diff", old, new]);
        assert_eq!(out.status.code(), Some(code), "{new}");
        assert_eq!(String::from_utf8_lossy(&out.stdout), want);
    }

    let out = repro(&["diff", old, old, "--threshold-pct", "0"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown flag '--threshold-pct'"),
        "{stderr}"
    );
    let out = repro(&["diff", old]);
    assert!(!out.status.success(), "diff requires two snapshots");
}

/// Every flag is refused, by name, by a verb that never reads it.
#[test]
fn a_flag_is_refused_by_a_verb_that_never_reads_it() {
    for (flag, args) in [
        ("--quick", &["diff", "a.json", "b.json", "--quick"][..]),
        (
            "--trace",
            &["diff", "a.json", "b.json", "--trace", "t.json"],
        ),
        ("--out", &["report", "t.json", "--out", "s.json"]),
        ("--format", &["table1", "--quick", "--format", "json"]),
        ("--window", &["table1", "--quick", "--window", "4"]),
        ("--experiment", &["check", "--experiment", "x"]),
        ("--top", &["timeline", "t.json", "--top", "2"]),
    ] {
        let out = repro(args);
        assert!(!out.status.success(), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let want = format!("{flag} only applies to ");
        assert!(stderr.contains(&want), "{args:?}: {stderr}");
        assert!(stderr.contains(&format!("(got '{}')", args[0])), "{stderr}");
    }
    // No verb takes a frame budget: `repro pressure` derives its own.
    for verb in ["serve", "pressure", "all"] {
        let out = repro(&[verb, "--quick", "--mem-frames", "1224"]);
        assert!(!out.status.success(), "{verb}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown flag '--mem-frames'"), "{stderr}");
    }
}

/// Only the current schema is read: the diff refuses an older file and
/// says how to refresh it.
#[test]
fn diff_rejects_an_old_schema_with_the_refresh_hint() {
    let new = write_snapshot("schema-new.json");
    let old = tmp("schema-v8.json");
    let v8 = std::fs::read_to_string(&new)
        .unwrap()
        .replace(SCHEMA, "sat-bench/repro-v8");
    std::fs::write(&old, v8).unwrap();
    let out = repro(&["diff", old.to_str().unwrap(), new.to_str().unwrap()]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("repro-v8"), "{stderr}");
    assert!(
        stderr.contains("refresh the file with: repro all --quick"),
        "{stderr}"
    );
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

/// A record is a function of its verb and scale: each grid verb run
/// alone, traced at the default ring, writes the committed baseline's
/// records — params, metrics and events equal, gauge peaks included,
/// whatever machines the experiments before them in `all` left behind.
/// (The registry is exact under ring overflow.)
#[test]
fn a_verb_run_alone_writes_the_baseline_records() {
    let baseline = Snapshot::load(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_baseline.json"
    ))
    .unwrap();
    std::thread::scope(|s| {
        for verb in ["reach", "fleet", "serve", "timeshare"] {
            let baseline = &baseline;
            s.spawn(move || {
                let (_, _, snap) = run_traced(verb, "alone", "65536");
                let fresh = Snapshot::load(snap.to_str().unwrap()).unwrap();
                assert!(fresh.traced());
                let mut expected = fresh.clone();
                for rec in &mut expected.experiments {
                    *rec = baseline.experiment(&rec.name).unwrap().clone();
                }
                let lines = sat_bench::snapshot::diff(&expected, &fresh);
                assert!(lines.is_empty(), "{verb}: {lines:#?}");
            });
        }
    });
}

/// Every number in a snapshot and every span in a trace is simulated,
/// none is host time: two traced runs of one verb write byte-identical
/// files. (The fleet grid runs the fleet phases and experiment
/// brackets, the two spans that once read the host clock.)
#[test]
fn two_traced_runs_write_byte_identical_snapshots_and_traces() {
    let read = |path: PathBuf| std::fs::read_to_string(path).unwrap();
    let run = |tag| {
        let (_, trace, snap) = run_traced("fleet", tag, "65536");
        (read(snap), read(trace))
    };
    let ((snap1, trace1), (snap2, trace2)) = (run("first"), run("second"));
    assert!(snap1.contains("\"gauge."), "{snap1}");
    assert!(
        trace1.contains("\"fleet.run\""),
        "no fleet span in the trace"
    );
    assert_eq!(snap1, snap2);
    assert!(trace1 == trace2, "two traced runs wrote different traces");
}

/// The serve workload is seeded and cycle-clocked: repeated runs must
/// be byte-identical, and the snapshot must carry the latency
/// percentiles `repro diff` compares.
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

    let snap = Snapshot::load(tmp("serve-a.json").to_str().unwrap()).unwrap();
    for name in ["serve_stock", "serve_shared"] {
        let rec = snap.experiment(name).unwrap();
        assert!(rec.metrics.contains_key("latency.p99"), "{rec:?}");
        // Without a budget the records carry no reclaim metrics at all.
        assert_eq!(rec.params.keys().collect::<Vec<_>>(), ["scale"]);
        assert!(!rec.metrics.keys().any(|k| k.starts_with("reclaim.")));
    }
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

/// A one-event ring (`SAT_OBS_RING=1`) fails cleanly: the traced run
/// still exits 0 with no panic, and `repro check` refuses the trace
/// for its coverage, naming the drop count and the remedy.
#[test]
fn check_names_the_overflow_when_a_tiny_ring_loses_coverage() {
    let (_, trace, snap) = run_traced("fig13", "ring1", "1");
    let out = repro(&[
        "check",
        "--trace",
        trace.to_str().unwrap(),
        "--out",
        snap.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("no events from subsystem(s)"), "{stderr}");
    assert!(
        stderr.contains("the ring overflowed and dropped"),
        "{stderr}"
    );
    assert!(stderr.contains("raise SAT_OBS_RING"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

/// A pressure snapshot whose budgets never reclaimed draws `repro
/// check`'s warning: the budget sat above the peak the whole run.
#[test]
fn check_warns_when_the_frame_budget_never_bites() {
    let snap = tmp("pressure-slack.json");
    repro_ok(
        &["pressure", "--quick", "--out", snap.to_str().unwrap()],
        &[],
    );
    let text = std::fs::read_to_string(&snap).unwrap();
    // Doctor the snapshot: every budgeted cell reclaimed nothing.
    const KEY: &str = "\"reclaim.pages\": ";
    let mut parts = text.split(KEY);
    let mut doctored = parts.next().unwrap().to_string();
    for part in parts {
        doctored += KEY;
        doctored += "0";
        doctored += part.trim_start_matches(|c: char| c.is_ascii_digit());
    }
    assert_eq!(doctored.matches("\"reclaim.pages\": 0,").count(), 4);
    std::fs::write(&snap, doctored).unwrap();
    let stdout = repro_ok(&["check", "--out", snap.to_str().unwrap()], &[]);
    assert!(stdout.contains("frame budget never bit"), "{stdout}");
    assert!(stdout.contains("4 budgeted experiment(s)"), "{stdout}");
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
/// repeats.
#[test]
fn pressure_is_deterministic_across_runs() {
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
    // reclaim totals for the diff.
    let snap = std::fs::read_to_string(tmp("pr-a.json")).unwrap();
    for name in sat_bench::pressurebench::record_names() {
        assert!(snap.contains(&format!("\"name\": \"{name}\"")), "{snap}");
    }
    assert!(snap.contains("\"params\": {\"mem_frames\": "), "{snap}");
    assert!(snap.contains("\"reclaim.passes\": "), "{snap}");

    // Every budget bit, so check does not warn; and two runs diff
    // clean, reclaim and latency rows included: every simulated number
    // is equal, and host time is never read.
    let (a, b) = (tmp("pr-a.json"), tmp("pr-b.json"));
    let stdout = repro_ok(&["check", "--out", a.to_str().unwrap()], &[]);
    assert!(!stdout.contains("warning"), "{stdout}");
    let out = repro(&["diff", a.to_str().unwrap(), b.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert_eq!(stdout, "repro diff: 0 difference(s)\n");
}

/// `repro tails` finds its flows in the trace: on a lossless pressure
/// trace it breaks down every cell's bracket, in run order.
#[test]
fn tails_reads_every_pressure_bracket_in_run_order() {
    let (_, trace, _) = run_traced("pressure", "tails", "2097152");
    let text = repro_ok(&["tails", trace.to_str().unwrap(), "--top", "1"], &[]);
    let sections: Vec<String> = text
        .lines()
        .filter_map(|l| l.strip_prefix("# repro tails — "))
        .map(|l| l.split(':').next().unwrap().to_string())
        .collect();
    assert_eq!(sections, sat_bench::pressurebench::record_names(), "{text}");
    assert_eq!(
        text.matches("attribution exact: 96 flows reconcile")
            .count(),
        6,
        "{text}"
    );
}

/// The sat-sched experiment is a pure function of its seed: the same
/// run repeated must produce byte-identical tables.
#[test]
fn timeshare_is_deterministic_across_runs() {
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
