//! `repro` — regenerates every table and figure of "Shared Address
//! Translation Revisited" (EuroSys '16) on the simulated stack.
//!
//! Usage:
//!
//! ```text
//! repro <experiment> [--quick] [--trace <path>] [--out <path>]
//! repro check [--trace <path>] [--out <path>]
//! repro report [--trace] <trace.json> [--format text|json|folded] [--experiment <name>]
//! repro timeline [--trace] <trace.json> [--window N] [--experiment <name>]
//! repro tails [--trace] <trace.json> [--top K] [--experiment <name>]
//! repro diff <old.json> <new.json>
//!
//! experiments:
//!   table1 fig2 fig3 table2 fig4   motivation study (Section 2.3)
//!   latfault                       soft-fault latency anchor
//!   table3 table4                  zygote fork (Section 4.2.1)
//!   fig7 fig8 fig9 launch          application launch (Section 4.2.2)
//!   fig10 fig11 fig12 steady       steady state (Section 4.2.3)
//!   fig13                          binder IPC (Section 4.2.4)
//!   ablations                      Section 3.1.3/3.2.3 design choices
//!   scalability grouped pollution smaps
//!                                  extension studies, one at a time
//!   extensions                     all four extension studies
//!   reach                          translation reach: 4KB vs shared vs 64KB promotion
//!   timeshare                      N apps timesharing 4 cores (sat-sched)
//!   fleet                          fork/timeshare/reap fleets to 4096 apps
//!   serve                          bursty request serving, stock vs shared
//!   pressure                       serving under a frame budget, stock vs shared
//!   all                            everything, in paper order
//! ```
//!
//! `--quick` runs scaled-down workloads (seconds instead of minutes).
//!
//! `repro pressure` is the one way to serve under a physical-frame
//! budget: it runs the stock-vs-shared serve pair over budgets it
//! derives from the uncapped peak footprint (`inf`/`tight`/`starved`).
//! Allocations that cross the low watermark trigger LRU reclaim, which
//! evicts file page-cache frames and tears the PTEs mapping them —
//! through the shared PTP when one exists — so the working set
//! refaults under pressure; the finite cells' records carry a
//! `"mem_frames"` param and `reclaim.*` metrics.
//!
//! `--trace <path>` installs the `sat-obs` recorder for the whole run
//! and writes a Chrome trace-event JSON (load it at `chrome://tracing`
//! or <https://ui.perfetto.dev>). Ring capacity comes from
//! `SAT_OBS_RING` (default 65,536 events; overflow drops the oldest
//! and is reported, never silent).
//!
//! `--out <path>` overrides where the snapshot is written; the default
//! remains `BENCH_repro.json` in the working directory.
//!
//! `repro check` re-opens both artifacts and validates them: the
//! snapshot's schema and records, and the trace's non-empty event
//! stream, subsystem coverage, per-thread tick monotonicity, and span
//! begin/end pairing. The verify smoke test runs it after `repro all
//! --quick --trace`.
//!
//! `repro report` re-ingests a trace and renders the analytics rollup
//! (Figure-6 unshare causes, flush attribution, span latencies with
//! p50/p95/p99, footprint overlap, gauge series) as text tables,
//! JSON, or folded flamegraph stacks. `repro timeline` rebuckets the
//! trace into tick windows — per-window fork/fault/flush-IPI rates
//! plus per-gauge min/max/high-water — and `--experiment <name>`
//! slices either verb to one experiment's `exp.<name>` bracket.
//! `repro tails` rebuilds per-request critical paths from the
//! `Flow*`/`CycleCharge` stream of a traced serve or pressure run and
//! prints the `--top K` slowest requests with their blame broken down
//! by cause, one section per `exp.<name>` bracket that carries flows
//! (exact on lossless traces: every request's charges sum to its
//! wall). `repro diff` compares two snapshots for equality — every
//! record's params and metrics, the run-wide record's included —
//! prints one `record.key: old -> new` line per difference, and exits
//! non-zero if there is any: the gate the verify skill runs against the
//! committed `BENCH_baseline.json`. Host-time claims go through
//! `satbench compare`.
//!
//! A flag given to a verb that does not read it is refused by name
//! (see [`FLAGS`]).
//!
//! Every experiment runs on the calling thread, one cell after the
//! other, and nothing in `repro` reads the host clock, so a record, the
//! trace and the trace's report are functions of the verb and scale
//! alone: two runs write byte-identical snapshots and traces.
//!
//! Besides the tables on stdout, every run writes the
//! `sat-bench/repro-v9` snapshot (`sat_bench::snapshot`, the one module
//! that knows its format): one record per experiment — `params`
//! (the scale, the frame budget of a budgeted cell) and one flat
//! `metrics` map (`latency.*`, `reclaim.*`, `translation.*` and, traced,
//! `gauge.*` high-water marks and the `event.*` counters the experiment
//! moved) — plus the run-wide record (`command`/`scale`/`traced`, and
//! the recorder's `counter.*` totals).
//!
//! Every experiment is one row of [`VERBS`]: its record name, figure
//! aliases, whether `all` runs it, its runner, and the subsystems its
//! trace must cover. Dispatch, `all`, the unknown-verb hint and `repro
//! check`'s coverage floor all read that table.

use std::process::ExitCode;

use sat_bench::{
    ablation, extensions, fleetbench, ipcbench, launchbench, motivation, pressurebench, reachbench,
    servebench, snapshot, steadybench, timesharebench, zygotebench, Scale,
};
use sat_obs::report::ReportFormat;
use sat_types::SatResult;
use snapshot::{Record, Snapshot};

/// Parsed command line.
struct Cli {
    cmd: String,
    /// Positionals after the command (`repro diff <old> <new>`).
    rest: Vec<String>,
    scale: Scale,
    trace: Option<String>,
    out: String,
    format: ReportFormat,
    /// Timeline window width in ticks (0 = auto: span/20).
    window: u64,
    /// Restrict report/timeline to one experiment's bracket.
    experiment: Option<String>,
    /// Slowest requests `repro tails` breaks down.
    top: usize,
}

/// Parses a numeric flag value: `bad <flag> '<raw>' (want <want>)`
/// unless it parses and is at least `min`.
fn number<T: std::str::FromStr + PartialOrd>(
    flag: &str,
    raw: &str,
    min: T,
    want: &str,
) -> Result<T, String> {
    raw.parse::<T>()
        .ok()
        .filter(|n| *n >= min)
        .ok_or_else(|| format!("bad {flag} '{raw}' (want {want})"))
}

/// The verbs that are not experiments.
const TOOLS: [&str; 5] = ["check", "report", "timeline", "tails", "diff"];

/// Stands for every experiment verb (and `all`) in [`FLAGS`].
const EXPERIMENTS: &str = "the experiments";

/// Every flag and the verbs that read it; any other verb refuses it.
const FLAGS: [(&str, &[&str]); 7] = [
    ("--quick", &[EXPERIMENTS]),
    (
        "--trace",
        &[EXPERIMENTS, "check", "report", "timeline", "tails"],
    ),
    ("--out", &[EXPERIMENTS, "check"]),
    ("--format", &["report"]),
    ("--window", &["timeline"]),
    ("--experiment", &["report", "timeline", "tails"]),
    ("--top", &["tails"]),
];

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        cmd: String::new(),
        rest: Vec::new(),
        scale: Scale::Paper,
        trace: None,
        out: String::new(),
        format: ReportFormat::Text,
        window: 0,
        experiment: None,
        top: 10,
    };
    let mut positionals = Vec::new();
    let mut given = Vec::new();
    let mut out = None;
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        let mut value = |what: &str| rest.next().ok_or_else(|| format!("{arg} requires {what}"));
        const INT: &str = "an integer >= 1";
        if arg.starts_with("--") {
            given.push(arg.as_str());
        }
        match arg.as_str() {
            "--quick" => cli.scale = Scale::Quick,
            "--trace" => cli.trace = Some(value("a path argument")?.clone()),
            "--out" => out = Some(value("a path argument")?.clone()),
            "--format" => {
                let name = value("text|json|folded")?;
                cli.format = ReportFormat::parse(name)
                    .ok_or_else(|| format!("unknown format '{name}' (want text|json|folded)"))?;
            }
            "--window" => cli.window = number(arg, value("a tick count")?, 1, INT)?,
            "--experiment" => cli.experiment = Some(value("a name")?.clone()),
            "--top" => cli.top = number(arg, value("a count")?, 1, INT)?,
            flag if flag.starts_with("--") => {
                let known: Vec<&str> = FLAGS.iter().map(|f| f.0).collect();
                return Err(format!(
                    "unknown flag '{flag}' (known: {})",
                    known.join(" ")
                ));
            }
            _ => positionals.push(arg.clone()),
        }
    }
    let mut positionals = positionals.into_iter();
    cli.cmd = positionals.next().unwrap_or_else(|| "all".to_string());
    cli.rest = positionals.collect();
    let (cmd, rest) = (&cli.cmd, &cli.rest);
    match cmd.as_str() {
        "diff" if rest.len() != 2 => {
            return Err(format!(
                "diff takes exactly two snapshots (got {}): repro diff <old.json> <new.json>",
                rest.len()
            ));
        }
        "diff" | "report" | "timeline" | "tails" => {}
        _ if !rest.is_empty() => {
            return Err(format!(
                "unexpected argument '{}' (command already given: '{cmd}')",
                rest[0]
            ));
        }
        _ => {}
    }
    let is_experiment = !TOOLS.contains(&cmd.as_str());
    for flag in given {
        let (_, readers) = FLAGS.iter().find(|f| f.0 == flag).expect("a known flag");
        if !readers
            .iter()
            .any(|r| r == cmd || (*r == EXPERIMENTS && is_experiment))
        {
            let whom: Vec<String> = readers
                .iter()
                .map(|&r| match r {
                    EXPERIMENTS => r.to_string(),
                    r if TOOLS.contains(&r) => r.to_string(),
                    verb => format!("the {verb} experiment"),
                })
                .collect();
            return Err(format!(
                "{flag} only applies to {} (got '{cmd}')",
                whom.join(", ")
            ));
        }
    }
    cli.out = out.unwrap_or_else(|| "BENCH_repro.json".to_string());
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("repro: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Every verb yields text for stdout and an exit code, or an error.
    let experiment = cli.experiment.as_deref();
    let outcome: Fallible<(String, ExitCode)> = match cli.cmd.as_str() {
        "check" => {
            let coverage = |cmd: &str| lookup(cmd).map_or(STANDARD, |v| v.coverage);
            snapshot::check(cli.trace.as_deref(), &cli.out, coverage)
                .map(|report| (report, ExitCode::SUCCESS))
                .map_err(Into::into)
        }
        tool @ ("report" | "timeline" | "tails") => {
            // The trace may arrive as `--trace <path>` or a positional.
            match cli.trace.as_ref().or(cli.rest.first()) {
                None => Err(format!("no trace given (repro {tool} <trace.json>)").into()),
                Some(path) => match tool {
                    "timeline" => timeline(path, cli.window, experiment),
                    "tails" => tails(path, cli.top, experiment),
                    _ => report(path, cli.format, experiment),
                }
                .map(|text| (text, ExitCode::SUCCESS)),
            }
        }
        "diff" => (|| {
            let old = Snapshot::load(&cli.rest[0])?;
            let new = Snapshot::load(&cli.rest[1])?;
            let lines = snapshot::diff(&old, &new);
            let mut text: String = lines.iter().map(|l| format!("{l}\n")).collect();
            text += &format!("repro diff: {} difference(s)\n", lines.len());
            let gate = match lines.is_empty() {
                true => ExitCode::SUCCESS,
                false => ExitCode::FAILURE,
            };
            Ok((text, gate))
        })(),
        _ => run_and_record(&cli).map(|text| (text, ExitCode::SUCCESS)),
    };
    match outcome {
        Ok((text, code)) => {
            print!("{text}");
            code
        }
        Err(e) => {
            eprintln!("repro {}: {e}", cli.cmd);
            ExitCode::FAILURE
        }
    }
}

/// Runs the experiment verb `cli.cmd` (under the recorder with
/// `--trace`), writes the trace and the snapshot, and returns the
/// rendered tables.
fn run_and_record(cli: &Cli) -> Fallible {
    if cli.trace.is_some() {
        sat_obs::install(sat_obs::env_ring_capacity());
    }
    let mut records = Vec::new();
    let output = run(&cli.cmd, cli.scale, &mut records)?;
    let recording = cli.trace.as_ref().and_then(|_| sat_obs::uninstall());
    if let (Some(path), Some(rec)) = (&cli.trace, &recording) {
        if let Err(e) = std::fs::write(path, sat_obs::chrome_trace_json(rec)) {
            eprintln!("repro: could not write trace {path}: {e}");
        }
    }
    let counters = recording.as_ref().map(|rec| rec.metrics.counters_map());
    let snap = Snapshot::new(&cli.cmd, cli.scale, records, counters);
    if let Err(e) = std::fs::write(&cli.out, snap.render()) {
        eprintln!("repro: could not write {}: {e}", cli.out);
    }
    Ok(output)
}

type Fallible<T = String> = Result<T, Box<dyn std::error::Error>>;

/// Runs `body` as one recorded experiment, appending its record on
/// success. `body` returns the rendered text plus whatever the caller
/// wants back, and may add params and metrics of its own to the
/// record. With a recorder installed, the record also carries each
/// gauge's peak over the experiment and the counters it moved, so the
/// snapshot attributes event volume per experiment.
fn recorded<T>(
    records: &mut Vec<Record>,
    name: &str,
    body: impl FnOnce(&mut Record) -> Fallible<(String, T)>,
) -> Fallible<(String, T)> {
    let mut rec = Record::new(name);
    let counters = || sat_obs::with_recorder(|r| r.metrics().counters_map().clone());
    let before = counters().unwrap_or_default();
    // Open a fresh gauge window so the snapshot carries this
    // experiment's own high-water marks, and bracket the experiment
    // with an `exp.<name>` span (machine-level: pid 0) so `repro
    // report/timeline --experiment <name>` can slice the trace (all
    // no-ops untraced). An experiment spans many machines, so the
    // bracket ends with the ticks it encloses rather than any one
    // machine's cycles.
    sat_obs::with_recorder(|r| r.begin_gauge_window());
    let bracket = sat_obs::Span::open(
        sat_obs::Subsystem::Bench,
        0,
        || 0,
        format_args!("exp.{name}"),
    );
    let tick = || sat_obs::with_recorder(|r| r.tick()).unwrap_or_default();
    let first = tick();
    let out = body(&mut rec)?;
    bracket.close(tick() - first, sat_obs::SpanUnit::Ticks);
    if let Some(after) = counters() {
        let peaks = sat_obs::with_recorder(|r| r.metrics().window_gauge_high_waters());
        rec.add_observed(peaks.unwrap_or_default(), &before, &after);
    }
    records.push(rec);
    Ok(out)
}

/// A grid verb's run: the records its table row names, recorded one
/// by one in run order.
struct Cells<'a> {
    scale: Scale,
    names: std::vec::IntoIter<String>,
    records: &'a mut Vec<Record>,
}

impl Cells<'_> {
    /// Runs `body` as the grid's next recorded experiment.
    fn recorded<T>(
        &mut self,
        body: impl FnOnce(&mut Record) -> Fallible<(String, T)>,
    ) -> Fallible<(String, T)> {
        let name = self.names.next();
        let name = name.ok_or("the grid runs more cells than its verb row names")?;
        recorded(self.records, &name, body)
    }
}

/// How a verb produces its snapshot records.
enum Runner {
    /// One record named after the verb.
    Single(fn(Scale) -> SatResult<String>),
    /// One record per grid cell (static names, so `repro diff`
    /// compares each kernel / fleet size / budget on its own): the names
    /// in run order, and the runner that records each cell and renders
    /// the combined tables.
    Grid {
        records: fn(Scale) -> Vec<String>,
        run: fn(&mut Cells) -> Fallible,
    },
}
use Runner::{Grid, Single};

/// One experiment: a row of [`VERBS`].
struct Verb {
    /// The verb, and the record name of a [`Runner::Single`].
    name: &'static str,
    runner: Runner,
    /// Figures that come out of the same sweep.
    aliases: &'static [&'static str],
    /// Whether `repro all` runs it.
    in_all: bool,
    /// Subsystems a traced run of the verb must cover for `repro check`
    /// (the acceptance floor; `sim` and `bench` ride along).
    coverage: &'static [&'static str],
}

/// Coverage floor of `all` and of every verb that walks the app-launch
/// sequence.
const STANDARD: &[&str] = &["kernel", "share", "vm-fault", "tlb", "android"];

/// A verb that `all` runs, under the standard coverage floor; the
/// other rows override columns with `Verb { .., ..verb(..) }`.
const fn verb(name: &'static str, runner: Runner) -> Verb {
    Verb {
        name,
        runner,
        aliases: &[],
        in_all: true,
        coverage: STANDARD,
    }
}

/// Every experiment, in paper order (the order `all` runs them).
static VERBS: [Verb; 22] = [
    // Motivation study (Section 2.3).
    verb("table1", Single(|_| Ok(motivation::table1()))),
    verb("fig2", Single(|_| Ok(motivation::fig2()))),
    verb("fig3", Single(|_| Ok(motivation::fig3()))),
    verb("table2", Single(|_| Ok(motivation::table2()))),
    verb("fig4", Single(|_| Ok(motivation::fig4()))),
    // Zygote fork (Section 4.2.1) and its soft-fault latency anchor.
    verb("latfault", Single(zygotebench::latfault)),
    verb("table3", Single(zygotebench::table3)),
    verb("table4", Single(zygotebench::table4)),
    // Figures 7-9 come from one launch sweep (Section 4.2.2).
    Verb {
        aliases: &["fig7", "fig8", "fig9"],
        ..verb("launch", Single(launchbench::launch_experiment))
    },
    // Figures 10-12 come from one steady-state sweep (Section 4.2.3)
    // over the four suite configurations.
    Verb {
        aliases: &["fig10", "fig11", "fig12", "ptecopies"],
        ..verb("steady", Single(steadybench::steady_experiment))
    },
    verb("fig13", Single(ipcbench::fig13)),
    verb("ablations", Single(ablation::all)),
    // The extension studies, one at a time and (in `all`) together.
    Verb {
        in_all: false,
        ..verb("scalability", Single(extensions::scalability))
    },
    Verb {
        in_all: false,
        ..verb("grouped", Single(extensions::grouped_layout))
    },
    Verb {
        in_all: false,
        ..verb("pollution", Single(extensions::pte_pollution))
    },
    Verb {
        in_all: false,
        ..verb("smaps", Single(extensions::memory_accounting))
    },
    verb("extensions", Single(extensions::all)),
    // The reach grid drives demand faults, the promotion scanner, fork
    // sharing and size-tagged flushes, but never the app-launch
    // sequence: no `android` or `sched` events.
    Verb {
        coverage: &["kernel", "share", "vm-fault", "tlb"],
        ..verb(
            "reach",
            Grid {
                records: |_| reachbench::reach_kernels().map(|k| k.0.to_string()).into(),
                run: run_reach,
            },
        )
    },
    verb("timeshare", Single(timesharebench::timeshare)),
    // The fleet (stock and shared cells per N) drives fork/timeshare/
    // reap through the scheduler and never walks the app-launch
    // sequence: no `android` events.
    Verb {
        coverage: &["kernel", "share", "tlb", "sched", "bench"],
        ..verb(
            "fleet",
            Grid {
                records: fleetbench::record_names,
                run: run_fleet_grid,
            },
        )
    },
    // Request flows arrive through the scheduler (`sched`), every
    // charge site is machine-level (`sim`), and the servers boot from
    // the zygote (`android`, `kernel`, `share`, `tlb`).
    Verb {
        coverage: &["kernel", "share", "tlb", "sched", "sim", "android"],
        ..verb(
            "serve",
            Grid {
                records: |_| servebench::serve_kernels().map(|k| k.0.to_string()).into(),
                run: run_serve_pair,
            },
        )
    },
    Verb {
        in_all: false,
        ..verb(
            "pressure",
            Grid {
                records: |_| pressurebench::record_names(),
                run: run_pressure_grid,
            },
        )
    },
];

/// The table row for `cmd`, by name or figure alias.
fn lookup(cmd: &str) -> Option<&'static Verb> {
    VERBS
        .iter()
        .find(|v| v.name == cmd || v.aliases.contains(&cmd))
}

impl Verb {
    /// Snapshot record names, in run order. The table is their one
    /// source: `repro diff` keys on them, and the grid runners are
    /// handed them, never spell them.
    fn records(&self, scale: Scale) -> Vec<String> {
        match self.runner {
            Single(_) => vec![self.name.to_string()],
            Grid { records, .. } => records(scale),
        }
    }

    /// Runs the verb, appending its records.
    fn run(&self, records: &mut Vec<Record>, scale: Scale) -> Fallible {
        match self.runner {
            Single(body) => Ok(recorded(records, self.name, |_| Ok((body(scale)?, ())))?.0),
            Grid { run, .. } => run(&mut Cells {
                scale,
                names: self.records(scale).into_iter(),
                records,
            }),
        }
    }
}

/// Runs both serve kernels as separate records, then the
/// cross-kernel summary line.
fn run_serve_pair(cells: &mut Cells) -> Fallible {
    let scale = cells.scale;
    let mut s = String::new();
    let mut reports = Vec::new();
    for (_, label, config) in servebench::serve_kernels() {
        let (text, report) = cells.recorded(|rec| {
            let (text, r) = servebench::serve_kernel(scale, label, config)?;
            rec.add_metrics(servebench::snapshot_metrics(&r, false));
            Ok((text, r))
        })?;
        s.push_str(&text);
        reports.push(report);
    }
    s.push_str(&servebench::serve_summary(scale, &reports[0], &reports[1]));
    Ok(s)
}

/// Runs the sharing-under-pressure grid: one record per cell,
/// each carrying latency percentiles and — for the finite-budget
/// cells — the frame budget and reclaim totals.
fn run_pressure_grid(cells: &mut Cells) -> Fallible {
    let (text, _) = pressurebench::grid(cells.scale, |_, opts, config| {
        let budget = opts.mem_frames;
        let (_, report) = cells.recorded(|rec| {
            let r = sat_sched::run_serve(config, opts)?;
            if let Some(n) = budget {
                rec.set_budget(n);
            }
            rec.add_metrics(servebench::snapshot_metrics(&r, budget.is_some()));
            Ok((String::new(), r))
        })?;
        Ok::<_, Box<dyn std::error::Error>>(report)
    })?;
    Ok(text)
}

/// Runs the three translation-reach strategies as separate records,
/// then the combined table.
fn run_reach(cells: &mut Cells) -> Fallible {
    let scale = cells.scale;
    let mut grid = Vec::new();
    for (_, label, config) in reachbench::reach_kernels() {
        let (_, cell) = cells.recorded(|rec| {
            let cell = reachbench::reach_cell(label, config, scale)?;
            rec.add_metrics(cell.metrics());
            Ok((String::new(), cell))
        })?;
        grid.push(cell);
    }
    Ok(reachbench::reach_render(scale, &grid))
}

/// Runs every fleet size of the scale's grid, one record per N.
fn run_fleet_grid(cells: &mut Cells) -> Fallible {
    let mut s = String::new();
    for &(apps, cores) in fleetbench::fleet_counts(cells.scale) {
        s.push_str(
            &cells
                .recorded(|_| Ok((fleetbench::fleet_n(apps, cores)?, ())))?
                .0,
        );
    }
    Ok(s)
}

fn run(cmd: &str, scale: Scale, records: &mut Vec<Record>) -> Fallible {
    if cmd == "all" {
        let mut s = format!(
            "# Shared Address Translation Revisited — experiment suite ({scale:?} scale)\n\n"
        );
        for verb in VERBS.iter().filter(|v| v.in_all) {
            s.push_str(&verb.run(records, scale)?);
        }
        return Ok(s);
    }
    match lookup(cmd) {
        Some(verb) => verb.run(records, scale),
        None => {
            let verbs: Vec<&str> = VERBS.iter().map(|v| v.name).collect();
            Err(format!("unknown experiment '{cmd}' (try: {} all)", verbs.join(" ")).into())
        }
    }
}

/// Re-ingests a Chrome trace, optionally sliced to one experiment's
/// `exp.<name>` bracket.
fn load_trace(
    trace_path: &str,
    experiment: Option<&str>,
) -> Result<(Vec<sat_obs::Event>, u64), Box<dyn std::error::Error>> {
    let parsed = snapshot::read_trace(trace_path)?;
    match experiment {
        Some(name) => {
            let events = sat_obs::analyze::filter_experiment(&parsed.events, name)?;
            Ok((events, parsed.dropped))
        }
        None => Ok((parsed.events, parsed.dropped)),
    }
}

/// Re-ingests a Chrome trace and renders the analytics rollup.
fn report(trace_path: &str, format: ReportFormat, experiment: Option<&str>) -> Fallible {
    let (events, dropped) = load_trace(trace_path, experiment)?;
    let rollup = sat_obs::analyze::Rollup::from_events(&events, dropped);
    Ok(sat_obs::report::render(&rollup, format))
}

/// Re-ingests a Chrome trace and renders the windowed timeline
/// (per-window event rates plus gauge series).
fn timeline(trace_path: &str, window: u64, experiment: Option<&str>) -> Fallible {
    let (events, _) = load_trace(trace_path, experiment)?;
    let tl = sat_obs::analyze::Timeline::from_events(&events, window)?;
    Ok(sat_obs::report::render_timeline(&tl))
}

/// Re-ingests a trace and renders per-request tail blame: one section
/// per `exp.<name>` bracket that carries flows, in run order.
/// `--experiment` narrows to one bracket, and a trace whose flows lie
/// in no bracket is read whole.
fn tails(trace_path: &str, top: usize, experiment: Option<&str>) -> Fallible {
    use sat_obs::analyze::{filter_experiment, FlowTable};
    let (all_events, dropped) = load_trace(trace_path, None)?;
    let flows = |events: &[sat_obs::Event]| {
        Some(FlowTable::from_events(events)).filter(|t| t.completed() > 0 || t.charges > 0)
    };
    let mut tables: Vec<(String, FlowTable)> = Vec::new();
    match experiment {
        Some(name) => {
            let events = filter_experiment(&all_events, name)?;
            tables.extend(flows(&events).map(|t| (name.to_string(), t)));
        }
        None => {
            // The brackets by first begin, which is run order.
            let mut brackets: Vec<&str> = Vec::new();
            for event in &all_events {
                if let sat_obs::Payload::SpanBegin { name } = &event.payload {
                    match name.strip_prefix("exp.") {
                        Some(exp) if !brackets.contains(&exp) => brackets.push(exp),
                        _ => {}
                    }
                }
            }
            for name in brackets {
                let events = filter_experiment(&all_events, name)?;
                tables.extend(flows(&events).map(|t| (name.to_string(), t)));
            }
            if tables.is_empty() {
                tables.extend(flows(&all_events).map(|t| ("whole trace".to_string(), t)));
            }
        }
    }
    if tables.is_empty() {
        return Err(
            "no flow events in this trace (produce one with: repro serve --quick --trace <path>)"
                .into(),
        );
    }
    let mut out = String::new();
    if dropped > 0 {
        out.push_str(&format!(
            "repro tails: warning: {dropped} events were dropped from the ring — \
             blame attribution is partial\n\n"
        ));
    }
    for (label, table) in &tables {
        out.push_str(&sat_obs::report::render_tails(label, table, top));
        out.push('\n');
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verb_names_and_aliases_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for verb in &VERBS {
            for name in std::iter::once(&verb.name).chain(verb.aliases) {
                assert!(seen.insert(*name), "verb '{name}' is in the table twice");
            }
        }
        for tool in TOOLS.iter().chain(&["all"]) {
            assert!(!seen.contains(tool), "'{tool}' is not an experiment");
        }
    }

    #[test]
    fn all_writes_exactly_the_baseline_experiments() {
        let baseline = Snapshot::parse(
            include_str!("../../../../BENCH_baseline.json"),
            "BENCH_baseline.json",
        )
        .unwrap();
        assert_eq!(baseline.command(), "all");
        let mut in_all: Vec<String> = VERBS
            .iter()
            .filter(|v| v.in_all)
            .flat_map(|v| v.records(Scale::Quick))
            .collect();
        in_all.sort();
        let mut recorded: Vec<String> = baseline.experiments.into_iter().map(|r| r.name).collect();
        recorded.sort();
        assert_eq!(recorded, in_all);
    }
}
