//! `repro` — regenerates every table and figure of "Shared Address
//! Translation Revisited" (EuroSys '16) on the simulated stack.
//!
//! Usage:
//!
//! ```text
//! repro <experiment> [--quick] [--trace <path>] [--out <path>]
//! repro serve [--mem-frames N] [--quick] [--trace <path>] [--out <path>]
//! repro check [--trace <path>] [--out <path>]
//! repro report [--trace] <trace.json> [--format text|json|folded] [--experiment <name>]
//! repro timeline [--trace] <trace.json> [--window N] [--experiment <name>]
//! repro tails [--trace] <trace.json> [--top K] [--experiment <name>]
//! repro diff <old.json> <new.json> [--threshold-pct N]
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
//! `--mem-frames N` (serve only) installs a physical-frame budget of N
//! frames before the servers fork: allocations that cross the low
//! watermark trigger LRU reclaim, which evicts file page-cache frames
//! and tears the PTEs mapping them — through the shared PTP when one
//! exists — so the working set refaults under pressure. The serve
//! table grows reclaim columns and the snapshot records carry a
//! `"mem_frames"` param and `reclaim.*` metrics. The `pressure` experiment
//! runs the whole stock-vs-shared grid over budgets it derives itself
//! (`inf`/`tight`/`starved` from the uncapped peak footprint).
//!
//! `--trace <path>` installs the `sat-obs` recorder for the whole run
//! and writes a Chrome trace-event JSON (load it at `chrome://tracing`
//! or <https://ui.perfetto.dev>). Ring capacity comes from
//! `SAT_OBS_RING` (default 65,536 events; overflow drops the oldest
//! and is reported, never silent).
//!
//! `--out <path>` overrides where the metrics snapshot is written; the
//! default remains `BENCH_repro.json` in the working directory.
//!
//! `repro check` re-opens both artifacts and validates them: schema
//! string, non-empty event stream, subsystem coverage, per-thread
//! tick monotonicity, and span begin/end pairing. The verify smoke
//! test runs it after `repro all --quick --trace`.
//!
//! `repro report` re-ingests a trace and renders the analytics rollup
//! (Figure-6 unshare causes, flush attribution, span latencies with
//! p50/p95/p99, footprint overlap, gauge series) as text tables,
//! JSON, or folded flamegraph stacks. `repro timeline` rebuckets the
//! trace into tick windows — per-window fork/fault/flush-IPI rates
//! plus per-gauge min/max/high-water — and `--experiment <name>`
//! slices either verb to one experiment's `exp.<name>` bracket.
//! `repro tails` rebuilds per-request critical paths from the
//! `Flow*`/`CycleCharge` stream of a traced serve run and prints the
//! `--top K` slowest requests with their blame broken down by cause
//! (exact on lossless traces: every request's charges sum to its
//! wall). `repro diff` compares two snapshots metric by metric and
//! exits non-zero when a simulated metric regressed past the threshold
//! — the gate the verify skill runs against the committed
//! `BENCH_baseline.json`. `wall_ms` is host time: recorded and
//! reported, never judged (host-time claims go through `satbench
//! compare`).
//!
//! Every experiment runs on the calling thread, one cell after the
//! other, so a record is a function of its verb and scale alone
//! (`wall_ms` and the trace's timing fields are wall-clock and
//! naturally vary).
//!
//! Besides the tables on stdout, every run writes the
//! `sat-bench/repro-v8` snapshot (see `sat_bench::snapshot`): one
//! record per timed experiment — a `params` object (the frame budget
//! of a budgeted cell), one flat `metrics` map (`wall_ms`, `gauge.*`
//! high-water marks, `latency.*`, `reclaim.*`, `translation.*`), and
//! the observability counters the experiment moved — plus the run-wide
//! counter/histogram/gauge registry.
//!
//! Every experiment is one row of [`VERBS`]: its record name, figure
//! aliases, whether `all` runs it, its runner, and the subsystems its
//! trace must cover. Dispatch, `all`, the unknown-verb hint and `repro
//! check`'s coverage floor all read that table.

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use sat_bench::{
    ablation, extensions, fleetbench, ipcbench, launchbench, motivation, pressurebench, reachbench,
    servebench, snapshot, steadybench, timesharebench, zygotebench, Scale,
};
use sat_obs::report::ReportFormat;
use sat_types::SatResult;

/// One timed experiment, as the snapshot records it.
struct Record {
    name: String,
    /// What the metrics were measured under (`mem_frames` of a
    /// budgeted cell); `repro diff` only compares equal params.
    params: BTreeMap<&'static str, u64>,
    /// Everything measured: `wall_ms` (host time — `repro diff`
    /// reports it, never judges it) and what the diff gates:
    /// `gauge.<name>` high-water marks over the experiment's sampling
    /// window (traced runs) and whatever the experiment itself
    /// reports (`latency.*`, `reclaim.*`, `translation.*` — simulated,
    /// hence deterministic).
    metrics: BTreeMap<String, f64>,
    /// Observability counters the experiment moved (traced runs).
    events: BTreeMap<String, u64>,
}

impl Record {
    /// Adds what an experiment measured itself (simulated, integral).
    fn add_metrics(&mut self, metrics: impl IntoIterator<Item = (&'static str, u64)>) {
        for (key, v) in metrics {
            self.metrics.insert(key.to_string(), v as f64);
        }
    }
}

/// Parsed command line.
struct Cli {
    cmd: String,
    /// Positionals after the command (`repro diff <old> <new>`).
    rest: Vec<String>,
    scale: Scale,
    trace: Option<String>,
    out: String,
    format: ReportFormat,
    threshold_pct: f64,
    /// Timeline window width in ticks (0 = auto: span/20).
    window: u64,
    /// Restrict report/timeline to one experiment's bracket.
    experiment: Option<String>,
    /// Slowest requests `repro tails` breaks down.
    top: usize,
    /// Physical-frame budget for `repro serve` (None = uncapped).
    mem_frames: Option<u64>,
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

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        cmd: String::new(),
        rest: Vec::new(),
        scale: Scale::Paper,
        trace: None,
        out: String::new(),
        format: ReportFormat::Text,
        threshold_pct: 25.0,
        window: 0,
        experiment: None,
        top: 10,
        mem_frames: None,
    };
    let mut positionals = Vec::new();
    let mut out = None;
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        let mut value = |what: &str| rest.next().ok_or_else(|| format!("{arg} requires {what}"));
        const INT: &str = "an integer >= 1";
        match arg.as_str() {
            "--quick" => cli.scale = Scale::Quick,
            "--trace" => cli.trace = Some(value("a path argument")?.clone()),
            "--out" => out = Some(value("a path argument")?.clone()),
            "--format" => {
                let name = value("text|json|folded")?;
                cli.format = ReportFormat::parse(name)
                    .ok_or_else(|| format!("unknown format '{name}' (want text|json|folded)"))?;
            }
            "--threshold-pct" => {
                cli.threshold_pct = number(arg, value("a number")?, 0.0, "a number >= 0")?
            }
            "--window" => cli.window = number(arg, value("a tick count")?, 1, INT)?,
            "--experiment" => cli.experiment = Some(value("a name")?.clone()),
            "--top" => cli.top = number(arg, value("a count")?, 1, INT)?,
            "--mem-frames" => cli.mem_frames = Some(number(arg, value("a frame count")?, 1, INT)?),
            flag if flag.starts_with("--") => {
                return Err(format!(
                    "unknown flag '{flag}' (known: --quick --trace --out --format \
                     --threshold-pct --window --experiment --top --mem-frames)"
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
    if cli.mem_frames.is_some() && cmd != "serve" {
        return Err(format!(
            "--mem-frames only applies to the serve experiment (got '{cmd}'; \
             the pressure grid derives its own budgets)"
        ));
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
            let old = snapshot::Snapshot::load(&cli.rest[0])?;
            let new = snapshot::Snapshot::load(&cli.rest[1])?;
            let report = snapshot::diff(&old, &new, cli.threshold_pct);
            let gate = match report.regressions() {
                0 => ExitCode::SUCCESS,
                _ => ExitCode::FAILURE,
            };
            Ok((report.render(cli.threshold_pct), gate))
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
    let started = Instant::now();
    let output = run(&cli.cmd, cli.scale, cli.mem_frames, &mut records)?;
    let recording = cli.trace.as_ref().and_then(|_| sat_obs::uninstall());
    if let (Some(path), Some(rec)) = (&cli.trace, &recording) {
        if let Err(e) = std::fs::write(path, sat_obs::chrome_trace_json(rec)) {
            eprintln!("repro: could not write trace {path}: {e}");
        }
    }
    let json = render_json(
        &cli.cmd,
        cli.scale,
        &records,
        started.elapsed().as_secs_f64() * 1e3,
        recording.as_ref(),
    );
    if let Err(e) = std::fs::write(&cli.out, json) {
        eprintln!("repro: could not write {}: {e}", cli.out);
    }
    Ok(output)
}

type Fallible<T = String> = Result<T, Box<dyn std::error::Error>>;

/// Runs `body` as one timed experiment, appending its record on
/// success. `body` returns the rendered text plus whatever the caller
/// wants back, and may add params and metrics of its own to the
/// record. With a recorder installed, the record also carries the
/// observability counters the experiment moved (snapshot delta), so
/// the snapshot attributes event volume per experiment.
fn timed<T>(
    records: &mut Vec<Record>,
    name: &str,
    body: impl FnOnce(&mut Record) -> Fallible<(String, T)>,
) -> Fallible<(String, T)> {
    let mut rec = Record {
        name: name.to_string(),
        params: BTreeMap::new(),
        metrics: BTreeMap::new(),
        events: BTreeMap::new(),
    };
    let before = sat_obs::counters_snapshot().unwrap_or_default();
    // Bracket the experiment with an `exp.<name>` span (machine-level:
    // pid 0) so `repro report/timeline --experiment <name>` can slice
    // the trace, and open a fresh gauge window so the snapshot carries
    // this experiment's own high-water marks (all no-ops untraced).
    let span = format!("exp.{name}");
    let bracket = |payload| sat_obs::emit(sat_obs::Subsystem::Bench, 0, 0, payload);
    sat_obs::begin_gauge_window();
    bracket(sat_obs::Payload::SpanBegin { name: span.clone() });
    let t = Instant::now();
    let out = body(&mut rec)?;
    // Millisecond wall with microsecond resolution, as it is printed.
    let wall_ms = t.elapsed().as_micros() as f64 / 1e3;
    bracket(sat_obs::Payload::SpanEnd {
        name: span,
        value: t.elapsed().as_micros() as u64,
        unit: sat_obs::SpanUnit::Micros,
    });
    rec.metrics.insert("wall_ms".to_string(), wall_ms);
    for (gauge, high_water) in sat_obs::window_gauge_high_waters().unwrap_or_default() {
        rec.metrics
            .insert(format!("gauge.{gauge}"), high_water as f64);
    }
    if let Some(after) = sat_obs::counters_snapshot() {
        for (key, v) in after {
            let delta = v - before.get(&key).copied().unwrap_or(0);
            if delta > 0 {
                rec.events.insert(key, delta);
            }
        }
    }
    records.push(rec);
    Ok(out)
}

/// A grid verb's run: the records its table row names, timed one by
/// one in run order.
struct Cells<'a> {
    scale: Scale,
    /// `--mem-frames` (`serve` only).
    mem_frames: Option<u64>,
    names: std::vec::IntoIter<String>,
    records: &'a mut Vec<Record>,
}

impl Cells<'_> {
    /// Runs `body` as the grid's next timed record.
    fn timed<T>(
        &mut self,
        body: impl FnOnce(&mut Record) -> Fallible<(String, T)>,
    ) -> Fallible<(String, T)> {
        let name = self.names.next();
        let name = name.ok_or("the grid runs more cells than its verb row names")?;
        timed(self.records, &name, body)
    }
}

/// How a verb produces its snapshot records.
enum Runner {
    /// One timed record named after the verb.
    Single(fn(Scale) -> SatResult<String>),
    /// One timed record per grid cell (static names, so `repro diff`
    /// gates each kernel / fleet size / budget on its own): the names
    /// in run order, and the runner that times each cell and renders
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
    /// Snapshot record names of an unbudgeted run, in run order. The
    /// table is their one source: `repro diff` keys on them, and the
    /// grid runners are handed them, never spell them.
    fn records(&self, scale: Scale) -> Vec<String> {
        match self.runner {
            Single(_) => vec![self.name.to_string()],
            Grid { records, .. } => records(scale),
        }
    }

    /// Runs the verb, appending its records.
    fn run(&self, records: &mut Vec<Record>, scale: Scale, mem_frames: Option<u64>) -> Fallible {
        match self.runner {
            Single(body) => Ok(timed(records, self.name, |_| Ok((body(scale)?, ())))?.0),
            Grid { run, .. } => {
                // Budgeted runs get `_mem`-suffixed record names, so
                // diffing against an uncapped baseline never pits
                // capped tails against uncapped ones.
                let suffix = mem_frames.map_or("", |_| "_mem");
                let names = self.records(scale).into_iter().map(|n| n + suffix);
                run(&mut Cells {
                    scale,
                    mem_frames,
                    names: names.collect::<Vec<_>>().into_iter(),
                    records,
                })
            }
        }
    }
}

/// Runs both serve kernels as separate timed records, then the
/// cross-kernel summary line.
fn run_serve_pair(cells: &mut Cells) -> Fallible {
    let (scale, budget) = (cells.scale, cells.mem_frames);
    let mut s = String::new();
    let mut reports = Vec::new();
    for (_, label, config) in servebench::serve_kernels() {
        let (text, report) = cells.timed(|rec| {
            let (text, r) = servebench::serve_kernel(scale, label, config, budget)?;
            rec.params.extend(budget.map(|n| ("mem_frames", n)));
            rec.add_metrics(servebench::snapshot_metrics(&r, budget.is_some()));
            Ok((text, r))
        })?;
        s.push_str(&text);
        reports.push(report);
    }
    s.push_str(&servebench::serve_summary(scale, &reports[0], &reports[1]));
    Ok(s)
}

/// Runs the sharing-under-pressure grid: one timed record per cell,
/// each carrying latency percentiles and — for the finite-budget
/// cells — the frame budget and reclaim totals.
fn run_pressure_grid(cells: &mut Cells) -> Fallible {
    let (text, _) = pressurebench::grid(cells.scale, |_, opts, config| {
        let budget = opts.mem_frames;
        let (_, report) = cells.timed(|rec| {
            let r = sat_sched::run_serve(config, opts)?;
            rec.params.extend(budget.map(|n| ("mem_frames", n)));
            rec.add_metrics(servebench::snapshot_metrics(&r, budget.is_some()));
            Ok((String::new(), r))
        })?;
        Ok::<_, Box<dyn std::error::Error>>(report)
    })?;
    Ok(text)
}

/// Runs the three translation-reach strategies as separate timed
/// records, then the combined table.
fn run_reach(cells: &mut Cells) -> Fallible {
    let scale = cells.scale;
    let mut grid = Vec::new();
    for (_, label, config) in reachbench::reach_kernels() {
        let (_, cell) = cells.timed(|rec| {
            let cell = reachbench::reach_cell(label, config, scale)?;
            rec.add_metrics(cell.metrics());
            Ok((String::new(), cell))
        })?;
        grid.push(cell);
    }
    Ok(reachbench::reach_render(scale, &grid))
}

/// Runs every fleet size of the scale's grid, one timed record per N.
fn run_fleet_grid(cells: &mut Cells) -> Fallible {
    let mut s = String::new();
    for &(apps, cores) in fleetbench::fleet_counts(cells.scale) {
        s.push_str(
            &cells
                .timed(|_| Ok((fleetbench::fleet_n(apps, cores)?, ())))?
                .0,
        );
    }
    Ok(s)
}

fn run(cmd: &str, scale: Scale, mem_frames: Option<u64>, records: &mut Vec<Record>) -> Fallible {
    if cmd == "all" {
        let mut s = format!(
            "# Shared Address Translation Revisited — experiment suite ({scale:?} scale)\n\n"
        );
        for verb in VERBS.iter().filter(|v| v.in_all) {
            s.push_str(&verb.run(records, scale, None)?);
        }
        return Ok(s);
    }
    match lookup(cmd) {
        Some(verb) => verb.run(records, scale, mem_frames),
        None => {
            let verbs: Vec<&str> = VERBS.iter().map(|v| v.name).collect();
            Err(format!("unknown experiment '{cmd}' (try: {} all)", verbs.join(" ")).into())
        }
    }
}

/// Hand-rolled JSON (the workspace vendors no serializer): flat,
/// stable key order, floats with fixed precision.
fn render_json(
    cmd: &str,
    scale: Scale,
    records: &[Record],
    total_ms: f64,
    recording: Option<&sat_obs::Recording>,
) -> String {
    // `{"k": v, ...}` — the one shape of every per-record map.
    fn object<K: std::fmt::Display, V: std::fmt::Display>(
        pairs: impl IntoIterator<Item = (K, V)>,
    ) -> String {
        let body: Vec<String> = pairs
            .into_iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
    let experiments: Vec<String> = records
        .iter()
        .map(|rec| {
            format!(
                "    {{\"name\": \"{}\", \"params\": {}, \"metrics\": {}, \"events\": {}}}",
                rec.name,
                object(&rec.params),
                object(&rec.metrics),
                object(&rec.events),
            )
        })
        .collect();
    let empty = sat_obs::MetricsRegistry::default();
    let obs = match recording {
        Some(rec) => sat_obs::metrics_json(&rec.metrics, true, rec.dropped, "  "),
        None => sat_obs::metrics_json(&empty, false, 0, "  "),
    };
    format!(
        "{{\n  \"schema\": \"{}\",\n  \"command\": \"{cmd}\",\n  \"scale\": \"{}\",\n  \
         \"experiments\": [\n{}\n  ],\n  \"total_wall_ms\": {total_ms:.3},\n  \"obs\": {obs}\n}}\n",
        snapshot::SCHEMA,
        match scale {
            Scale::Paper => "paper",
            Scale::Quick => "quick",
        },
        experiments.join(",\n"),
    )
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

/// Re-ingests a trace and renders per-request tail blame. Defaults to
/// the serve experiments' `exp.serve_*` brackets when present (each
/// gets its own section); `--experiment` narrows to one bracket, and a
/// trace with flows but no brackets is read whole.
fn tails(trace_path: &str, top: usize, experiment: Option<&str>) -> Fallible {
    let (all_events, dropped) = load_trace(trace_path, None)?;
    let slices: Vec<(String, Vec<sat_obs::Event>)> = match experiment {
        Some(name) => vec![(
            name.to_string(),
            sat_obs::analyze::filter_experiment(&all_events, name)?,
        )],
        None => {
            // Every bracket that can carry flows: the serve kernels,
            // their budgeted `_mem` variants, and the pressure cells.
            let mut candidates: Vec<String> = Vec::new();
            for (name, _, _) in servebench::serve_kernels() {
                candidates.push(name.to_string());
                candidates.push(format!("{name}_mem"));
            }
            candidates.extend(pressurebench::record_names());
            let mut v = Vec::new();
            for name in &candidates {
                if let Ok(events) = sat_obs::analyze::filter_experiment(&all_events, name) {
                    v.push((name.clone(), events));
                }
            }
            if v.is_empty() {
                v.push(("whole trace".to_string(), all_events));
            }
            v
        }
    };
    let mut out = String::new();
    if dropped > 0 {
        out.push_str(&format!(
            "repro tails: warning: {dropped} events were dropped from the ring — \
             blame attribution is partial\n\n"
        ));
    }
    let mut any = false;
    for (label, events) in &slices {
        let table = sat_obs::analyze::FlowTable::from_events(events);
        if table.completed() == 0 && table.charges == 0 {
            continue;
        }
        any = true;
        out.push_str(&sat_obs::report::render_tails(label, &table, top));
        out.push('\n');
    }
    if !any {
        return Err(
            "no flow events in this trace (produce one with: repro serve --quick --trace <path>)"
                .into(),
        );
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
        for tool in ["all", "check", "report", "timeline", "tails", "diff"] {
            assert!(!seen.contains(tool), "'{tool}' is not an experiment");
        }
    }

    #[test]
    fn all_writes_exactly_the_baseline_experiments() {
        let baseline = snapshot::Snapshot::parse(
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
        let recorded: Vec<String> = baseline.experiments.keys().cloned().collect();
        assert_eq!(recorded, in_all);
    }
}
