//! `satbench` — see `README.md`.
//!
//! ```text
//! satbench all [--seed N] [--reps R] [--smoke] [--out FILE]
//! satbench --workload W --seed N --seconds S --trace 0|1     (the driver's form)
//! satbench rep --workload W [--seed N] [--sizing bench|smoke|paper] [--trace] [--obs]
//! satbench compare A.json B.json
//! satbench probes | manifest
//! ```

use std::process::ExitCode;

use satbench::child::{self, RepSpec};
use satbench::runner::{self, Plan, Runner};
use satbench::workload::{Sizing, Workload};
use satbench::{compare, probes, report};

#[global_allocator]
static ALLOC: satbench::alloc::CountingAlloc = satbench::alloc::CountingAlloc;

/// `run_seconds` of `BENCHMARK.json`.
const RUN_SECONDS: u32 = 10;

/// Flags after the subcommand: `--name value` pairs and bare switches.
struct Args {
    rest: Vec<String>,
}

impl Args {
    fn switch(&mut self, name: &str) -> bool {
        let at = self.rest.iter().position(|a| a == name);
        at.map(|i| self.rest.remove(i)).is_some()
    }

    fn value(&mut self, name: &str) -> Result<Option<String>, String> {
        let Some(i) = self.rest.iter().position(|a| a == name) else {
            return Ok(None);
        };
        if i + 1 >= self.rest.len() {
            return Err(format!("{name} needs a value"));
        }
        self.rest.remove(i);
        Ok(Some(self.rest.remove(i)))
    }

    fn parsed<T: std::str::FromStr>(&mut self, name: &str) -> Result<Option<T>, String> {
        match self.value(name)? {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("{name}: cannot read {v:?}")),
        }
    }

    fn workload(&mut self) -> Result<Workload, String> {
        let name = self.value("--workload")?.ok_or("--workload is required")?;
        Workload::parse(&name).ok_or(format!(
            "unknown workload {name:?}; the workloads are {}",
            Workload::ALL.map(Workload::name).join(", ")
        ))
    }

    fn done(self) -> Result<(), String> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(format!("unexpected arguments {:?}", self.rest))
        }
    }
}

fn all(mut args: Args) -> Result<bool, String> {
    let seed = args.parsed("--seed")?.unwrap_or(1);
    let smoke = args.switch("--smoke");
    let reps: usize = args.parsed("--reps")?.unwrap_or(if smoke { 1 } else { 15 });
    let out = args.value("--out")?;
    args.done()?;
    if !smoke && reps < 10 {
        return Err("--reps below 10 cannot resolve the bounds on this box; use 10 or more".into());
    }
    let plan = Plan {
        seed,
        sizing: if smoke { Sizing::Smoke } else { Sizing::Bench },
    };
    let runner = Runner::new()?;
    let results = runner::run_all(&runner, &plan, reps, |what| eprintln!("satbench: {what}"))?;

    println!(
        "# satbench all --seed {seed}: {reps} timed reps per workload, {} sizing",
        plan.sizing.name()
    );
    println!("# host times are the sum of each measured phase's best across reps; median, quartiles (whole reps)");
    println!("# and halves_gap_pct (odd reps vs even reps) are printed for information\n");
    for r in &results {
        println!("{}", report::end_to_end_table(r));
    }
    println!("## per-layer ledger (fastest traced rep; counts are exact)\n");
    println!("{}", report::per_layer_table(&results));
    let path = match out {
        Some(p) => std::path::PathBuf::from(p),
        None => child::out_dir().join(format!("satbench-seed{seed}.json")),
    };
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(&path, report::results_json(seed, &results))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("results written to {}", path.display());

    let failed: u64 = results.iter().map(|r| r.failed).sum();
    let unresolved: Vec<String> = results
        .iter()
        .filter(|r| !r.unresolved().is_empty())
        .map(|r| r.workload.name().to_string())
        .collect();
    if !unresolved.is_empty() {
        println!(
            "unresolved workloads (halves gap above the bound): {}",
            unresolved.join(", ")
        );
    }
    println!(
        "checks: {}",
        if failed == 0 { "all passed" } else { "FAILED" }
    );
    Ok(failed == 0)
}

fn driver(mut args: Args) -> Result<bool, String> {
    let workload = args.workload()?;
    let seed = args.parsed("--seed")?.unwrap_or(1);
    let seconds: f64 = args.parsed("--seconds")?.unwrap_or(f64::from(RUN_SECONDS));
    let trace = match args.parsed::<u8>("--trace")?.unwrap_or(0) {
        0 => false,
        1 => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    args.done()?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds {seconds} is outside (0, 60]"));
    }
    let runner = Runner::new()?;
    let r = runner::run_one(&runner, workload, seed, seconds, trace)?;
    if trace {
        println!("{}", report::per_layer_table(std::slice::from_ref(&r)));
    } else {
        println!("{}", report::end_to_end_table(&r));
    }
    println!("{}", report::contract_line(&r, trace));
    Ok(r.failed == 0)
}

fn rep(mut args: Args) -> Result<bool, String> {
    let spec = RepSpec {
        workload: args.workload()?,
        seed: args.parsed("--seed")?.unwrap_or(1),
        sizing: match args.value("--sizing")? {
            None => Sizing::Bench,
            Some(s) => Sizing::parse(&s).ok_or(format!("unknown sizing {s:?}"))?,
        },
        trace: args.switch("--trace"),
        obs: args.switch("--obs"),
    };
    args.done()?;
    let out = child::run(spec);
    println!(
        "{} ({} sizing, seed {}): setup {:.4} s, measured {:.4} s, {} ops ({}), {} of {} driver ops failed",
        spec.workload.name(),
        spec.sizing.name(),
        spec.seed,
        out.setup_s(),
        out.host_s(),
        out.ops,
        spec.workload.op_unit(),
        out.failed,
        out.attempted,
    );
    println!(
        "peak heap {:.2} MiB, peak RSS {:.2} MiB, sim_digest {}",
        out.peak_heap_mib, out.peak_rss_mib, out.digest
    );
    for f in &out.failures {
        println!("FAILED: {f}");
    }
    for (what, measured, paper) in &out.paper_rows {
        println!("  {what}: {measured:.2} (paper: {paper})");
    }
    if spec.trace {
        for (name, v) in &out.layers {
            println!("  {name} = {v}");
        }
    }
    println!("{}", out.to_json());
    Ok(out.failed == 0)
}

fn run() -> Result<bool, String> {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let command = match argv.first() {
        Some(first) if !first.starts_with("--") => argv.remove(0),
        // The driver appends its flags to the bare command.
        Some(_) => "run".to_string(),
        None => return Err("no command; see benchmark/README.md".into()),
    };
    let mut args = Args { rest: argv };
    match command.as_str() {
        "all" => all(args),
        "run" => driver(args),
        "rep" => rep(args),
        "probes" => {
            args.done()?;
            let mut out = String::new();
            child::json_num_map(&mut out, probes::run_all().into_iter());
            println!("{out}");
            Ok(true)
        }
        "manifest" => {
            args.done()?;
            print!("{}", report::manifest(RUN_SECONDS));
            Ok(true)
        }
        "compare" => {
            if args.rest.len() != 2 {
                return Err("compare takes two result files".into());
            }
            let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
            let (a, b) = (read(&args.rest[0])?, read(&args.rest[1])?);
            args.rest.clear();
            let (table, ok) = compare::compare(&a, &b)?;
            print!("{table}");
            Ok(ok)
        }
        other => Err(format!(
            "unknown command {other:?}; see benchmark/README.md"
        )),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("satbench: {e}");
            ExitCode::from(2)
        }
    }
}
