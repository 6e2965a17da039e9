//! The runner: spawns this binary as one single-threaded child per
//! rep — never more than one at a time, the box has two cores — and
//! turns what the children report into the metric tables.
//!
//! Noise defence (numbers in README): a fresh child per rep, reps of
//! different workloads interleaved so each samples the whole session's
//! fast and slow machine phases, host times reported as the sum of
//! each phase's best with the whole reps' median and quartiles beside
//! them, and a self-check that compares that estimate from the
//! odd-numbered reps with the one from the even-numbered reps.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use sat_obs::json::Json;

use crate::child::{out_dir, RepOut, RepSpec};
use crate::metrics::{MetricDef, PER_LAYER};
use crate::stats::{summarize, Summary};
use crate::workload::{Sizing, Workload};

/// The per-layer metrics the fidelity rep (paper sizing) supplies.
const PAPER_METRICS: [&str; 8] = [
    "android.launch_speedup_pct",
    "android.fault_reduction_pct",
    "android.ptp_reduction_pct",
    "android.shared_ptp_fraction_pct",
    "android.ipc_client_stall_cut_pct",
    "android.ipc_server_stall_cut_pct",
    "core.fork_speedup_x",
    "core.waste_ratio_x",
];

/// Spawns children of the running binary.
pub struct Runner {
    exe: PathBuf,
}

impl Runner {
    pub fn new() -> Result<Runner, String> {
        let exe = std::env::current_exe().map_err(|e| format!("cannot find my own binary: {e}"))?;
        Ok(Runner { exe })
    }

    /// Runs one child to its end and returns the last line it wrote
    /// to stdout. Its stderr is ours.
    fn child(&self, args: &[String]) -> Result<String, String> {
        let out = Command::new(&self.exe)
            .args(args)
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot start {}: {e}", self.exe.display()))?;
        if !out.status.success() {
            return Err(format!("child {args:?} ended with {}", out.status));
        }
        let text = String::from_utf8_lossy(&out.stdout);
        text.lines()
            .last()
            .map(str::to_string)
            .ok_or(format!("child {args:?} printed nothing"))
    }

    pub fn rep(&self, spec: RepSpec) -> Result<RepOut, String> {
        RepOut::from_json(&self.child(&spec.to_args())?)
    }

    pub fn probes(&self) -> Result<BTreeMap<String, f64>, String> {
        let line = self.child(&["probes".to_string()])?;
        let j = Json::parse(&line).map_err(|e| e.to_string())?;
        let map = j.as_object().ok_or("probes printed no object")?;
        Ok(map
            .iter()
            .map(|(k, v)| (k.clone(), v.as_f64().unwrap_or(0.0)))
            .collect())
    }

    /// Best of three `repro all --quick` walls with one worker thread
    /// — the only outside view of `sat-bench`. Builds `repro` into the
    /// target directory this binary was built into. `Err` when the
    /// workspace no longer builds such a binary.
    pub fn repro_quick_s(&self) -> Result<f64, String> {
        let target = self
            .exe
            .parent()
            .and_then(Path::parent)
            .ok_or("my binary is not inside a cargo target directory")?;
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .ok_or("the benchmark has no parent directory")?;
        let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
        let built = Command::new(cargo)
            .args([
                "build",
                "--release",
                "--offline",
                "-p",
                "sat-bench",
                "--bin",
                "repro",
            ])
            .arg("--manifest-path")
            .arg(root.join("Cargo.toml"))
            .arg("--target-dir")
            .arg(target)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .status()
            .map_err(|e| format!("cannot start cargo: {e}"))?;
        if !built.success() {
            return Err(format!("building repro ended with {built}"));
        }
        let repro = self.exe.with_file_name("repro");
        let dir = out_dir();
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let t = Instant::now();
            let status = Command::new(&repro)
                .args(["all", "--quick", "--out"])
                .arg(dir.join("BENCH_repro.json"))
                .env("SAT_BENCH_THREADS", "1")
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .status()
                .map_err(|e| format!("cannot start {}: {e}", repro.display()))?;
            if !status.success() {
                return Err(format!("repro all --quick ended with {status}"));
            }
            best = best.min(t.elapsed().as_secs_f64());
        }
        Ok(best)
    }
}

/// Everything the children reported about one workload.
#[derive(Clone, Debug, Default)]
pub struct Collected {
    /// Untraced reps at the bench sizing and the run's seed. Each
    /// traced rep is run right after an untraced one, so the last
    /// `traced.len()` of these are the traced reps' neighbours in
    /// time.
    pub timed: Vec<RepOut>,
    /// Traced reps, same sizing and seed.
    pub traced: Vec<RepOut>,
    /// The paper-sizing rep (workloads with a paper reference).
    pub fidelity: Option<RepOut>,
    /// One rep at seed + 1: the audits must hold on a seed the sizes
    /// were not tuned on.
    pub held_back: Option<RepOut>,
    /// Reps with the `sat-obs` ring installed (`serve_pressure` only).
    pub obs: Vec<RepOut>,
}

impl Collected {
    fn every_rep(&self) -> impl Iterator<Item = &RepOut> {
        self.timed
            .iter()
            .chain(&self.traced)
            .chain(&self.fidelity)
            .chain(&self.held_back)
            .chain(&self.obs)
    }

    /// Reps that must agree on `sim_digest`: same sizing, same seed,
    /// and no observer that could change what is simulated.
    fn same_input_reps(&self) -> impl Iterator<Item = &RepOut> {
        self.timed.iter().chain(&self.traced).chain(&self.obs)
    }
}

/// One end-to-end metric of one workload.
#[derive(Clone, Debug)]
pub struct EndToEnd {
    pub def: &'static MetricDef,
    /// The reported value: best rep for host times and throughput,
    /// median rep for memory.
    pub value: f64,
    pub summary: Summary,
    /// Best of odd reps vs best of even reps, as a share.
    pub halves_gap: Option<f64>,
}

impl EndToEnd {
    /// Whether the run can resolve a change of the metric's bound.
    pub fn resolved(&self) -> bool {
        match (self.halves_gap, self.def.bound) {
            (Some(gap), Some(bound)) => gap <= bound,
            _ => true,
        }
    }
}

/// A workload's finished tables.
#[derive(Clone, Debug)]
pub struct WorkloadResult {
    pub workload: Workload,
    pub end_to_end: Vec<EndToEnd>,
    /// Every per-layer metric (empty when no traced rep ran).
    pub per_layer: BTreeMap<String, f64>,
    pub digest: String,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub paper_err_pct: Option<f64>,
    pub paper_rows: Vec<(String, f64, f64)>,
}

impl WorkloadResult {
    pub fn ops_failed_pct(&self) -> f64 {
        100.0 * self.failed as f64 / self.attempted.max(1) as f64
    }

    pub fn unresolved(&self) -> Vec<&'static str> {
        self.end_to_end
            .iter()
            .filter(|m| !m.resolved())
            .map(|m| m.def.name)
            .collect()
    }
}

fn metric(name: &str) -> &'static MetricDef {
    crate::metrics::find(name).expect("the name is in the metric tables")
}

/// Builds the tables of one workload from what its reps reported.
pub fn finish(
    workload: Workload,
    c: &Collected,
    probes: &BTreeMap<String, f64>,
    repro_quick_s: Option<f64>,
) -> WorkloadResult {
    // Failures: every rep's own, plus one check per rep that its
    // digest is the workload's.
    let mut attempted = 0;
    let mut failed = 0;
    let mut failures = Vec::new();
    for r in c.every_rep() {
        attempted += r.attempted;
        failed += r.failed;
        failures.extend(r.failures.iter().cloned());
    }
    let digest = c
        .same_input_reps()
        .next()
        .map_or(String::new(), |r| r.digest.clone());
    for r in c.same_input_reps().skip(1) {
        attempted += 1;
        if r.digest != digest {
            failed += 1;
            failures.push(format!("sim_digest {} differs from {digest}", r.digest));
        }
    }

    let mut end_to_end = Vec::new();
    if !c.timed.is_empty() {
        let mut push = |name: &str, values: Vec<f64>, best: Option<(f64, Option<f64>)>| {
            let def = metric(name);
            let summary = summarize(&values, def.better);
            let (value, halves_gap) = best.unwrap_or((summary.median, None));
            end_to_end.push(EndToEnd {
                def,
                value,
                summary,
                halves_gap,
            });
        };
        let column = |f: fn(&RepOut) -> f64| c.timed.iter().map(f).collect::<Vec<f64>>();
        let ops = c.timed[0].ops as f64;
        let setup = best_with_gap(&c.timed, |r| &r.setup_phases);
        let host = best_with_gap(&c.timed, |r| &r.host_phases);
        push("setup_s", column(RepOut::setup_s), Some(setup));
        push("host_s", column(RepOut::host_s), Some(host));
        // The same estimate the other way up: the gap is host_s's.
        push(
            "sim_ops_per_s",
            column(|r| r.ops as f64 / r.host_s()),
            Some((ops / host.0, host.1)),
        );
        push("peak_rss_mib", column(|r| r.peak_rss_mib), None);
        push("peak_heap_mib", column(|r| r.peak_heap_mib), None);
        let ok = 100.0 * (attempted - failed.min(attempted)) as f64 / attempted.max(1) as f64;
        push("ops_ok_pct", vec![ok], None);
    }

    let fidelity = c.fidelity.as_ref();
    WorkloadResult {
        workload,
        per_layer: per_layer(c, probes, repro_quick_s),
        end_to_end,
        digest,
        attempted,
        failed,
        failures,
        paper_err_pct: fidelity.and_then(|r| r.paper_err_pct),
        paper_rows: fidelity.map_or_else(Vec::new, |r| r.paper_rows.clone()),
    }
}

/// The best time of a deterministic single-threaded phase is the
/// lowest any rep took for it — every excess is the neighbour's noise
/// — and a rep's phases are the same calls on every rep, so the best
/// total is the sum of each phase's best. Summing per phase rather
/// than taking the best whole rep asks only for each phase to have
/// seen a quiet moment, not for one rep to have been quiet
/// throughout. Falls back to the best whole rep if a rep ended early.
fn best_total<'a>(reps: impl Iterator<Item = &'a [f64]> + Clone) -> f64 {
    let phases = reps.clone().next().map_or(0, <[f64]>::len);
    if reps.clone().all(|r| r.len() == phases) {
        (0..phases)
            .map(|i| reps.clone().map(|r| r[i]).fold(f64::INFINITY, f64::min))
            .sum()
    } else {
        reps.map(|r| r.iter().sum()).fold(f64::INFINITY, f64::min)
    }
}

/// [`best_total`] over all reps, and the runner's self-check beside
/// it: the same estimate from the odd-numbered and from the
/// even-numbered reps alone, their difference as a share of the
/// smaller. Two interleaved halves of one session see the same
/// machine phases, so a gap above the metric's bound says the run
/// cannot resolve a change of that size.
fn best_with_gap(reps: &[RepOut], phases: fn(&RepOut) -> &Vec<f64>) -> (f64, Option<f64>) {
    let all = best_total(reps.iter().map(|r| phases(r).as_slice()));
    let half = |parity: usize| {
        best_total(
            reps.iter()
                .skip(parity)
                .step_by(2)
                .map(|r| phases(r).as_slice()),
        )
    };
    let gap = (reps.len() >= 2).then(|| {
        let (a, b) = (half(0), half(1));
        (a - b).abs() / a.min(b)
    });
    (all, gap)
}

fn best_host_s(reps: &[RepOut]) -> Option<f64> {
    (!reps.is_empty()).then(|| best_total(reps.iter().map(|r| r.host_phases.as_slice())))
}

fn per_layer(
    c: &Collected,
    probes: &BTreeMap<String, f64>,
    repro_quick_s: Option<f64>,
) -> BTreeMap<String, f64> {
    // The fastest traced rep is kept, so one slow machine phase
    // cannot pose as tracing overhead.
    let Some(traced) = c
        .traced
        .iter()
        .min_by(|a, b| a.host_s().total_cmp(&b.host_s()))
    else {
        return BTreeMap::new();
    };
    let mut l = traced.layers.clone();
    // Overheads compare like with like: as many untraced reps as
    // observed ones, run next to them in time, so a slow machine
    // phase weighs on both sides.
    let neighbours = &c.timed[c.timed.len().saturating_sub(c.traced.len())..];
    let untraced_host_s = best_host_s(neighbours);
    if let (Some(base), Some(with)) = (untraced_host_s, best_host_s(&c.traced)) {
        l.insert(
            "bench.trace_overhead_pct".into(),
            (with / base - 1.0) * 100.0,
        );
    }
    if let Some(f) = &c.fidelity {
        for name in PAPER_METRICS {
            if let Some(v) = f.layers.get(name) {
                l.insert(name.into(), *v);
            }
        }
        l.insert("bench.paper_err_pct".into(), f.paper_err_pct.unwrap_or(0.0));
    }
    if let (Some(o), Some(with), Some(base)) = (c.obs.first(), best_host_s(&c.obs), untraced_host_s)
    {
        let events = o.layers.get("obs.events").copied().unwrap_or(0.0);
        l.insert("obs.events".into(), events);
        l.insert(
            "obs.dropped".into(),
            o.layers.get("obs.dropped").copied().unwrap_or(0.0),
        );
        let extra_ns = (with - base).max(0.0) * 1e9;
        l.insert(
            "obs.ns_per_event".into(),
            if events > 0.0 { extra_ns / events } else { 0.0 },
        );
        l.insert("obs.overhead_pct".into(), (with / base - 1.0) * 100.0);
    }
    for (k, v) in probes {
        l.insert(k.clone(), *v);
    }
    if let Some(s) = repro_quick_s {
        l.insert("bench.repro_quick_s".into(), s);
    }
    if !probes.is_empty() {
        shares(&mut l, traced.host_s());
    }
    // Every name is printed on every workload; a layer the workload
    // never enters reads 0.
    for m in PER_LAYER {
        l.entry(m.name.into()).or_insert(0.0);
    }
    l.retain(|name, _| PER_LAYER.iter().any(|m| m.name == name));
    l
}

/// `share.*`: count × probe ns ÷ host ns. An outside estimate — the
/// probes run on small fixed state, not the workload's — good for
/// "which layer could a speed-up come from", not for accounting.
fn shares(l: &mut BTreeMap<String, f64>, host_s: f64) {
    let g = |name: &str| l.get(name).copied().unwrap_or(0.0);
    let accesses = g("sim.inst_fetches") + g("sim.data_accesses");
    let main_lookups = g("tlb.hits") + g("tlb.misses");
    let tlb = (accesses - main_lookups).max(0.0) * g("probe.tlb.micro_hit_ns")
        + g("tlb.hits") * g("probe.tlb.lookup_hit_ns")
        + g("tlb.misses") * (g("probe.tlb.lookup_miss_ns") + g("probe.tlb.insert_ns"));
    // Two descriptor reads per walk; misses are not counted by the
    // public stats, so this prices every access as an L1 hit.
    let cache = (accesses + 2.0 * g("tlb.misses")) * g("probe.cache.l1_hit_ns");
    let mmu = g("tlb.misses") * g("probe.mmu.walk_ns")
        + g("mmu.slab_allocs") * (g("probe.mmu.ptp_alloc_ns") + g("probe.mmu.ptp_free_ns"));
    let phys = g("phys.allocs") * g("probe.phys.alloc_ns")
        + g("phys.frees") * g("probe.phys.free_ns")
        + g("core.promotions") * g("probe.phys.alloc_run16_ns")
        + g("sim.page_faults") * g("probe.phys.rmap_add_remove_ns");
    let core = (g("core.forks") - g("core.share_forks")) * g("probe.core.fork_stock_ns")
        + g("core.share_forks") * g("probe.core.fork_shared_ns")
        + g("core.exits") * g("probe.core.exit_ns")
        + g("core.ptp_unshares") * g("probe.core.unshare_write_ns")
        + g("core.reclaim_pages") * g("probe.core.reclaim_page_ns")
        + g("core.promotions")
            * (g("probe.core.promote_group_ns") - g("probe.phys.alloc_run16_ns")).max(0.0)
        + g("sim.page_faults") * g("probe.vm.soft_fault_ns");
    let host_ns = host_s * 1e9;
    let mut explained = 0.0;
    for (name, ns) in [
        ("share.tlb_pct", tlb),
        ("share.cache_pct", cache),
        ("share.mmu_pct", mmu),
        ("share.phys_pct", phys),
        ("share.core_pct", core),
    ] {
        let pct = 100.0 * ns / host_ns;
        explained += pct;
        l.insert(name.into(), pct);
    }
    l.insert("share.unexplained_pct".into(), 100.0 - explained);
}

/// What one pass over the workloads should run.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    pub seed: u64,
    pub sizing: Sizing,
}

impl Plan {
    /// An untraced rep at the plan's sizing and seed.
    pub fn timed(&self, workload: Workload) -> RepSpec {
        RepSpec {
            workload,
            sizing: self.sizing,
            seed: self.seed,
            trace: false,
            obs: false,
        }
    }

    pub fn traced(&self, w: Workload) -> RepSpec {
        RepSpec {
            trace: true,
            ..self.timed(w)
        }
    }

    /// The fidelity rep: paper sizing — except in a smoke run, which
    /// only walks the code path.
    pub fn fidelity(&self, w: Workload) -> Option<RepSpec> {
        w.has_paper_reference().then(|| RepSpec {
            sizing: match self.sizing {
                Sizing::Smoke => Sizing::Smoke,
                _ => Sizing::Paper,
            },
            ..self.timed(w)
        })
    }

    pub fn held_back(&self, w: Workload) -> RepSpec {
        RepSpec {
            seed: self.seed + 1,
            ..self.timed(w)
        }
    }

    pub fn obs(&self, w: Workload) -> Option<RepSpec> {
        (w == Workload::ServePressure).then(|| RepSpec {
            obs: true,
            ..self.timed(w)
        })
    }
}

/// One round of the traced pass for one workload: an untraced rep,
/// then the traced rep (and the `obs` rep) right beside it.
fn traced_round(
    runner: &Runner,
    plan: &Plan,
    w: Workload,
    c: &mut Collected,
) -> Result<(), String> {
    c.timed.push(runner.rep(plan.timed(w))?);
    c.traced.push(runner.rep(plan.traced(w))?);
    if let Some(spec) = plan.obs(w) {
        c.obs.push(runner.rep(spec)?);
    }
    Ok(())
}

/// Keeps, per probe, the best of the passes made so far: the probes
/// take under two seconds, so one pass can sit wholly inside a slow
/// machine phase.
fn merge_probes(best: &mut BTreeMap<String, f64>, pass: BTreeMap<String, f64>) {
    for (name, ns) in pass {
        let e = best.entry(name).or_insert(f64::INFINITY);
        *e = e.min(ns);
    }
}

fn repro_quick_or_warn(runner: &Runner) -> Option<f64> {
    runner
        .repro_quick_s()
        .map_err(|e| eprintln!("satbench: bench.repro_quick_s reads 0: {e}"))
        .ok()
}

/// The driver's entry: one workload, measured for `seconds`.
/// `trace == false` gives the end-to-end metrics from as many timed
/// reps as fit; `trace == true` gives the per-layer metrics from
/// interleaved untraced/traced reps over a quarter of that time (the
/// counts are exact after one) plus the fidelity rep, the probes, the
/// `obs` rep and the `repro` wall.
pub fn run_one(
    runner: &Runner,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<WorkloadResult, String> {
    let plan = Plan {
        seed,
        sizing: Sizing::Bench,
    };
    let start = Instant::now();
    let mut c = Collected::default();
    let mut probes = BTreeMap::new();
    let mut repro = None;
    if trace {
        merge_probes(&mut probes, runner.probes()?);
        while c.traced.len() < 3 || start.elapsed().as_secs_f64() < seconds / 4.0 {
            traced_round(runner, &plan, workload, &mut c)?;
        }
        if let Some(spec) = plan.fidelity(workload) {
            c.fidelity = Some(runner.rep(spec)?);
        }
        merge_probes(&mut probes, runner.probes()?);
        repro = repro_quick_or_warn(runner);
    } else {
        while c.timed.len() < 3 || start.elapsed().as_secs_f64() < seconds {
            c.timed.push(runner.rep(plan.timed(workload))?);
        }
    }
    Ok(finish(workload, &c, &probes, repro))
}

/// `satbench all`: every workload, three passes.
pub fn run_all(
    runner: &Runner,
    plan: &Plan,
    reps: usize,
    mut progress: impl FnMut(&str),
) -> Result<Vec<WorkloadResult>, String> {
    let mut collected: BTreeMap<Workload, Collected> = BTreeMap::new();
    // Pass 1, timed: round-robin, so every workload samples the whole
    // session.
    for r in 0..reps {
        progress(&format!("timed rep {}/{reps}", r + 1));
        for w in Workload::ALL {
            let out = runner.rep(plan.timed(w))?;
            collected.entry(w).or_default().timed.push(out);
        }
    }
    // Pass 2, traced: three rounds, each traced rep beside an untraced
    // one; the fastest traced rep is kept.
    let traced_reps = if plan.sizing == Sizing::Smoke { 1 } else { 3 };
    let mut probes = BTreeMap::new();
    for r in 0..traced_reps {
        progress(&format!("traced round {}/{traced_reps}", r + 1));
        for w in Workload::ALL {
            traced_round(runner, plan, w, collected.entry(w).or_default())?;
        }
        merge_probes(&mut probes, runner.probes()?);
    }
    // Pass 3, fidelity — and what else runs once: the held-back seed
    // and the repro wall.
    progress("fidelity reps, held-back seed");
    for w in Workload::ALL {
        let c = collected.entry(w).or_default();
        if let Some(spec) = plan.fidelity(w) {
            c.fidelity = Some(runner.rep(spec)?);
        }
        c.held_back = Some(runner.rep(plan.held_back(w))?);
    }
    let repro = if plan.sizing == Sizing::Smoke {
        None
    } else {
        progress("repro all --quick");
        repro_quick_or_warn(runner)
    };
    Ok(Workload::ALL
        .into_iter()
        .map(|w| finish(w, &collected[&w], &probes, repro))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rep(host_s: f64, digest: &str) -> RepOut {
        RepOut {
            setup_phases: vec![host_s / 10.0],
            host_phases: vec![host_s],
            ops: 1000,
            attempted: 10,
            digest: digest.into(),
            peak_heap_mib: 5.0,
            peak_rss_mib: 9.0,
            ..RepOut::default()
        }
    }

    #[test]
    fn host_times_are_the_best_rep_and_memory_the_median() {
        let mut c = Collected::default();
        for (i, h) in [1.3, 1.0, 1.4, 1.05].into_iter().enumerate() {
            let mut r = rep(h, "d");
            r.peak_rss_mib = 9.0 + i as f64;
            c.timed.push(r);
        }
        let res = finish(Workload::BinderIpc, &c, &BTreeMap::new(), None);
        let get = |n: &str| res.end_to_end.iter().find(|m| m.def.name == n).unwrap();
        assert_eq!(get("host_s").value, 1.0);
        assert_eq!(get("host_s").summary.median, 1.175);
        assert_eq!(get("sim_ops_per_s").value, 1000.0);
        assert_eq!(get("peak_rss_mib").value, 10.5);
        assert_eq!(get("ops_ok_pct").value, 100.0);
        // Even reps best 1.3, odd reps best 1.0: a 30% gap, above the
        // host_s bound, so the run cannot resolve it.
        assert!((get("host_s").halves_gap.unwrap() - 0.3).abs() < 1e-12);
        assert_eq!(get("sim_ops_per_s").halves_gap, get("host_s").halves_gap);
        assert!(res.unresolved().contains(&"host_s"));
        assert!(res.per_layer.is_empty());
        assert_eq!((res.attempted, res.failed), (43, 0));
    }

    #[test]
    fn best_total_sums_each_phases_best_across_reps() {
        let mut a = rep(0.0, "d");
        a.host_phases = vec![0.5, 0.7];
        let mut b = rep(0.0, "d");
        b.host_phases = vec![0.6, 0.4];
        let reps = [a, b];
        let (best, gap) = best_with_gap(&reps, |r| &r.host_phases);
        assert!((best - 0.9).abs() < 1e-12, "{best}");
        // Halves: 1.2 against 1.0.
        assert!((gap.unwrap() - 0.2).abs() < 1e-12);
        // A rep that ended early has fewer phases: whole reps compare.
        let mut reps = reps;
        reps[1].host_phases = vec![0.6];
        assert_eq!(best_with_gap(&reps, |r| &r.host_phases).0, 0.6);
        assert_eq!(best_with_gap(&reps[..1], |r| &r.host_phases).1, None);
    }

    #[test]
    fn a_digest_that_moves_between_reps_is_a_failed_op() {
        let c = Collected {
            timed: vec![rep(1.0, "a"), rep(1.0, "a"), rep(1.0, "b")],
            // Another seed is another input: its digest may differ.
            held_back: Some(rep(1.0, "z")),
            ..Collected::default()
        };
        let res = finish(Workload::BinderIpc, &c, &BTreeMap::new(), None);
        assert_eq!(res.failed, 1);
        assert!(res.failures[0].contains("sim_digest"));
        let ok = res
            .end_to_end
            .iter()
            .find(|m| m.def.name == "ops_ok_pct")
            .unwrap();
        assert!(ok.value < 100.0);
    }

    #[test]
    fn per_layer_keeps_the_fastest_traced_rep_and_prints_every_name() {
        let mut c = Collected {
            timed: vec![rep(0.5, "d"), rep(1.1, "d"), rep(1.0, "d")],
            ..Collected::default()
        };
        let mut slow = rep(2.0, "d");
        slow.layers.insert("sim.cycles".into(), 1.0);
        let mut fast = rep(1.02, "d");
        fast.layers.insert("sim.cycles".into(), 2.0);
        fast.layers.insert("not.a.metric".into(), 3.0);
        c.traced = vec![slow, fast];
        let mut fid = rep(5.0, "p");
        fid.paper_err_pct = Some(7.0);
        fid.layers.insert("core.fork_speedup_x".into(), 2.25);
        c.fidelity = Some(fid);
        let res = finish(Workload::FleetChurn, &c, &BTreeMap::new(), Some(1.5));
        assert_eq!(res.per_layer.len(), PER_LAYER.len());
        assert_eq!(res.per_layer["sim.cycles"], 2.0);
        // Against the two untraced reps run beside the two traced
        // ones, not the session's best.
        assert!((res.per_layer["bench.trace_overhead_pct"] - 2.0).abs() < 1e-9);
        assert_eq!(res.per_layer["core.fork_speedup_x"], 2.25);
        assert_eq!(res.per_layer["bench.paper_err_pct"], 7.0);
        assert_eq!(res.per_layer["bench.repro_quick_s"], 1.5);
        assert_eq!(res.per_layer["probe.tlb.lookup_hit_ns"], 0.0);
        assert_eq!(res.paper_err_pct, Some(7.0));
    }
}
