//! `serve_pressure` — the bursty serve workload under a starved frame
//! budget (¾ of the uncapped peak). Why: the same phys/mmu/tlb layers
//! as the other workloads used the *other* way — clock-LRU victims,
//! rmap drain, shared-PTP slot tears, `flush_page`/`flush_range`,
//! shootdown IPIs, refaults, run-queue preemption — so a gain bought
//! for fills and lookups at the expense of tears and flushes shows up
//! here. No paper reference exists for it: it is unvalidated.
//!
//! A starved serve run thrashes, and how hard depends chaotically on
//! the seed: simulated cycles move ±12% from one seed to the next at
//! any request count (README, "noise"). So a rep serves four smaller
//! systems booted from four seeds derived from `--seed`, which halves
//! that spread at the same rep length.

use sat_android::{AndroidSystem, BootOptions, LibraryLayout};
use sat_core::KernelConfig;
use sat_sched::{ServeOptions, ServeSim};
use sat_types::SatResult;

use super::{kernels, Rep, Sizing};
use crate::ledger::Snapshot;
use crate::span::span;

/// Systems per rep, each from its own derived seed.
const SUB_SEEDS: u64 = 4;

fn options(sizing: Sizing, seed: u64) -> ServeOptions {
    let (servers, requests) = match sizing {
        Sizing::Bench | Sizing::Paper => (16, 64),
        Sizing::Smoke => (4, 16),
    };
    // Per-request sizing of the paper-scale `repro serve`/`pressure`.
    ServeOptions {
        requests,
        work_min: 160,
        work_spread: 320,
        quantum: 100,
        ws_pages: 48,
        churn: 8.min(servers),
        seed,
        ..ServeOptions::new(servers)
    }
}

pub fn run(rep: &mut Rep, sizing: Sizing) -> SatResult<()> {
    for j in 0..SUB_SEEDS {
        let seed = rep.seed.wrapping_mul(SUB_SEEDS).wrapping_add(j);
        pair(rep, options(sizing, seed))?;
    }
    // One latency distribution per shared-kernel system: the ledger
    // carries their mean, the digest every request of every system.
    for name in [
        "sched.sim_p50_cycles",
        "sched.sim_p95_cycles",
        "sched.sim_p99_cycles",
    ] {
        if let Some(v) = rep.ledger.get_mut(name) {
            *v /= SUB_SEEDS as f64;
        }
    }
    Ok(())
}

/// The stock and the shared kernel on one seed.
fn pair(rep: &mut Rep, opts: ServeOptions) -> SatResult<()> {
    // The uncapped pair sizes the budget, so both run before either
    // measured phase.
    let peak = rep.setup(|_| -> SatResult<u64> {
        let mut peak = 0;
        for (_, config) in kernels() {
            let mut sim = ServeSim::boot(config, opts)?;
            sim.run()?;
            peak = peak.max(sim.report().frames_peak);
        }
        Ok(peak)
    })?;
    let budget = (peak * 3 / 4).max(1);
    rep.digest.u64(budget);
    for (name, config) in kernels() {
        one(rep, name == "shared", config, opts, budget)?;
    }
    Ok(())
}

fn one(
    rep: &mut Rep,
    shared: bool,
    config: KernelConfig,
    opts: ServeOptions,
    budget: u64,
) -> SatResult<()> {
    let (boot_private, mut sim) = rep.setup(|_| -> SatResult<_> {
        // A lone zygote of the same seed: the state the serve system
        // must tear back down to.
        let lone = span("android.boot_ms", || {
            AndroidSystem::boot(
                config,
                LibraryLayout::Original,
                opts.seed,
                11,
                BootOptions::small(),
            )
        })?;
        let boot_private = Snapshot::of(&lone.machine).private_frames();
        drop(lone);
        let capped = ServeOptions {
            mem_frames: Some(budget),
            ..opts
        };
        let sim = span("sched.spawn_ms", || ServeSim::boot(config, capped))?;
        Ok((boot_private, sim))
    })?;
    sim.sys.machine.reset_hw_stats();
    let before = Snapshot::of(&sim.sys.machine);
    let ran = rep.measured(|_| span("sched.serve_ms", || sim.run()));
    rep.ops_call("serve", opts.requests as u64, ran)?;
    let after = Snapshot::of(&sim.sys.machine);
    rep.window(&before, &after);

    let r = sim.report();
    rep.ops += r.requests;
    rep.count("sched.requests", r.requests);
    rep.count("sched.preempted_quanta", r.preempted_quanta);
    rep.count("sched.processes_created", r.processes_created);
    if shared {
        rep.count("sched.sim_p50_cycles", r.p50);
        rep.count("sched.sim_p95_cycles", r.p95);
        rep.count("sched.sim_p99_cycles", r.p99);
    }
    for v in r
        .walls
        .iter()
        .copied()
        .chain([r.preempted_quanta, r.max_wall])
    {
        rep.digest.u64(v);
    }
    rep.audit(
        "every request served",
        (r.requests == opts.requests as u64)
            .then_some(())
            .ok_or(format!("{} of {}", r.requests, opts.requests)),
    );
    rep.audit_invariants(&sim.sys.machine.kernel);
    let zygote = sim.sys.zygote;
    rep.teardown(&mut sim.sys.machine, zygote, boot_private);
    Ok(())
}
