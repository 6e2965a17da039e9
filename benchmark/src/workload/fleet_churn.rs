//! `fleet_churn` — boot, timeshare and reap 1,024 zygote children on
//! 32 simulated cores. Why: the process-lifecycle path —
//! `Kernel::fork`/`exit`, `SharedPtpRegistry`, the `PtpStore` slab,
//! single-frame `PhysMem::alloc`/free, VMA copy — with few accesses;
//! also the memory-footprint workload that bounds the parked 65k-app
//! fleet.

use sat_android::{AndroidSystem, BootOptions, LibraryLayout};
use sat_sched::{FleetOptions, TimeshareOptions, TimeshareSim};
use sat_types::{Pid, SatResult};

use super::{kernels, Rep, Sizing};
use crate::ledger::Snapshot;
use crate::span::span;

/// The `TimeshareOptions` that `FleetOptions::new(apps, cores)`
/// expands to in `run_fleet`: churn and IPC off.
fn fleet(apps: usize, cores: usize, seed: u64) -> TimeshareOptions {
    let f = FleetOptions::new(apps, cores);
    TimeshareOptions {
        apps: f.apps,
        cores: f.cores,
        rounds: f.rounds,
        quantum_events: f.quantum_events,
        ws_pages: f.ws_pages,
        churn: 0,
        ipc_every: 0,
        seed,
    }
}

pub fn run(rep: &mut Rep, sizing: Sizing) -> SatResult<()> {
    let (apps, cores) = match sizing {
        Sizing::Bench => (1024, 32),
        Sizing::Smoke => (48, 8),
        Sizing::Paper => return table4(rep, BootOptions::paper()),
    };
    let opts = fleet(apps, cores, rep.seed);
    for (_, config) in kernels() {
        // `TimeshareSim::boot` fuses zygote boot with the spawn ramp,
        // so a childless boot is timed as set-up — it is also the
        // lone-zygote state the fleet must tear back down to — and
        // the fused boot stays inside the measured phase.
        let before = rep.setup(|_| -> SatResult<_> {
            let lone = span("android.boot_ms", || {
                TimeshareSim::boot(config, TimeshareOptions { apps: 0, ..opts })
            })?;
            Ok(Snapshot::of(&lone.sys.machine))
        })?;

        // Three measured phases per kernel: spawn, run, reap.
        let booted = rep.measured(|_| span("sched.spawn_ms", || TimeshareSim::boot(config, opts)));
        let mut sim = rep.ops_call("spawn", apps as u64, booted)?;
        let ran = rep.measured(|_| span("sched.run_ms", || sim.run()));
        rep.op("run", ran)?;
        let zygote = sim.sys.zygote;
        let mut fleet: Vec<Pid> = sim
            .sys
            .machine
            .kernel
            .processes()
            .map(|(pid, _)| *pid)
            .filter(|pid| *pid != zygote)
            .collect();
        fleet.sort_unstable();
        rep.measured(|rep| {
            span("sched.reap_ms", || -> SatResult<()> {
                for pid in fleet {
                    let r = sim.reap(pid);
                    rep.op("reap", r)?;
                }
                Ok(())
            })
        })?;
        let m = &sim.sys.machine;
        let after = Snapshot::of(m);
        // The childless boot is the same deterministic zygote boot, so
        // subtracting it leaves spawn + run + reap.
        rep.window(&before, &after);
        rep.ops +=
            (after.kernel.forks - before.kernel.forks) + (after.kernel.exits - before.kernel.exits);
        let r = sim.report();
        rep.count("sched.processes_created", r.processes_created);
        for v in [r.processes_created, r.preemptions, r.global_entries_now] {
            rep.digest.u64(v);
        }
        rep.audit_teardown(m, before.private_frames());
    }
    if sizing == Sizing::Smoke {
        // The smoke run walks the fidelity rep's code too.
        table4(rep, BootOptions::small())?;
    }
    Ok(())
}

/// The fidelity rep: Table 4's zygote fork (at the paper's boot
/// sizing), simulated fork cycles stock ÷ shared.
fn table4(rep: &mut Rep, boot: BootOptions) -> SatResult<()> {
    let mut cycles = Vec::new();
    for (_, config) in kernels() {
        let mut sys = rep.setup(|rep| {
            span("android.boot_ms", || {
                AndroidSystem::boot(config, LibraryLayout::Original, rep.seed, 11, boot)
            })
        })?;
        let before = Snapshot::of(&sys.machine);
        let forked = rep.measured(|_| span("sim.fork_ms", || sys.machine.fork(0, sys.zygote)));
        let (_, fork_cycles) = rep.op("fork", forked)?;
        cycles.push(fork_cycles);
        rep.digest.u64(fork_cycles);
        let after = Snapshot::of(&sys.machine);
        rep.window(&before, &after);
        rep.ops += 1;
        let zygote = sys.zygote;
        rep.teardown(&mut sys.machine, zygote, before.private_frames());
    }
    rep.paper_row(
        "core.fork_speedup_x",
        "fork speed-up x",
        cycles[0] as f64 / cycles[1] as f64,
        2.1,
    );
    Ok(())
}
