//! `suite_steady` — boot, launch the eleven-app suite, attach the
//! profiles, run each app's steady state. Why: the paper's §4.2.2–
//! 4.2.3 evaluation and the pure *read* path — `Machine::access` →
//! micro/main TLB lookup → table walk → cache model do nearly all the
//! work; 22 forks and no reclaim, so fork, phys and promote changes
//! must show no change here.

use sat_android::{launch_app, AndroidSystem, BootOptions, LaunchOptions, LibraryLayout};
use sat_trace::{app_specs, AppProfile};
use sat_types::SatResult;

use super::{kernels, median_u64, Rep, Sizing};
use crate::ledger::Snapshot;
use crate::span::span;

struct Size {
    boot: BootOptions,
    launch: LaunchOptions,
    /// Steady-state fetch events per app.
    events: usize,
    /// Footprint override in pages (`None`: each app's own).
    footprint: Option<u32>,
}

fn size(sizing: Sizing) -> Size {
    match sizing {
        Sizing::Bench => Size {
            boot: BootOptions::small(),
            launch: LaunchOptions::small(),
            events: 5_000,
            footprint: None,
        },
        Sizing::Smoke => Size {
            boot: BootOptions::small(),
            launch: LaunchOptions::small(),
            events: 200,
            footprint: Some(120),
        },
        Sizing::Paper => Size {
            boot: BootOptions::paper(),
            launch: LaunchOptions::paper(),
            events: 20_000,
            footprint: None,
        },
    }
}

/// What one kernel's suite run leaves for the cross-kernel figures.
struct Suite {
    launch_cycles: Vec<u64>,
    file_faults: Vec<u64>,
    ptps_allocated: Vec<u64>,
    shared_fraction: f64,
}

pub fn run(rep: &mut Rep, sizing: Sizing) -> SatResult<()> {
    let sz = size(sizing);
    let mut suites = Vec::new();
    for (_, config) in kernels() {
        let (mut sys, profiles) = rep.setup(|rep| -> SatResult<_> {
            let sys = span("android.boot_ms", || {
                AndroidSystem::boot(config, LibraryLayout::Original, rep.seed, 11, sz.boot)
            })?;
            let profiles: Vec<AppProfile> = span("trace.generate_ms", || {
                app_specs()
                    .iter()
                    .enumerate()
                    .map(|(i, spec)| {
                        let mut spec = spec.clone();
                        if let Some(pages) = sz.footprint {
                            spec.footprint_pages = pages;
                        }
                        AppProfile::generate(&sys.catalog, &spec, i, rep.seed)
                    })
                    .collect()
            });
            Ok((sys, profiles))
        })?;
        let before = Snapshot::of(&sys.machine);
        let boot_private = before.private_frames();

        // One measured phase per launch and per steady run: the same
        // calls on every rep, so each has a best of its own.
        let mut launch_cycles = Vec::new();
        let mut slots = Vec::new();
        for p in profiles {
            let slot = rep.measured(|_| {
                span("android.launch_ms", || -> SatResult<usize> {
                    let (pid, report) = launch_app(&mut sys, &sz.launch)?;
                    launch_cycles.push(report.window_cycles);
                    sys.attach_app(pid, p)
                })
            });
            slots.push(rep.op("launch", slot)?);
        }
        for &slot in &slots {
            let r = rep.measured(|_| span("android.steady_ms", || sys.run_steady(slot, sz.events)));
            rep.op("steady", r)?;
        }
        let after = Snapshot::of(&sys.machine);
        rep.window(&before, &after);
        rep.ops += (after.core.inst_fetches - before.core.inst_fetches)
            + (after.core.data_accesses - before.core.data_accesses);

        let mut suite = Suite {
            launch_cycles,
            file_faults: Vec::new(),
            ptps_allocated: Vec::new(),
            shared_fraction: 0.0,
        };
        for &slot in &slots {
            let r = sys.steady_report(slot)?;
            for v in [r.file_faults, r.ptps_allocated, r.ptes_copied, r.unshares] {
                rep.digest.u64(v);
            }
            suite.file_faults.push(r.file_faults);
            suite.ptps_allocated.push(r.ptps_allocated);
            suite.shared_fraction +=
                r.ptps_shared_now as f64 / r.ptps_total_now.max(1) as f64 / slots.len() as f64;
        }
        rep.audit_invariants(&sys.machine.kernel);
        let zygote = sys.zygote;
        rep.teardown(&mut sys.machine, zygote, boot_private);
        suites.push(suite);
    }

    // The paper's suite averages (Figures 10-12, Figure 7).
    let (stock, shared) = (&suites[0], &suites[1]);
    let n = stock.file_faults.len() as f64;
    let mean_cut = |a: &[u64], b: &[u64]| {
        a.iter()
            .zip(b)
            .map(|(&s, &h)| 1.0 - h as f64 / s.max(1) as f64)
            .sum::<f64>()
            / n
            * 100.0
    };
    let launch = 100.0
        * (1.0
            - median_u64(&mut shared.launch_cycles.clone())
                / median_u64(&mut stock.launch_cycles.clone()));
    rep.paper_row(
        "android.fault_reduction_pct",
        "file-fault reduction %",
        mean_cut(&stock.file_faults, &shared.file_faults),
        38.0,
    );
    rep.paper_row(
        "android.ptp_reduction_pct",
        "PTP reduction %",
        mean_cut(&stock.ptps_allocated, &shared.ptps_allocated),
        35.0,
    );
    rep.paper_row(
        "android.shared_ptp_fraction_pct",
        "shared-PTP fraction %",
        shared.shared_fraction * 100.0,
        39.0,
    );
    rep.paper_row(
        "android.launch_speedup_pct",
        "launch speed-up %",
        launch,
        7.0,
    );
    Ok(())
}
