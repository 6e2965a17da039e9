//! `binder_ipc` — the binder ping-pong microbenchmark (Figure 13).
//! Why: the context-switch path — micro-TLB flush, ASID/global
//! matching, zygote-domain faults — with no fault, phys or reclaim
//! work to speak of in the measured phase (its only forks are the
//! client and the server `run_binder_benchmark` creates).

use sat_android::{run_binder_benchmark, AndroidSystem, BinderOptions, BootOptions, LibraryLayout};
use sat_types::SatResult;

use super::{kernels, Rep, Sizing};
use crate::ledger::Snapshot;
use crate::span::span;

pub fn run(rep: &mut Rep, sizing: Sizing) -> SatResult<()> {
    let (boot, opts) = match sizing {
        Sizing::Bench => (
            BootOptions::small(),
            BinderOptions {
                iterations: 10_000,
                ..BinderOptions::paper()
            },
        ),
        Sizing::Smoke => (
            BootOptions::small(),
            BinderOptions {
                iterations: 100,
                ..BinderOptions::paper()
            },
        ),
        Sizing::Paper => (BootOptions::paper(), BinderOptions::paper()),
    };
    let mut reports = Vec::new();
    for (_, config) in kernels() {
        let mut sys = rep.setup(|rep| {
            span("android.boot_ms", || {
                AndroidSystem::boot(config, LibraryLayout::Original, rep.seed, 11, boot)
            })
        })?;
        let before = Snapshot::of(&sys.machine);
        let ran = rep.measured(|_| {
            span("android.binder_ms", || {
                run_binder_benchmark(&mut sys, &opts)
            })
        });
        let r = rep.ops_call("binder round trips", opts.iterations as u64, ran)?;
        let after = Snapshot::of(&sys.machine);
        rep.window(&before, &after);
        rep.ops += r.iterations as u64;
        for v in [
            r.client_tlb_stall,
            r.server_tlb_stall,
            r.client_cycles,
            r.server_cycles,
            r.client_file_faults,
            r.cross_asid_hits,
        ] {
            rep.digest.u64(v);
        }
        reports.push(r);
        rep.audit_invariants(&sys.machine.kernel);
        let zygote = sys.zygote;
        rep.teardown(&mut sys.machine, zygote, before.private_frames());
    }
    let cut = |stock: u64, shared: u64| 100.0 * (1.0 - shared as f64 / stock as f64);
    rep.paper_row(
        "android.ipc_client_stall_cut_pct",
        "client inst-TLB stall cut %",
        cut(reports[0].client_tlb_stall, reports[1].client_tlb_stall),
        36.0,
    );
    rep.paper_row(
        "android.ipc_server_stall_cut_pct",
        "server inst-TLB stall cut %",
        cut(reports[0].server_tlb_stall, reports[1].server_tlb_stall),
        19.0,
    );
    Ok(())
}
