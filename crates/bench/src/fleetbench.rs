//! Fleet-scale experiment: fork N apps from the zygote, timeshare
//! them briefly on `sat-sched`, then reap the whole fleet — stock vs
//! shared translation at N up to 4096 on up to 64 cores.
//!
//! The point is wall-clock *scaling*, not the TLB columns the other
//! extensions already cover: the scheduled work is held roughly
//! constant across fleet sizes (see [`FleetOptions::new`]), so the
//! wall time of each cell isolates the per-process fork and teardown
//! cost. With the shared-PTP registry, fork of the fully-shared
//! zygote image is O(shared regions) refcount bumps and exit is
//! O(referenced PTPs) detaches, so the shared kernel's wall clock
//! should stay near-flat as N grows 4× per step. `repro diff` gates
//! each fleet size as its own experiment record (see
//! [`record_name`]) so a regression at N=4096 cannot hide behind a
//! flat aggregate.

use sat_core::KernelConfig;
use sat_sched::{run_fleet, FleetOptions, FleetReport};

use crate::render::{count, pct, Table};
use crate::Scale;

/// The (apps, cores) grid per scale. Cores grow with the fleet the
/// way the paper's scalability projection scales hardware.
pub fn fleet_counts(scale: Scale) -> &'static [(usize, usize)] {
    match scale {
        Scale::Paper => &[(256, 16), (1024, 32), (4096, 64)],
        Scale::Quick => &[(64, 8), (256, 16)],
    }
}

/// The snapshot record name for one fleet size. Per-N names make
/// every fleet size its own experiment in `BENCH_repro.json`, so the
/// `repro diff` gate fires per N — a regression at N=4096 is not
/// masked by an in-threshold aggregate.
pub fn record_name(apps: usize) -> String {
    format!("fleet_n{apps}")
}

/// The record names of the scale's whole grid, in run order.
pub fn record_names(scale: Scale) -> Vec<String> {
    let grid = fleet_counts(scale).iter();
    grid.map(|&(apps, _)| record_name(apps)).collect()
}

/// The two kernels under comparison. The ASID/no-ASID ablation adds
/// nothing here — the fleet measures fork/teardown cost, not TLB
/// reach — so the grid stays two cells per N.
fn configs() -> [(&'static str, KernelConfig); 2] {
    [
        ("Stock Android", KernelConfig::stock()),
        ("Shared PTP & TLB", KernelConfig::shared_ptp_tlb()),
    ]
}

/// One fleet size, stock then shared; the table prints only
/// deterministic counters (wall times go to the snapshot).
pub fn fleet_n(apps: usize, cores: usize) -> sat_types::SatResult<String> {
    let mut t = Table::new(
        &format!("Fleet: {apps} apps on {cores} cores (fork, timeshare, reap all)"),
        &[
            "kernel",
            "share forks",
            "ptp unshares",
            "page faults",
            "inst TLB stalls",
            "frames after",
            "live procs",
        ],
    );
    let mut stock: Option<FleetReport> = None;
    let mut shared: Option<FleetReport> = None;
    for (label, config) in configs() {
        let r = run_fleet(config, FleetOptions::new(apps, cores))?;
        // Every cell must create and reap the full fleet, and
        // teardown must leave nothing shared and only the zygote
        // alive — the registry/arena leak witnesses.
        assert_eq!(r.processes_created, apps as u64);
        assert_eq!(r.exits, apps as u64);
        assert_eq!(r.registry_shared_after, 0, "shared PTPs leaked at {label}");
        assert_eq!(r.live_processes_after, 1, "processes leaked at {label}");
        t.row(vec![
            label.into(),
            count(r.share_forks),
            count(r.ptp_unshares),
            count(r.page_faults),
            count(r.inst_tlb_stall),
            count(r.frames_in_use_after),
            count(r.live_processes_after as u64),
        ]);
        match label {
            "Stock Android" => stock = Some(r),
            _ => shared = Some(r),
        }
    }
    let stock = stock.expect("grid includes stock");
    let shared = shared.expect("grid includes shared");
    let mut out = t.render();
    out.push_str(&format!(
        "All {} forks of the {}-app fleet attached to the zygote's page tables by\n\
         refcount bump; the shared kernel took {} fewer launch-path page faults than\n\
         stock and both kernels tore back down to the zygote's {} frames.\n\n",
        count(shared.share_forks),
        apps,
        pct(1.0 - shared.page_faults as f64 / stock.page_faults.max(1) as f64),
        count(shared.frames_in_use_after),
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell_value(out: &str, kernel: &str, col: usize) -> u64 {
        out.lines()
            .find(|l| l.starts_with('|') && l.contains(kernel))
            .unwrap_or_else(|| panic!("no row for {kernel}"))
            .split('|')
            .nth(col)
            .unwrap()
            .trim()
            .replace(',', "")
            .parse()
            .unwrap()
    }

    #[test]
    fn fleet_cell_is_deterministic_and_shared_forks_cheaper() {
        let (apps, cores) = fleet_counts(Scale::Quick)[0];
        let a = fleet_n(apps, cores).unwrap();
        let b = fleet_n(apps, cores).unwrap();
        assert_eq!(a, b, "fleet table must be byte-identical across runs");
        let stock_faults = cell_value(&a, "Stock Android", 4);
        let shared_faults = cell_value(&a, "Shared PTP & TLB", 4);
        assert!(
            shared_faults < stock_faults,
            "shared fleet faults {shared_faults} not below stock {stock_faults}"
        );
        let share_forks = cell_value(&a, "Shared PTP & TLB", 2);
        assert_eq!(share_forks, apps as u64, "every fork must share");
        // Stock never shares, and both kernels print a lone zygote.
        assert_eq!(cell_value(&a, "Stock Android", 2), 0);
        assert_eq!(cell_value(&a, "Stock Android", 7), 1);
        assert_eq!(cell_value(&a, "Shared PTP & TLB", 7), 1);
    }
}
