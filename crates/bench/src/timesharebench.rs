//! Timesharing extension: N co-resident applications round-robin
//! scheduled over four cores by `sat-sched`, under the three kernels
//! the paper compares. This is the multi-core follow-up to the
//! pinned-workload figures: context switches every few hundred
//! instructions, binder calls between siblings, and enough process
//! churn to roll the 8-bit ASID space over.

use sat_core::KernelConfig;
use sat_sched::{run_timeshare, TimeshareOptions, TimeshareReport};

use crate::motivation::SEED;
use crate::render::{count, pct, Table};
use crate::Scale;

/// App counts of the timesharing sweep per scale (the grid is one
/// cell per count per kernel config).
fn timeshare_counts(scale: Scale) -> &'static [usize] {
    match scale {
        Scale::Paper => &[4, 16, 64],
        Scale::Quick => &[4, 16],
    }
}

/// The three kernels under comparison.
fn configs() -> [(&'static str, KernelConfig); 3] {
    [
        ("Stock Android", KernelConfig::stock()),
        ("Shared PTP & TLB", KernelConfig::shared_ptp_tlb()),
        (
            "Shared, no ASID",
            KernelConfig::shared_ptp_tlb().without_asid(),
        ),
    ]
}

/// Workload sizing for one grid cell. The largest app count of each
/// scale also churns 260 extra processes through exit-and-respawn, so
/// every run exercises at least one ASID rollover (>255 cumulative
/// processes through a 255-value space).
fn cell_opts(apps: usize, scale: Scale) -> TimeshareOptions {
    let largest = *timeshare_counts(scale).last().unwrap();
    let (rounds, quantum_events, ws_pages) = match scale {
        Scale::Paper => (16, 300, 48),
        Scale::Quick => (8, 120, 24),
    };
    TimeshareOptions {
        rounds,
        quantum_events,
        ws_pages,
        churn: if apps == largest { 260 } else { apps },
        ipc_every: 3,
        seed: SEED,
        ..TimeshareOptions::new(apps)
    }
}

/// The timesharing sweep: every (app count, kernel) cell boots its own
/// system and runs the identical seeded schedule.
pub fn timeshare(scale: Scale) -> sat_types::SatResult<String> {
    let counts = timeshare_counts(scale);
    let mut t = Table::new(
        "Extension: timesharing N apps on 4 cores (sat-sched, round-robin)",
        &[
            "apps",
            "kernel",
            "inst TLB stalls",
            "cross-ASID hits",
            "shootdown IPIs",
            "avoided flushes",
            "rollovers",
            "procs created",
        ],
    );
    let mut stock_stalls_at_largest = 0u64;
    let mut shared_at_largest: Option<TimeshareReport> = None;
    for &apps in counts {
        for (label, config) in configs() {
            let r = run_timeshare(config, cell_opts(apps, scale))?;
            // The rollover bookkeeping must reconcile in every cell.
            assert_eq!(r.asid_generation, 1 + r.asid_rollovers);
            if apps == *counts.last().unwrap() {
                match label {
                    "Stock Android" => stock_stalls_at_largest = r.inst_tlb_stall,
                    "Shared PTP & TLB" => shared_at_largest = Some(r),
                    _ => {}
                }
            }
            t.row(vec![
                apps.to_string(),
                label.into(),
                count(r.inst_tlb_stall),
                count(r.cross_asid_hits),
                count(r.shootdown_ipis),
                count(r.avoided_flushes),
                count(r.asid_rollovers),
                count(r.processes_created),
            ]);
        }
    }
    let mut out = t.render();
    let shared = shared_at_largest.expect("grid includes the largest count");
    let broadcast_ipis = shared.shootdown_ipis + shared.avoided_flushes;
    out.push_str(&format!(
        "With {} timeshared apps, shared translation cuts instruction main-TLB stalls by\n\
         {} vs stock; precise shootdown IPIs {} of the {} cores broadcast would, and the\n\
         {} rollovers ({} processes through 255 ASIDs) kept every global entry live.\n\n",
        counts.last().unwrap(),
        pct(1.0 - shared.inst_tlb_stall as f64 / stock_stalls_at_largest.max(1) as f64),
        count(shared.shootdown_ipis),
        count(broadcast_ipis),
        count(shared.asid_rollovers),
        count(shared.processes_created),
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell_value(out: &str, apps: &str, kernel: &str, col: usize) -> u64 {
        out.lines()
            .find(|l| {
                let mut cells = l.split('|').map(str::trim);
                cells.nth(1) == Some(apps) && l.contains(kernel)
            })
            .unwrap_or_else(|| panic!("no row for {apps}/{kernel}"))
            .split('|')
            .nth(col)
            .unwrap()
            .trim()
            .replace(',', "")
            .parse()
            .unwrap()
    }

    #[test]
    fn shared_beats_stock_at_sixteen_apps() {
        let out = timeshare(Scale::Quick).unwrap();
        let stock = cell_value(&out, "16", "Stock Android", 3);
        let shared = cell_value(&out, "16", "Shared PTP & TLB", 3);
        assert!(
            shared < stock,
            "shared inst-TLB stalls {shared} not below stock {stock}"
        );
    }

    #[test]
    fn precise_shootdown_skips_cores_and_rollovers_happen() {
        let out = timeshare(Scale::Quick).unwrap();
        let avoided = cell_value(&out, "16", "Shared PTP & TLB", 6);
        let rollovers = cell_value(&out, "16", "Shared PTP & TLB", 7);
        let procs = cell_value(&out, "16", "Shared PTP & TLB", 8);
        assert!(avoided > 0, "no shootdown ever skipped a core");
        assert!(rollovers >= 1, "no rollover despite {procs} processes");
        assert!(procs > 255);
    }
}
