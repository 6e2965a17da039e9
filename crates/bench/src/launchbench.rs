//! Application-launch experiments: Figures 7, 8, and 9
//! (Section 4.2.2).

use sat_android::{launch_app, AndroidSystem, LaunchOptions, LaunchReport, LibraryLayout};
use sat_core::{KernelConfig, NoTlb};
use sat_types::SatResult;

use crate::motivation::SEED;
use crate::render::{count, FiveNum, Table};
use crate::zygotebench::boot_opts;
use crate::Scale;

/// The four launch configurations of Figures 7-9.
fn launch_configs() -> [(&'static str, KernelConfig, LibraryLayout); 4] {
    [
        (
            "Stock Android",
            KernelConfig::stock(),
            LibraryLayout::Original,
        ),
        (
            "Shared PTP & TLB",
            KernelConfig::shared_ptp_tlb(),
            LibraryLayout::Original,
        ),
        (
            "Stock Android-2MB",
            KernelConfig::stock(),
            LibraryLayout::Aligned2Mb,
        ),
        (
            "Shared PTP & TLB-2MB",
            KernelConfig::shared_ptp_tlb(),
            LibraryLayout::Aligned2Mb,
        ),
    ]
}

/// Launch-workload sizing per scale.
pub fn launch_opts(scale: Scale) -> LaunchOptions {
    match scale {
        Scale::Paper => LaunchOptions::paper(),
        Scale::Quick => LaunchOptions::small(),
    }
}

/// Runs `n` sequential launches (each exits before the next) under
/// one configuration and returns the reports.
pub fn run_launches(
    config: KernelConfig,
    layout: LibraryLayout,
    scale: Scale,
    n: usize,
) -> SatResult<Vec<LaunchReport>> {
    let mut sys = AndroidSystem::boot(config, layout, SEED, 11, boot_opts(scale))?;
    let opts = launch_opts(scale);
    let mut reports = Vec::new();
    for _ in 0..n {
        let (pid, report) = launch_app(&mut sys, &opts)?;
        reports.push(report);
        sys.machine.syscall(|k, _tlb| k.exit(pid, &mut NoTlb))?;
    }
    Ok(reports)
}

/// Number of launch repetitions per configuration.
pub fn repetitions(scale: Scale) -> usize {
    match scale {
        Scale::Paper => 20,
        Scale::Quick => 4,
    }
}

/// Figures 7-9 plus the per-launch fork cost, in one sweep: each of
/// the four configuration cells boots its own system from [`SEED`].
pub fn launch_experiment(scale: Scale) -> SatResult<String> {
    let n = repetitions(scale);
    let mut all: Vec<(&str, Vec<LaunchReport>)> = Vec::new();
    for (label, config, layout) in launch_configs() {
        all.push((label, run_launches(config, layout, scale, n)?));
    }

    let mut out = String::new();

    // Figure 7: execution-time box-and-whisker.
    let mut t7 = Table::new(
        "Figure 7: application-launch execution time (cycles)",
        &["Config", "min", "Q1", "median", "Q3", "max"],
    );
    for (label, reports) in &all {
        let xs: Vec<f64> = reports.iter().map(|r| r.window_cycles as f64).collect();
        let f = FiveNum::of(&xs);
        t7.row(vec![
            label.to_string(),
            count(f.min as u64),
            count(f.q1 as u64),
            count(f.median as u64),
            count(f.q3 as u64),
            count(f.max as u64),
        ]);
    }
    out.push_str(&t7.render());
    let median = |i: usize| {
        let xs: Vec<f64> = all[i].1.iter().map(|r| r.window_cycles as f64).collect();
        FiveNum::of(&xs).median
    };
    out.push_str(&format!(
        "Launch speed-up vs stock: shared {:.1}% (paper: 7%), shared-2MB {:.1}% (paper: 10%)\n\n",
        100.0 * (1.0 - median(1) / median(0)),
        100.0 * (1.0 - median(3) / median(0)),
    ));

    // Figure 8: L1-I stall cycles.
    let mut t8 = Table::new(
        "Figure 8: application-launch L1 instruction-cache stall cycles",
        &["Config", "min", "Q1", "median", "Q3", "max"],
    );
    for (label, reports) in &all {
        let xs: Vec<f64> = reports
            .iter()
            .map(|r| r.icache_stall_cycles as f64)
            .collect();
        let f = FiveNum::of(&xs);
        t8.row(vec![
            label.to_string(),
            count(f.min as u64),
            count(f.q1 as u64),
            count(f.median as u64),
            count(f.q3 as u64),
            count(f.max as u64),
        ]);
    }
    out.push_str(&t8.render());

    // Figure 9: PTPs allocated and file-backed faults, normalized to
    // stock with the original alignment (median launch).
    let med = |xs: Vec<f64>| FiveNum::of(&xs).median;
    let base_ptps = med(all[0].1.iter().map(|r| r.ptps_allocated as f64).collect());
    let base_faults = med(all[0].1.iter().map(|r| r.file_faults as f64).collect());
    let mut t9 = Table::new(
        "Figure 9: PTPs allocated and file-backed page faults during launch",
        &[
            "Config",
            "# PTPs",
            "PTPs vs stock",
            "# file faults",
            "faults vs stock",
        ],
    );
    for (label, reports) in &all {
        let ptps = med(reports.iter().map(|r| r.ptps_allocated as f64).collect());
        let faults = med(reports.iter().map(|r| r.file_faults as f64).collect());
        t9.row(vec![
            label.to_string(),
            format!("{ptps:.0}"),
            format!("{:.0}%", 100.0 * ptps / base_ptps),
            format!("{faults:.0}"),
            format!("{:.0}%", 100.0 * faults / base_faults),
        ]);
    }
    out.push_str(&t9.render());
    out.push_str(
        "Paper: stock 72 PTPs / 1,900 faults; shared 23 PTPs / 110 faults; shared-2MB 28 PTPs / 93 faults\n\n",
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn launch_experiment_quick_shapes() {
        let out = launch_experiment(Scale::Quick).unwrap();
        assert!(out.contains("Figure 7"));
        assert!(out.contains("Figure 8"));
        assert!(out.contains("Figure 9"));
        // Shared beats stock on launch time.
        let speedup: f64 = out
            .split("shared ")
            .nth(1)
            .unwrap()
            .split('%')
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert!(speedup > 0.0, "no launch speedup: {speedup}");
    }

    #[test]
    fn shared_launch_eliminates_faults_quick() {
        let stock = run_launches(
            KernelConfig::stock(),
            LibraryLayout::Original,
            Scale::Quick,
            2,
        )
        .unwrap();
        let shared = run_launches(
            KernelConfig::shared_ptp_tlb(),
            LibraryLayout::Original,
            Scale::Quick,
            2,
        )
        .unwrap();
        assert!(shared[0].file_faults * 2 < stock[0].file_faults);
        // Stock launches are repeatable: every child refaults.
        assert_eq!(stock[0].file_faults, stock[1].file_faults);
        // Shared launches improve further as PTEs accumulate.
        assert!(shared[1].file_faults <= shared[0].file_faults);
    }
}
