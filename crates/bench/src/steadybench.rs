//! Steady-state experiments over the whole application suite:
//! Figures 10, 11, 12 and the PTEs-copied cost of Section 4.2.3.

use sat_android::{launch_app, AndroidSystem, LibraryLayout, SteadyReport};
use sat_core::KernelConfig;
use sat_types::SatResult;

use crate::launchbench::launch_opts;
use crate::motivation::SEED;
use crate::render::{pct, Table};
use crate::zygotebench::{boot_opts, profiles};
use crate::Scale;

/// Steady-state fetch events per application.
pub fn steady_events(scale: Scale) -> usize {
    match scale {
        Scale::Paper => 20_000,
        Scale::Quick => 2_500,
    }
}

/// Runs the full suite (launch + steady state for all eleven
/// applications, all kept alive) under one configuration and returns
/// the per-app reports in suite order.
pub fn run_suite(
    config: KernelConfig,
    layout: LibraryLayout,
    scale: Scale,
) -> SatResult<Vec<SteadyReport>> {
    let mut sys = AndroidSystem::boot(config, layout, SEED, 11, boot_opts(scale))?;
    let apps = profiles(&sys, scale);
    let events = steady_events(scale);
    let opts = launch_opts(scale);
    let mut slots = Vec::new();
    for p in apps {
        let (pid, _) = launch_app(&mut sys, &opts)?;
        let slot = sys.attach_app(pid, p)?;
        slots.push(slot);
    }
    for &slot in &slots {
        sys.run_steady(slot, events)?;
    }
    slots.iter().map(|&s| sys.steady_report(s)).collect()
}

/// The four suite configurations.
fn suite_configs() -> [(&'static str, KernelConfig, LibraryLayout); 4] {
    [
        (
            "Stock Android",
            KernelConfig::stock(),
            LibraryLayout::Original,
        ),
        (
            "Shared PTP",
            KernelConfig::shared_ptp(),
            LibraryLayout::Original,
        ),
        (
            "Stock Android-2MB",
            KernelConfig::stock(),
            LibraryLayout::Aligned2Mb,
        ),
        (
            "Shared PTP-2MB",
            KernelConfig::shared_ptp(),
            LibraryLayout::Aligned2Mb,
        ),
    ]
}

/// Figures 10-12 plus the Section 4.2.3 PTE-copy cost, in one sweep:
/// each of the four suite cells boots its own system from [`SEED`].
pub fn steady_experiment(scale: Scale) -> SatResult<String> {
    let names: Vec<&str> = sat_trace::APP_NAMES.to_vec();
    let mut results = Vec::new();
    for (label, config, layout) in suite_configs() {
        results.push((label, run_suite(config, layout, scale)?));
    }
    let (stock, shared, _stock2, shared2) =
        (&results[0].1, &results[1].1, &results[2].1, &results[3].1);

    let mut out = String::new();

    // Figure 10: percent reduction in file-backed page faults.
    let mut t10 = Table::new(
        "Figure 10: % reduction in page faults for file-based mappings (vs stock)",
        &["Benchmark", "stock faults", "Shared PTP", "Shared PTP-2MB"],
    );
    let mut avg = 0.0;
    for i in 0..names.len() {
        let base = stock[i].file_faults.max(1) as f64;
        let red = 1.0 - shared[i].file_faults as f64 / base;
        let red2 = 1.0 - shared2[i].file_faults as f64 / base;
        avg += red / names.len() as f64;
        t10.row(vec![
            names[i].to_string(),
            format!("{}", stock[i].file_faults),
            pct(red),
            pct(red2),
        ]);
    }
    out.push_str(&t10.render());
    out.push_str(&format!(
        "Average reduction (Shared PTP): {} (paper: 38%)\n\n",
        pct(avg)
    ));

    // Figure 11: PTPs allocated, normalized to stock-original.
    let mut t11 = Table::new(
        "Figure 11: # PTPs allocated (normalized to stock, original alignment)",
        &[
            "Benchmark",
            "Stock",
            "Shared PTP",
            "Stock-2MB",
            "Shared PTP-2MB",
        ],
    );
    let mut reduction_sum = 0.0;
    for i in 0..names.len() {
        let base = results[0].1[i].ptps_allocated as f64;
        reduction_sum += (1.0 - results[1].1[i].ptps_allocated as f64 / base) / names.len() as f64;
        t11.row(vec![
            names[i].to_string(),
            "100%".to_string(),
            format!(
                "{:.0}%",
                100.0 * results[1].1[i].ptps_allocated as f64 / base
            ),
            format!(
                "{:.0}%",
                100.0 * results[2].1[i].ptps_allocated as f64 / base
            ),
            format!(
                "{:.0}%",
                100.0 * results[3].1[i].ptps_allocated as f64 / base
            ),
        ]);
    }
    out.push_str(&t11.render());
    out.push_str(&format!(
        "Average PTP reduction (Shared PTP, original alignment): {} (paper: 35%)\n\n",
        pct(reduction_sum)
    ));

    // Figure 12: % of PTPs shared.
    let mut t12 = Table::new(
        "Figure 12: % of each app's PTPs that are shared across address spaces",
        &["Benchmark", "Shared PTP", "Shared PTP-2MB"],
    );
    let (mut f_orig, mut f_2mb) = (0.0, 0.0);
    for i in 0..names.len() {
        let orig = shared[i].ptps_shared_now as f64 / shared[i].ptps_total_now.max(1) as f64;
        let two = shared2[i].ptps_shared_now as f64 / shared2[i].ptps_total_now.max(1) as f64;
        f_orig += orig / names.len() as f64;
        f_2mb += two / names.len() as f64;
        t12.row(vec![names[i].to_string(), pct(orig), pct(two)]);
    }
    out.push_str(&t12.render());
    out.push_str(&format!(
        "Average shared fraction: original {} (paper: 39%), 2MB-aligned {} (paper: 60%)\n\n",
        pct(f_orig),
        pct(f_2mb)
    ));

    // Section 4.2.3: PTEs copied (fork + unshares).
    let mut tc = Table::new(
        "Section 4.2.3: PTEs copied over the course of execution",
        &["Benchmark", "Stock", "Shared PTP", "Shared PTP-2MB"],
    );
    for i in 0..names.len() {
        tc.row(vec![
            names[i].to_string(),
            format!("{}", stock[i].ptes_copied),
            format!("{}", shared[i].ptes_copied),
            format!("{}", shared2[i].ptes_copied),
        ]);
    }
    out.push_str(&tc.render());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_suite_quick_directional_checks() {
        let stock =
            run_suite(KernelConfig::stock(), LibraryLayout::Original, Scale::Quick).unwrap();
        let shared = run_suite(
            KernelConfig::shared_ptp(),
            LibraryLayout::Original,
            Scale::Quick,
        )
        .unwrap();
        let shared2 = run_suite(
            KernelConfig::shared_ptp(),
            LibraryLayout::Aligned2Mb,
            Scale::Quick,
        )
        .unwrap();
        let mut reduced = 0;
        for i in 0..stock.len() {
            if shared[i].file_faults < stock[i].file_faults {
                reduced += 1;
            }
            assert!(
                shared[i].ptps_allocated <= stock[i].ptps_allocated,
                "app {i}"
            );
        }
        assert!(reduced >= 9, "only {reduced}/11 apps saw fault reductions");
        // Figure 12: the 2MB layout keeps a larger fraction shared.
        let frac = |r: &[SteadyReport]| {
            r.iter()
                .map(|x| x.ptps_shared_now as f64 / x.ptps_total_now.max(1) as f64)
                .sum::<f64>()
                / r.len() as f64
        };
        assert!(
            frac(&shared2) > frac(&shared),
            "2MB {:.2} vs orig {:.2}",
            frac(&shared2),
            frac(&shared)
        );
    }
}
