//! The binder IPC experiment: Figure 13 (Section 4.2.4).

use sat_android::{run_binder_benchmark, BinderOptions, BinderReport, LibraryLayout};
use sat_core::KernelConfig;
use sat_types::SatResult;

use crate::render::Table;
use crate::Scale;

/// Binder sizing per scale.
pub fn binder_opts(scale: Scale) -> BinderOptions {
    match scale {
        Scale::Paper => BinderOptions::paper(),
        Scale::Quick => BinderOptions::small(),
    }
}

/// Runs the microbenchmark under one configuration.
pub fn run_config(config: KernelConfig, scale: Scale) -> SatResult<BinderReport> {
    let mut sys = crate::boot(config, LibraryLayout::Original, scale)?;
    run_binder_benchmark(&mut sys, &binder_opts(scale))
}

/// Figure 13: instruction main-TLB stall cycles for client and
/// server, normalized to the stock kernel.
pub fn fig13(scale: Scale) -> SatResult<String> {
    let configs = [
        ("Stock Android", KernelConfig::stock()),
        ("Disabled ASID", KernelConfig::stock().without_asid()),
        ("Shared PTP", KernelConfig::shared_ptp()),
        ("Shared PTP & TLB", KernelConfig::shared_ptp_tlb()),
    ];
    let mut reports = Vec::new();
    for (label, config) in configs {
        reports.push((label, run_config(config, scale)?));
    }
    let base_client = reports[0].1.client_tlb_stall as f64;
    let base_server = reports[0].1.server_tlb_stall as f64;

    let mut t = Table::new(
        "Figure 13: instruction main-TLB stall cycles (normalized to stock)",
        &[
            "Config",
            "Client",
            "Server",
            "client faults",
            "cross-ASID hits",
        ],
    );
    for (label, r) in &reports {
        t.row(vec![
            label.to_string(),
            format!("{:.0}%", 100.0 * r.client_tlb_stall as f64 / base_client),
            format!("{:.0}%", 100.0 * r.server_tlb_stall as f64 / base_server),
            format!("{}", r.client_file_faults),
            format!("{}", r.cross_asid_hits),
        ]);
    }
    let mut out = t.render();
    let full = &reports[3].1;
    out.push_str(&format!(
        "Shared PTP & TLB improvement: client {:.0}%, server {:.0}% (paper: 36% and 19%)\n\n",
        100.0 * (1.0 - full.client_tlb_stall as f64 / base_client),
        100.0 * (1.0 - full.server_tlb_stall as f64 / base_server),
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::render::cell;
    use std::sync::LazyLock;

    // The quick experiment runs once per test binary; both rows check
    // its output.
    static FIG13: LazyLock<String> = LazyLock::new(|| fig13(Scale::Quick).unwrap());

    #[test]
    fn fig13_quick_ordering() {
        assert!(FIG13.contains("Disabled ASID"));
        assert!(FIG13.contains("Shared PTP & TLB"));
    }

    #[test]
    fn ipc_experiment_quick() {
        // Shared PTP & TLB must improve on stock for the client.
        let client: String = cell(&FIG13, &["Shared PTP & TLB"], 2);
        let client: f64 = client.trim_end_matches('%').parse().unwrap();
        assert!(client < 100.0, "client {client}% >= stock");
    }
}
