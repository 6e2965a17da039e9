//! The serving extension: a bursty open-loop request workload over a
//! pool of forked server processes (`sat-sched`'s `run_serve`), under
//! the stock and shared-translation kernels. This is the tail-latency
//! experiment behind `repro serve`: request walls are measured in
//! simulated cycles, every cycle on the critical path is blame-tagged
//! by cause when a recorder is installed, and `repro tails` breaks the
//! slowest requests down cause by cause from the trace.

use sat_core::KernelConfig;
use sat_sched::{run_serve, ServeOptions, ServeReport};

use crate::motivation::SEED;
use crate::render::{count, pct, Table};
use crate::Scale;

/// Server-pool sizes of the serve sweep per scale (one cell per size
/// per kernel).
pub fn serve_counts(scale: Scale) -> &'static [usize] {
    match scale {
        Scale::Paper => &[8, 16],
        Scale::Quick => &[8],
    }
}

/// The two kernels the serving comparison runs: snapshot record name,
/// table label, config.
pub fn serve_kernels() -> [(&'static str, &'static str, KernelConfig); 2] {
    [
        ("serve_stock", "Stock Android", KernelConfig::stock()),
        (
            "serve_shared",
            "Shared PTP & TLB",
            KernelConfig::shared_ptp_tlb(),
        ),
    ]
}

/// Workload sizing for one serve cell. Requests outlive their quantum
/// (`work_min > quantum`), so every run exercises preemption and the
/// `RunqWait` blame bucket; churn re-forks idle servers so fork cost
/// lands on queued requests' critical paths.
pub fn serve_opts(servers: usize, scale: Scale) -> ServeOptions {
    let (requests, work_min, work_spread, quantum, ws_pages) = match scale {
        Scale::Paper => (384, 160, 320, 100, 48),
        Scale::Quick => (96, 120, 260, 90, 32),
    };
    ServeOptions {
        requests,
        work_min,
        work_spread,
        quantum,
        ws_pages,
        churn: servers / 2,
        seed: SEED,
        ..ServeOptions::new(servers)
    }
}

/// Runs the serve sweep for one kernel (one cell per server count)
/// and renders its table. Returns the report at the largest count
/// alongside, so the caller can record latency percentiles and compare
/// kernels.
///
/// With `mem_frames` set (`repro serve --mem-frames N`), every cell
/// runs under that physical-frame budget and the table grows reclaim
/// columns; without it the output is byte-identical to the budget-less
/// serve table.
pub fn serve_kernel(
    scale: Scale,
    label: &str,
    config: KernelConfig,
    mem_frames: Option<u64>,
) -> sat_types::SatResult<(String, ServeReport)> {
    let counts = serve_counts(scale);
    let title = match mem_frames {
        Some(budget) => format!(
            "Extension: serving bursty requests, {label} ({} frame budget)",
            count(budget)
        ),
        None => format!("Extension: serving bursty requests, {label} (sat-sched, open loop)"),
    };
    let mut header = vec![
        "servers",
        "requests",
        "p50",
        "p95",
        "p99",
        "max wall",
        "preempted",
        "faults",
        "unshares",
    ];
    if mem_frames.is_some() {
        header.extend(["reclaims", "evicted", "refaults"]);
    }
    let mut t = Table::new(&title, &header);
    let mut largest: Option<ServeReport> = None;
    for &servers in counts {
        let opts = ServeOptions {
            mem_frames,
            ..serve_opts(servers, scale)
        };
        let r = run_serve(config, opts)?;
        assert_eq!(
            r.requests, opts.requests as u64,
            "serve run must drain every request"
        );
        let mut row = vec![
            servers.to_string(),
            count(r.requests),
            count(r.p50),
            count(r.p95),
            count(r.p99),
            count(r.max_wall),
            count(r.preempted_quanta),
            count(r.page_faults),
            count(r.ptp_unshares),
        ];
        if mem_frames.is_some() {
            row.extend([
                count(r.reclaims),
                count(r.reclaimed_pages),
                count(r.refaults),
            ]);
        }
        t.row(row);
        largest = Some(r);
    }
    Ok((t.render(), largest.expect("serve_counts is never empty")))
}

/// The snapshot metrics of one serve cell: request-latency percentiles
/// in simulated cycles (deterministic, so `repro diff` gates the p99
/// tail) and — under a frame budget — what reclaim did.
pub fn snapshot_metrics(r: &ServeReport, budgeted: bool) -> Vec<(&'static str, u64)> {
    let mut m = vec![
        ("latency.p50", r.p50),
        ("latency.p95", r.p95),
        ("latency.p99", r.p99),
    ];
    if budgeted {
        m.extend([
            ("reclaim.passes", r.reclaims),
            ("reclaim.pages", r.reclaimed_pages),
            ("reclaim.pte_tears", r.reclaim_pte_tears),
            ("reclaim.shared_tears", r.reclaim_shared_tears),
            ("reclaim.refaults", r.refaults),
        ]);
    }
    m
}

/// The cross-kernel closing line: how the tail moved, in cycles.
pub fn serve_summary(scale: Scale, stock: &ServeReport, shared: &ServeReport) -> String {
    let largest = *serve_counts(scale).last().unwrap();
    format!(
        "With {largest} servers, shared translation moves the serve tail from p99 {} to\n\
         {} cycles ({} of stock) and p50 from {} to {}; run `repro tails` on a\n\
         traced serve run for the per-cause blame behind the slowest requests.\n\n",
        count(stock.p99),
        count(shared.p99),
        pct(shared.p99 as f64 / stock.p99.max(1) as f64),
        count(stock.p50),
        count(shared.p50),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_tables_render_and_reports_return() {
        let kernels = serve_kernels();
        let (out_stock, stock) =
            serve_kernel(Scale::Quick, kernels[0].1, kernels[0].2, None).unwrap();
        let (out_shared, shared) =
            serve_kernel(Scale::Quick, kernels[1].1, kernels[1].2, None).unwrap();
        assert!(out_stock.contains("Stock Android"), "{out_stock}");
        assert!(out_shared.contains("Shared PTP & TLB"), "{out_shared}");
        assert_eq!(stock.requests, 96);
        assert_eq!(shared.requests, 96);
        assert!(stock.preempted_quanta > 0);
        assert!(shared.ptp_unshares > 0, "shared serve must unshare PTPs");
        let summary = serve_summary(Scale::Quick, &stock, &shared);
        assert!(summary.contains("p99"), "{summary}");
    }

    /// (The name dates from the worker pool; it compares two runs.)
    #[test]
    fn serve_cells_are_deterministic_across_pool_runs() {
        let (_, a) =
            serve_kernel(Scale::Quick, "Stock Android", KernelConfig::stock(), None).unwrap();
        let (_, b) =
            serve_kernel(Scale::Quick, "Stock Android", KernelConfig::stock(), None).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn budgeted_serve_table_grows_reclaim_columns_and_unbudgeted_does_not() {
        let (plain, r) =
            serve_kernel(Scale::Quick, "Stock Android", KernelConfig::stock(), None).unwrap();
        assert!(!plain.contains("reclaims"), "{plain}");
        assert_eq!(r.reclaims, 0);

        // A budget at 3/4 of the uncapped peak must bite and render.
        let budget = r.frames_peak * 3 / 4;
        let (capped, rc) = serve_kernel(
            Scale::Quick,
            "Stock Android",
            KernelConfig::stock(),
            Some(budget),
        )
        .unwrap();
        assert!(capped.contains("frame budget"), "{capped}");
        assert!(capped.contains("reclaims"), "{capped}");
        assert!(capped.contains("refaults"), "{capped}");
        assert!(rc.reclaims > 0, "the budget must force reclaim: {rc:?}");
        assert!(rc.refaults > 0, "evicted pages must refault: {rc:?}");
    }
}
