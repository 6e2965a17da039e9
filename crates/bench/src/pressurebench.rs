//! The sharing-under-pressure extension (`repro pressure`): the serve
//! workload re-run under finite physical-frame budgets, stock vs
//! shared, so reclaim's two PTE-teardown paths face off.
//!
//! The grid is kernels × budgets. Budgets derive from the *uncapped*
//! runs' peak frame footprint (deterministic, so the grid is too):
//! `inf` (no budget), `tight` (15/16 of the peak — reclaim engages
//! near the peak), and `starved` (3/4 of the peak — sustained
//! pressure). Under pressure the clock-LRU evicts file page-cache
//! frames; every PTE mapping a victim is torn via the reverse map.
//! Under the stock kernel that is one tear per *process* that mapped
//! the page; under PTP sharing the zygote-preloaded working set lives
//! in shared PTPs, so one tear through the shared PTP repairs every
//! sharer at once — the `reclaim` unshare cause in Figure-6 terms,
//! except the PTP *stays* shared. The refaults then repopulate from
//! the page cache on the next touch, and their cost lands on request
//! critical paths (`repro tails` on a traced pressure run breaks the
//! tail down by cause).

use sat_core::KernelConfig;
use sat_sched::{ServeOptions, ServeReport};

use crate::render::{count, pct, Table};
use crate::servebench::{serve_counts, serve_kernels, serve_opts};
use crate::Scale;

/// The finite budget levels, as fractions of the uncapped peak:
/// label, numerator, denominator.
const LEVELS: [(&str, u64, u64); 2] = [("tight", 15, 16), ("starved", 3, 4)];

/// Servers in every pressure cell: the scale's largest serve count.
pub fn pressure_servers(scale: Scale) -> usize {
    *serve_counts(scale)
        .last()
        .expect("serve_counts is never empty")
}

/// Workload sizing for one pressure cell: the serve sweep's largest
/// configuration with the budget applied.
pub fn pressure_opts(scale: Scale, mem_frames: Option<u64>) -> ServeOptions {
    let mut opts = serve_opts(pressure_servers(scale), scale);
    opts.mem_frames = mem_frames;
    opts
}

/// Finite budgets derived from the uncapped peak footprint, in
/// tightening order.
pub fn derive_budgets(peak: u64) -> Vec<(&'static str, u64)> {
    LEVELS
        .iter()
        .map(|&(label, num, den)| (label, (peak * num / den).max(1)))
        .collect()
}

/// Snapshot record names of every cell the grid produces, in run
/// order (`repro tails` scans these for traced pressure brackets).
pub fn record_names() -> Vec<String> {
    let mut names = Vec::new();
    for (kname, _, _) in serve_kernels() {
        names.push(format!("pressure_{}_inf", short(kname)));
    }
    for (kname, _, _) in serve_kernels() {
        for (blabel, _, _) in LEVELS {
            names.push(format!("pressure_{}_{blabel}", short(kname)));
        }
    }
    names
}

/// `serve_stock` -> `stock`.
fn short(record: &str) -> &str {
    record.strip_prefix("serve_").unwrap_or(record)
}

/// One grid cell: snapshot record name, frame budget (`None` for the
/// uncapped baselines), and the cell's report.
pub type PressureCell = (String, Option<u64>, ServeReport);

/// Runs the whole grid through `run_cell` (the `repro` binary wraps
/// each call in a timed snapshot record; tests pass `run_serve`
/// directly) and renders one table per kernel plus the cross-kernel
/// summary. Returns the text and every cell as
/// `(record_name, mem_frames, report)` in run order.
pub fn grid<E>(
    scale: Scale,
    mut run_cell: impl FnMut(&str, ServeOptions, KernelConfig) -> Result<ServeReport, E>,
) -> Result<(String, Vec<PressureCell>), E> {
    // Wave 1: the uncapped baselines, whose peak footprint sizes the
    // finite budgets.
    let mut cells: Vec<PressureCell> = Vec::new();
    for (kname, _, config) in serve_kernels() {
        let record = format!("pressure_{}_inf", short(kname));
        let report = run_cell(&record, pressure_opts(scale, None), config)?;
        cells.push((record, None, report));
    }
    let peak = cells
        .iter()
        .map(|(_, _, r)| r.frames_peak)
        .max()
        .unwrap_or(0);
    let budgets = derive_budgets(peak);

    // Wave 2: the same workload squeezed under each finite budget.
    for (kname, _, config) in serve_kernels() {
        for &(blabel, frames) in &budgets {
            let record = format!("pressure_{}_{blabel}", short(kname));
            let report = run_cell(&record, pressure_opts(scale, Some(frames)), config)?;
            cells.push((record, Some(frames), report));
        }
    }

    let mut s = String::new();
    for (kname, label, _) in serve_kernels() {
        let prefix = format!("pressure_{}_", short(kname));
        let mut t = Table::new(
            &format!(
                "Extension: serving under memory pressure, {label} \
                 ({} servers, budgets from the {}-frame uncapped peak)",
                pressure_servers(scale),
                count(peak)
            ),
            &[
                "budget", "frames", "p50", "p95", "p99", "reclaims", "evicted", "refaults",
                "unshares",
            ],
        );
        for (record, mem_frames, r) in cells.iter().filter(|(n, _, _)| n.starts_with(&prefix)) {
            let blabel = record.strip_prefix(&prefix).expect("filtered on prefix");
            t.row(vec![
                blabel.to_string(),
                mem_frames.map_or_else(|| "-".to_string(), count),
                count(r.p50),
                count(r.p95),
                count(r.p99),
                count(r.reclaims),
                count(r.reclaimed_pages),
                count(r.refaults),
                count(r.ptp_unshares),
            ]);
        }
        s.push_str(&t.render());
    }
    s.push_str(&summary(peak, &budgets, &cells));
    Ok((s, cells))
}

/// The cross-kernel closing paragraph: how the starved tail moved and
/// how each kernel paid for its evictions.
fn summary(peak: u64, budgets: &[(&'static str, u64)], cells: &[PressureCell]) -> String {
    let get = |name: &str| -> &ServeReport {
        &cells
            .iter()
            .find(|(n, _, _)| n == name)
            .expect("grid ran every cell")
            .2
    };
    let (_, starved_frames) = *budgets.last().expect("LEVELS is never empty");
    let stock = get("pressure_stock_starved");
    let shared = get("pressure_shared_starved");
    format!(
        "Under the starved budget ({} frames, {} of the {}-frame peak), stock\n\
         pays for its {} evictions with {} private PTE tears, while sharing\n\
         repairs its victims with {} shared-PTP tears (one per PTP slot, all\n\
         sharers at once) plus {} private tears; p99 moves from {} (stock) to\n\
         {} cycles ({} of stock). Trace the run and use `repro tails` for the\n\
         per-cause blame behind the pressure tail.\n\n",
        count(starved_frames),
        pct(starved_frames as f64 / peak.max(1) as f64),
        count(peak),
        count(stock.reclaimed_pages),
        count(stock.reclaim_pte_tears),
        count(shared.reclaim_shared_tears),
        count(shared.reclaim_pte_tears),
        count(stock.p99),
        count(shared.p99),
        pct(shared.p99 as f64 / stock.p99.max(1) as f64),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sat_sched::run_serve;

    #[test]
    fn pressure_grid_reclaims_under_finite_budgets_and_renders() {
        let (text, cells) = grid(Scale::Quick, |_, opts, config| run_serve(config, opts)).unwrap();
        assert!(text.contains("serving under memory pressure"), "{text}");
        assert!(text.contains("starved"), "{text}");
        assert!(text.contains("shared-PTP tears"), "{text}");
        assert_eq!(cells.len(), 6, "2 kernels x (inf + 2 finite budgets)");
        assert_eq!(
            cells.iter().map(|(n, _, _)| n.clone()).collect::<Vec<_>>(),
            record_names()
        );
        for (name, mem_frames, r) in &cells {
            assert_eq!(
                r.requests,
                pressure_opts(Scale::Quick, None).requests as u64,
                "{name} must drain"
            );
            match mem_frames {
                None => assert_eq!(r.reclaims, 0, "{name}: no budget, no reclaim"),
                Some(_) => assert!(r.reclaims > 0, "{name} must reclaim: {r:?}"),
            }
            // Only the starved budget is guaranteed to evict pages the
            // workload touches again; tight may bite once near the end
            // of the run and never see a refault at quick scale.
            if name.ends_with("_starved") {
                assert!(r.refaults > 0, "{name} must refault: {r:?}");
            }
        }
        // The teardown split matches the kernels: stock never tears
        // through a shared PTP; sharing must.
        let get = |n: &str| &cells.iter().find(|(c, _, _)| c == n).unwrap().2;
        assert_eq!(get("pressure_stock_starved").reclaim_shared_tears, 0);
        assert!(get("pressure_shared_starved").reclaim_shared_tears > 0);
    }

    #[test]
    fn pressure_grid_is_deterministic() {
        // Budgets derive from the uncapped wave and the wave from the
        // seed; repeated runs must be byte-identical.
        let run = || grid(Scale::Quick, |_, opts, config| run_serve(config, opts)).unwrap();
        let (a, ar) = run();
        let (b, br) = run();
        assert_eq!(a, b, "pressure grid text changed between runs");
        assert_eq!(ar, br, "pressure grid reports changed between runs");
    }
}
