//! Extension experiments beyond the paper's figures: the scalability
//! argument of the introduction made quantitative and the paper's
//! suggested grouped-segment layout. (The large-page alternative
//! lives in [`crate::reachbench`] now, driven by the real promotion
//! engine instead of an eager mapping loop.)

use sat_android::{AndroidSystem, LibraryLayout};
use sat_core::KernelConfig;
use sat_types::{AccessType, VirtAddr, PAGE_SIZE};

use crate::motivation::SEED;
use crate::render::{count, pct, Table};
use crate::zygotebench::boot_opts;
use crate::Scale;

/// Process counts of the scalability sweep per scale (the grid is one
/// cell per count per kernel config).
fn scalability_counts(scale: Scale) -> &'static [usize] {
    match scale {
        Scale::Paper => &[1, 2, 4, 8, 16, 32, 64],
        Scale::Quick => &[1, 4, 16],
    }
}

/// Scalability: "while the amount of memory required for mapping a
/// physical page of private data is small and constant, for shared
/// memory regions this overhead grows linearly with the number of
/// processes." Forks N processes from a zygote and reports total
/// page-table frames and the duplicated PTE cache lines a shared L2
/// would hold.
pub fn scalability(scale: Scale) -> sat_types::SatResult<String> {
    let counts = scalability_counts(scale);
    let mut t = Table::new(
        "Scalability: page-table pages vs process count",
        &[
            "processes",
            "stock PTPs",
            "stock PT KB",
            "shared PTPs",
            "shared PT KB",
            "duplication factor",
        ],
    );
    // Every (process count, kernel config) cell boots its own system.
    let cell = |n: usize, config: KernelConfig| -> sat_types::SatResult<usize> {
        let mut sys =
            AndroidSystem::boot(config, LibraryLayout::Original, SEED, 11, boot_opts(scale))?;
        let mut pids = Vec::new();
        for _ in 0..n {
            let (o, _) = sys.machine.fork(0, sys.zygote)?;
            pids.push(o.child);
        }
        // Each child faults the same library working set, as
        // co-resident applications do.
        for &pid in &pids {
            sys.machine.context_switch(0, pid)?;
            let lib = sys.catalog.zygote_native[1];
            let base = sys.map.code_base(lib).unwrap();
            let pages = sys.catalog.lib(lib).code_pages.min(16);
            for p in 0..pages {
                sys.machine.access(
                    0,
                    VirtAddr::new(base.raw() + p * PAGE_SIZE),
                    AccessType::Execute,
                )?;
            }
        }
        Ok(sys.machine.kernel.ptps.len())
    };
    for &n in counts {
        let stock = cell(n, KernelConfig::stock())?;
        let shared = cell(n, KernelConfig::shared_ptp())?;
        t.row(vec![
            n.to_string(),
            count(stock as u64),
            count(4 * stock as u64),
            count(shared as u64),
            count(4 * shared as u64),
            format!("{:.1}x", stock as f64 / shared as f64),
        ]);
    }
    let mut out = t.render();
    out.push_str(
        "Stock page-table memory grows linearly with process count; with shared PTPs it is\n\
         near-constant — the introduction's scalability argument, measured.\n\n",
    );
    Ok(out)
}

/// The grouped-segment layout (Section 3.1.3's suggested refinement):
/// compare all three layouts' address-space cost and post-launch
/// sharing.
pub fn grouped_layout(scale: Scale) -> sat_types::SatResult<String> {
    let mut t = Table::new(
        "Extension: grouped code/data segments vs per-library 2MB alignment",
        &[
            "layout",
            "preloaded VA (MB)",
            "PTPs shared after launch",
            "shared fraction",
        ],
    );
    for (label, layout) in [
        ("Original", LibraryLayout::Original),
        ("2MB-aligned", LibraryLayout::Aligned2Mb),
        ("Grouped", LibraryLayout::Grouped),
    ] {
        let mut sys = AndroidSystem::boot(
            KernelConfig::shared_ptp(),
            layout,
            SEED,
            11,
            boot_opts(scale),
        )?;
        let va_mb = (sys.map.end.raw() - sat_android::layout::LIB_BASE) as f64 / (1 << 20) as f64;
        let opts = crate::launchbench::launch_opts(scale);
        let (pid, _) = sat_android::launch_app(&mut sys, &opts)?;
        let (shared, total) = sys.machine.kernel.ptp_share_snapshot(pid)?;
        t.row(vec![
            label.into(),
            format!("{va_mb:.0}"),
            format!("{shared}/{total}"),
            pct(shared as f64 / total.max(1) as f64),
        ]);
    }
    let mut out = t.render();
    out.push_str(
        "Grouping keeps the 2MB layout's code/data isolation (data writes never unshare\n\
         code PTPs) at roughly the original layout's address-space cost.\n\n",
    );
    Ok(out)
}

/// The Figure 1 cache-pollution claim, measured: "multiple copies of
/// a page table entry mapping the same physical page might exist in
/// the shared cache, displacing other data." N processes execute the
/// same library working set; afterwards we count how many distinct
/// PTE cache lines are resident in the shared L2.
pub fn pte_pollution(scale: Scale) -> sat_types::SatResult<String> {
    let procs = match scale {
        Scale::Paper => 8usize,
        Scale::Quick => 4,
    };
    let mut t = Table::new(
        "Extension: duplicated PTE lines in the shared L2 cache (Figure 1's claim)",
        &[
            "kernel",
            "resident PTE lines",
            "PTE bytes in L2",
            "per-process copies",
        ],
    );
    for (label, config) in [
        ("Stock Android", KernelConfig::stock()),
        ("Shared PTP", KernelConfig::shared_ptp()),
    ] {
        let mut sys =
            AndroidSystem::boot(config, LibraryLayout::Original, SEED, 11, boot_opts(scale))?;
        let mut pids = vec![sys.zygote];
        for _ in 0..procs {
            pids.push(sys.machine.fork(0, sys.zygote)?.0.child);
        }
        // All processes execute the same pages of one library,
        // interleaved (walks load each process's PTEs into the L2).
        let lib = sys.catalog.zygote_native[1];
        let base = sys.map.code_base(lib).unwrap();
        let pages = sys.catalog.lib(lib).code_pages.min(32);
        for _round in 0..2 {
            for &pid in &pids {
                sys.machine.context_switch(0, pid)?;
                for p in 0..pages {
                    sys.machine.access(
                        0,
                        VirtAddr::new(base.raw() + p * PAGE_SIZE),
                        AccessType::Execute,
                    )?;
                }
            }
        }
        // Count the distinct PTE lines of the library's chunk that are
        // resident in the shared L2, across all processes.
        let mut resident = std::collections::BTreeSet::new();
        for &pid in &pids {
            let mm = sys.machine.kernel.mm(pid)?;
            let entry = mm.root.entry_for(base);
            let Some(ptp) = entry.ptp() else { continue };
            for p in 0..pages {
                let va = VirtAddr::new(base.raw() + p * PAGE_SIZE);
                let pa = sat_mmu::Ptp::hw_pte_addr(ptp, sat_mmu::TableHalf::of(va), va.l2_index());
                // One cache line holds eight 4-byte PTEs.
                let line = pa.raw() & !31;
                if sys.machine.l2.probe(sat_types::PhysAddr::new(line)) {
                    resident.insert(line);
                }
            }
        }
        t.row(vec![
            label.into(),
            count(resident.len() as u64),
            count(32 * resident.len() as u64),
            format!("{:.1}", resident.len() as f64 / (pages as f64 / 8.0)),
        ]);
    }
    let mut out = t.render();
    out.push_str(&format!(
        "With {procs} applications plus the zygote executing the same library, the stock
         kernel holds one copy of each PTE line per process in the shared L2; sharing
         PTPs collapses them to one.

",
    ));
    Ok(out)
}

/// Per-process memory accounting under sharing: the smaps/PSS view.
/// Reports, for one launched application, resident data and the
/// page-table bytes charged to it (proportionally split when PTPs are
/// shared) under both kernels.
pub fn memory_accounting(scale: Scale) -> sat_types::SatResult<String> {
    let mut t = Table::new(
        "Extension: smaps-style accounting for one launched application",
        &[
            "kernel",
            "RSS KB",
            "PSS KB",
            "shared-clean KB",
            "page-table PSS KB",
        ],
    );
    for (label, config) in [
        ("Stock Android", KernelConfig::stock()),
        ("Shared PTP", KernelConfig::shared_ptp()),
    ] {
        let mut sys =
            AndroidSystem::boot(config, LibraryLayout::Original, SEED, 11, boot_opts(scale))?;
        let opts = crate::launchbench::launch_opts(scale);
        let (pid, _) = sat_android::launch_app(&mut sys, &opts)?;
        let mm = sys.machine.kernel.mm(pid)?;
        let rollup = sat_vm::smaps_rollup(mm, &sys.machine.kernel.ptps, &sys.machine.kernel.phys);
        t.row(vec![
            label.into(),
            count(rollup.rss / 1024),
            count(rollup.pss / 1024),
            count(rollup.shared_clean / 1024),
            count(rollup.page_table_pss / 1024),
        ]);
    }
    let mut out = t.render();
    out.push_str(
        "Data PSS is already split by COW in both kernels; the page-table column is the
         per-process cost the paper's mechanism removes (charged 1/sharers per PTP).

",
    );
    Ok(out)
}

/// Runs all extension experiments.
pub fn all(scale: Scale) -> sat_types::SatResult<String> {
    let mut out = String::new();
    out.push_str(&scalability(scale)?);
    out.push_str(&grouped_layout(scale)?);
    out.push_str(&pte_pollution(scale)?);
    out.push_str(&memory_accounting(scale)?);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalability_shows_constant_shared_ptps() {
        let out = scalability(Scale::Quick).unwrap();
        // Parse the duplication factors: they must grow with N.
        let factors: Vec<f64> = out
            .lines()
            .filter(|l| l.starts_with('|') && !l.contains("processes") && !l.contains("--"))
            .filter_map(|l| {
                let cell = l.split('|').nth(6)?.trim();
                cell.strip_suffix('x')?.parse().ok()
            })
            .collect();
        assert!(factors.len() >= 2);
        assert!(
            factors.last().unwrap() > factors.first().unwrap(),
            "{factors:?}"
        );
    }

    #[test]
    fn shared_ptps_collapse_duplicate_pte_lines() {
        let out = pte_pollution(Scale::Quick).unwrap();
        let lines = |label: &str| -> u64 {
            let line = out.lines().find(|l| l.contains(label)).unwrap();
            line.split('|')
                .nth(2)
                .unwrap()
                .trim()
                .replace(',', "")
                .parse()
                .unwrap()
        };
        assert!(
            lines("Stock Android") >= 2 * lines("Shared PTP"),
            "stock {} vs shared {}",
            lines("Stock Android"),
            lines("Shared PTP")
        );
    }

    #[test]
    fn shared_kernel_slashes_pagetable_pss() {
        let out = memory_accounting(Scale::Quick).unwrap();
        let pt = |label: &str| -> u64 {
            let line = out.lines().find(|l| l.contains(label)).unwrap();
            line.split('|')
                .nth(5)
                .unwrap()
                .trim()
                .replace(',', "")
                .parse()
                .unwrap()
        };
        assert!(
            pt("Shared PTP") < pt("Stock Android"),
            "shared {} vs stock {}",
            pt("Shared PTP"),
            pt("Stock Android")
        );
    }

    #[test]
    fn grouped_layout_compromise() {
        let out = grouped_layout(Scale::Quick).unwrap();
        let va = |label: &str| -> f64 {
            let line = out.lines().find(|l| l.contains(label)).unwrap();
            line.split('|').nth(2).unwrap().trim().parse().unwrap()
        };
        assert!(va("Grouped") < va("2MB-aligned") / 2.0);
    }
}
