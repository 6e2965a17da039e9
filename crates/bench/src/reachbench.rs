//! Translation reach (`repro reach`): the Section 2.3.3 trade made
//! measurable — stock 4KB paging vs shared translation vs the
//! promotion engine collapsing the same sparse working set into 64KB
//! large pages.
//!
//! The paper *asserts* that zygote-shared code is too sparse for
//! large pages ("the 2.6x memory waste"); this experiment measures
//! it. One image is mapped three ways, the zygote demand-faults the
//! Figure 4 access pattern (≈6 of every 16 pages), and then:
//!
//! - **stock**: nothing else happens — the resident set is exactly
//!   the touched pages, one TLB entry each;
//! - **shared**: PTP sharing + global TLB entries — same resident
//!   set, one *global* entry per touched page serves every process;
//! - **promoted**: a khugepaged-style [`Kernel::promote_scan`] pass
//!   collapses every 64KB group around the touched pages, filling
//!   the untouched holes with allocated frames — translation reach
//!   ×16 per entry, paid for in mapped-but-never-touched memory
//!   (`waste_frames`, the paper's figure as a counter).
//!
//! Each cell then forks two applications and runs the timeshare-style
//! alternating sweep of the launch working set, so the reach win
//! (fewer entries → fewer stalls) lands in the same row as its
//! fragmentation cost. The promoted cell finishes by demoting: a
//! partial munmap and a partial mprotect each split a large group
//! back to 4KB PTEs, so the record's `translation.*` snapshot metrics
//! carry nonzero demotions/splits and `repro check` can see the whole
//! promote/demote cycle ran.

use sat_core::{Kernel, KernelConfig, NoTlb, PromotePolicy};
use sat_types::{AccessType, Perms, RegionTag, VaRange, VirtAddr, PAGE_SIZE};
use sat_vm::MmapRequest;

use crate::render::{count, pct, Table};
use crate::Scale;

/// Base of the image every cell maps.
const IMAGE_BASE: u32 = 0x4000_0000;

/// Touched 4KB pages of the sparse working set per scale (the image
/// is `touched * 16 / 6` pages — the Figure 4 density).
pub fn touched_pages(scale: Scale) -> u32 {
    match scale {
        Scale::Paper => 1_536, // ~6MB accessed, as the paper measures
        Scale::Quick => 192,
    }
}

/// Alternating two-process sweeps the stall measurement runs.
const SWEEPS: usize = 4;

/// One measured cell of the reach grid.
#[derive(Clone, Debug)]
pub struct ReachCell {
    /// Table label.
    pub label: &'static str,
    /// Resident bytes of the image region in the zygote after the
    /// working set settled (smaps, so large pages count per-frame).
    pub image_rss_kb: u64,
    /// Main-TLB entries the per-process working set needs.
    pub tlb_entries: u64,
    /// Instruction main-TLB stall cycles over the alternating sweeps.
    pub stalls: u64,
    /// 64KB groups the scanner collapsed.
    pub promotions: u64,
    /// Large mappings split back to 4KB (munmap/mprotect/COW/...).
    pub demotions: u64,
    /// Small PTEs written by those splits.
    pub splits: u64,
    /// Frames mapped by promotion that no process ever touched — the
    /// paper's ≈2.6× waste, measured.
    pub waste_frames: u64,
}

impl ReachCell {
    /// The cell's `translation.*` snapshot metrics (`repro diff` gates
    /// each strategy's promotion machinery on its own).
    pub fn metrics(&self) -> [(&'static str, u64); 4] {
        [
            ("translation.promotions", self.promotions),
            ("translation.demotions", self.demotions),
            ("translation.splits", self.splits),
            ("translation.waste_frames", self.waste_frames),
        ]
    }
}

/// The three strategies: record name, label, kernel config. The
/// promoted cell layers the scanner onto the stock kernel — sharing
/// and promotion stay separable axes (the scanner refuses to collapse
/// across a shared-PTP boundary anyway).
pub fn reach_kernels() -> [(&'static str, &'static str, KernelConfig); 3] {
    [
        ("reach_stock", "4KB pages, stock", KernelConfig::stock()),
        (
            "reach_shared",
            "4KB + shared PTP & TLB",
            KernelConfig::shared_ptp_tlb(),
        ),
        (
            "reach_promoted",
            "64KB promoted, stock",
            KernelConfig::stock().with_promote(PromotePolicy {
                enabled: true,
                min_populated: 1,
                ..PromotePolicy::off()
            }),
        ),
    ]
}

/// Runs one strategy end to end and measures it.
pub fn reach_cell(
    label: &'static str,
    config: KernelConfig,
    scale: Scale,
) -> sat_types::SatResult<ReachCell> {
    let touched = touched_pages(scale);
    let image_pages = touched * 16 / 6; // Figure 4 density
    let groups = image_pages / 16;
    let promoted = config.promote.enabled;

    let mut kernel = Kernel::new(config, 1 << 18);
    let zygote = kernel.create_process()?;
    kernel.exec_zygote(zygote)?;
    let file = kernel
        .files
        .register("image".to_string(), image_pages * PAGE_SIZE);
    kernel.mmap(
        zygote,
        &MmapRequest::file(
            image_pages * PAGE_SIZE,
            Perms::RX,
            file,
            0,
            RegionTag::ZygoteNativeCode,
            "image",
        )
        .at(VirtAddr::new(IMAGE_BASE)),
        &mut NoTlb,
    )?;
    // Launch: the zygote demand-faults the sparse working set.
    let touched_va = |i: u32| VirtAddr::new(IMAGE_BASE + (i as u64 * 16 / 6) as u32 * PAGE_SIZE);
    for i in 0..touched {
        kernel.page_fault(zygote, touched_va(i), AccessType::Execute, &mut NoTlb)?;
    }
    // The khugepaged pass (inert unless the policy enables it).
    kernel.promote_scan(zygote, &mut NoTlb)?;

    // Resident footprint of the image, per smaps: touched pages under
    // 4KB paging, every page of every collapsed group under promotion.
    let image_rss_kb = {
        let mm = kernel.mm(zygote)?;
        sat_vm::smaps(mm, &kernel.ptps, &kernel.phys)
            .iter()
            .filter(|e| e.tag == RegionTag::ZygoteNativeCode)
            .map(|e| e.rss)
            .sum::<u64>()
            / 1024
    };

    // Timeshare: two forked applications alternately sweep the
    // working set (warm pass first, then the measured sweeps).
    let a = kernel.fork(zygote)?.child;
    let b = kernel.fork(zygote)?.child;
    let mut m = sat_sim::Machine::single_core(kernel);
    for &pid in &[a, b] {
        m.context_switch(0, pid)?;
        for i in 0..touched {
            m.access(0, touched_va(i), AccessType::Execute)?;
        }
    }
    // khugepaged visits the apps too: under stock fork the file-backed
    // image is demand-refaulted per child, so each app pays its own
    // collapse (and its own waste — private large pages cannot be
    // shared, which is the paper's point). Inert when promotion is
    // off, so every cell runs the identical call sequence.
    m.promote_scan(0, a)?;
    m.promote_scan(0, b)?;
    m.reset_hw_stats();
    for _ in 0..SWEEPS {
        for &pid in &[a, b] {
            m.context_switch(0, pid)?;
            for i in 0..touched {
                m.access(0, touched_va(i), AccessType::Execute)?;
            }
        }
    }
    let stalls = m.cores[0].stats.inst_main_tlb_stall_cycles;

    // Demotion: partial region ops on large mappings must split them
    // (no-ops under 4KB paging — the same calls run in every cell so
    // the workloads stay identical).
    let image_page = |i| VaRange::from_len(VirtAddr::new(IMAGE_BASE + i * PAGE_SIZE), PAGE_SIZE);
    m.munmap(0, a, image_page(0))?;
    m.mprotect(0, b, image_page(16), Perms::R)?;

    let stats = &m.kernel.stats;
    Ok(ReachCell {
        label,
        image_rss_kb,
        tlb_entries: if promoted {
            u64::from(groups)
        } else {
            u64::from(touched)
        },
        stalls,
        promotions: stats.promotions,
        demotions: stats.demotions,
        splits: stats.split_ptes,
        waste_frames: stats.waste_frames,
    })
}

/// Renders the reach table plus the waste-vs-paper summary from the
/// three measured cells (in `reach_kernels` order).
pub fn reach_render(scale: Scale, cells: &[ReachCell]) -> String {
    let touched = touched_pages(scale);
    let mut t = Table::new(
        "Extension: translation reach — stock vs shared vs 64KB promotion",
        &[
            "strategy",
            "image RSS KB",
            "waste frames",
            "TLB entries needed",
            "inst TLB stalls (2 procs)",
            "promote/demote",
        ],
    );
    for c in cells {
        t.row(vec![
            c.label.into(),
            count(c.image_rss_kb),
            count(c.waste_frames),
            count(c.tlb_entries),
            count(c.stalls),
            format!("{}/{}", c.promotions, c.demotions),
        ]);
    }
    let stock = &cells[0];
    let shared = &cells[1];
    let promoted = &cells[2];
    let waste_ratio = promoted.image_rss_kb as f64 / stock.image_rss_kb as f64;
    let mut out = t.render();
    out.push_str(&format!(
        "Promotion reaches the image with {}x fewer TLB entries and cuts \
         cross-process stalls by {},\nbut maps {:.1}x the 4KB resident \
         footprint (paper Section 2.3.3: ~2.6x): {} frames were\nmapped and \
         never touched ({} of the {}-page working set is promotion fill).\n\
         Shared translation cuts stalls by {} at the 4KB footprint — reach \
         without the waste.\n\n",
        stock.tlb_entries / promoted.tlb_entries,
        pct(1.0 - promoted.stalls as f64 / stock.stalls as f64),
        waste_ratio,
        count(promoted.waste_frames),
        pct(promoted.waste_frames as f64 / (promoted.waste_frames as f64 + f64::from(touched))),
        count(u64::from(touched)),
        pct(1.0 - shared.stalls as f64 / stock.stalls as f64),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn promoted_cell_reaches_further_and_wastes_memory() {
        let cells: Vec<ReachCell> = reach_kernels()
            .into_iter()
            .map(|(_, label, config)| reach_cell(label, config, Scale::Quick).unwrap())
            .collect();
        let (stock, shared, promoted) = (&cells[0], &cells[1], &cells[2]);
        // 4KB cells: resident = touched, no promotion machinery.
        assert_eq!(stock.image_rss_kb, 192 * 4);
        assert_eq!(stock.promotions, 0);
        assert_eq!(stock.waste_frames, 0);
        assert_eq!(shared.image_rss_kb, stock.image_rss_kb);
        // The promoted cell collapses every group in the zygote and
        // both apps, and each pays its own waste: the paper's >=2x
        // claim, measured (16/6 ~ 2.67x here, per process).
        assert_eq!(promoted.promotions, 3 * 512 / 16);
        assert!(promoted.image_rss_kb >= 2 * stock.image_rss_kb);
        assert_eq!(promoted.waste_frames, 3 * (promoted.image_rss_kb / 4 - 192));
        // Reach: one entry per group instead of one per touched page
        // (6x fewer at the Figure 4 density), fewer stalls than stock.
        assert_eq!(promoted.tlb_entries, 512 / 16);
        assert_eq!(stock.tlb_entries, 192);
        assert!(promoted.stalls < stock.stalls);
        // The demote tail ran: both partial ops split a group.
        assert_eq!(promoted.demotions, 2);
        assert!(promoted.splits > 0);
        let text = reach_render(Scale::Quick, &cells);
        assert!(text.contains("translation reach"));
        assert!(text.contains("paper Section 2.3.3"));
    }

    #[test]
    fn rendered_table_is_deterministic() {
        let run = || {
            let cells: Vec<ReachCell> = reach_kernels()
                .into_iter()
                .map(|(_, label, config)| reach_cell(label, config, Scale::Quick).unwrap())
                .collect();
            reach_render(Scale::Quick, &cells)
        };
        assert_eq!(run(), run());
    }
}
