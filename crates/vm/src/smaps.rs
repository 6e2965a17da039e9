//! `/proc/pid/smaps`-style reporting.
//!
//! The paper's instruction-footprint methodology interprets page-fault
//! traces "using the mapping information from /proc/pid/smaps". This
//! module produces the same per-region accounting for a simulated
//! address space — RSS, proportional-set-size (PSS, where each frame
//! is charged 1/mapcount to each mapper), shared/private clean/dirty —
//! plus a field smaps does not have but this paper makes interesting:
//! the page-table bytes attributed to the region, proportionally
//! shared when its PTPs are.

use sat_mmu::PtpStore;
use sat_phys::PhysMem;
use sat_types::{RegionTag, VaRange, PAGE_SIZE};

use crate::mm::Mm;

/// Per-region memory accounting (one `smaps` entry).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SmapsEntry {
    /// Region range.
    pub range: Option<VaRange>,
    /// Region name.
    pub name: String,
    /// Region classification.
    pub tag: RegionTag,
    /// Resident bytes (pages with a PTE).
    pub rss: u64,
    /// Proportional set size: each resident page charged
    /// `size / mapcount`.
    pub pss: u64,
    /// Resident bytes mapped by exactly this process (mapcount 1).
    pub private_clean: u64,
    /// Private resident bytes that are dirty.
    pub private_dirty: u64,
    /// Resident bytes shared with other mappers (mapcount > 1).
    pub shared_clean: u64,
    /// Shared resident bytes that are dirty.
    pub shared_dirty: u64,
    /// Page-table bytes serving this region, charged proportionally
    /// when the PTP is shared across address spaces (this paper's
    /// contribution made visible in the accounting).
    pub page_table_pss: u64,
}

/// Produces the smaps entries for every region of `mm`, in address
/// order.
pub fn smaps(mm: &Mm, ptps: &PtpStore, phys: &PhysMem) -> Vec<SmapsEntry> {
    let mut out = Vec::new();
    for vma in mm.vmas() {
        let mut e = SmapsEntry {
            range: Some(vma.range),
            name: vma.name.to_string(),
            tag: vma.tag,
            ..SmapsEntry::default()
        };
        let mut charged_ptps = std::collections::BTreeSet::new();
        for page in vma.range.pages() {
            let entry = mm.root.entry_for(page);
            let Some(ptp) = entry.ptp() else { continue };
            let Some(table) = ptps.get(ptp) else { continue };
            let half = sat_mmu::TableHalf::of(page);
            let Some(slot) = table.get(half, page.l2_index()) else {
                continue;
            };
            let page_bytes = PAGE_SIZE as u64;
            e.rss += page_bytes;
            // A 64KB slot's own 4KB frame.
            let frame = match slot.hw.size {
                sat_types::PageSize::Large64K => {
                    sat_types::Pfn::new(slot.hw.pfn.raw() + (page.l2_index() as u32 % 16))
                }
                _ => slot.hw.pfn,
            };
            // Effective mappers: each PTE of the frame is one mapper,
            // except that a PTE living in a PTP shared by S processes
            // serves S of them. We know S for *this* page's PTP; other
            // PTEs are assumed private (exact when they are).
            let sharers = phys.mapcount(ptp).max(1) as u64;
            let mapcount = (phys.mapcount(frame).max(1) as u64 - 1) + sharers;
            e.pss += page_bytes / mapcount;
            match (mapcount > 1, slot.sw.dirty) {
                (false, false) => e.private_clean += page_bytes,
                (false, true) => e.private_dirty += page_bytes,
                (true, false) => e.shared_clean += page_bytes,
                (true, true) => e.shared_dirty += page_bytes,
            }
            // Page-table attribution: charge each PTP once per region,
            // divided by its sharer count — under the paper's
            // mechanism a PTP shared by N processes costs each 1/N.
            if charged_ptps.insert(ptp) {
                let sharers = phys.mapcount(ptp).max(1) as u64;
                e.page_table_pss += PAGE_SIZE as u64 / sharers;
            }
        }
        out.push(e);
    }
    out
}

/// Whole-process totals (the `smaps_rollup` analogue).
pub fn smaps_rollup(mm: &Mm, ptps: &PtpStore, phys: &PhysMem) -> SmapsEntry {
    let mut total = SmapsEntry {
        name: "[rollup]".to_string(),
        ..SmapsEntry::default()
    };
    for e in smaps(mm, ptps, phys) {
        total.rss += e.rss;
        total.pss += e.pss;
        total.private_clean += e.private_clean;
        total.private_dirty += e.private_dirty;
        total.shared_clean += e.shared_clean;
        total.shared_dirty += e.shared_dirty;
        total.page_table_pss += e.page_table_pss;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{handle_fault, FaultCtx};
    use crate::vma::Vma;
    use sat_phys::FileId;
    use sat_types::{AccessType, Asid, Perms, Pid, VirtAddr};

    struct Fx {
        phys: PhysMem,
        ptps: PtpStore,
        mm: Mm,
    }

    fn fx() -> Fx {
        let mut phys = PhysMem::new(8192);
        let mm = Mm::new(&mut phys, Pid::new(1), Asid::new(1)).unwrap();
        Fx {
            phys,
            ptps: PtpStore::new(),
            mm,
        }
    }

    fn touch(f: &mut Fx, va: u32, access: AccessType) {
        handle_fault(
            &mut f.mm,
            &mut f.ptps,
            &mut f.phys,
            VirtAddr::new(va),
            access,
            FaultCtx::default(),
        )
        .unwrap();
    }

    #[test]
    fn rss_counts_only_resident_pages() {
        let mut f = fx();
        f.mm.insert_vma(Vma::anon(
            VaRange::from_len(VirtAddr::new(0x0800_0000), 8 * PAGE_SIZE),
            Perms::RW,
            RegionTag::Heap,
            "[heap]",
        ))
        .unwrap();
        touch(&mut f, 0x0800_0000, AccessType::Write);
        touch(&mut f, 0x0800_3000, AccessType::Write);
        let entries = smaps(&f.mm, &f.ptps, &f.phys);
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].rss, 2 * PAGE_SIZE as u64);
        assert_eq!(entries[0].private_dirty, 2 * PAGE_SIZE as u64);
        assert_eq!(entries[0].shared_clean, 0);
        assert_eq!(entries[0].pss, 2 * PAGE_SIZE as u64);
    }

    #[test]
    fn pss_splits_shared_file_pages() {
        // Two processes mapping the same file page: each gets PSS of
        // half a page.
        let mut f = fx();
        let file = FileId(0);
        {
            let base = 0x4000_0000u32;
            f.mm.insert_vma(Vma::file(
                VaRange::from_len(VirtAddr::new(base), PAGE_SIZE),
                Perms::RX,
                file,
                0,
                RegionTag::ZygoteNativeCode,
                "lib.so",
            ))
            .unwrap();
        }
        touch(&mut f, 0x4000_0000, AccessType::Execute);
        let mut other = Mm::new(&mut f.phys, Pid::new(2), Asid::new(2)).unwrap();
        other
            .insert_vma(Vma::file(
                VaRange::from_len(VirtAddr::new(0x4000_0000), PAGE_SIZE),
                Perms::RX,
                file,
                0,
                RegionTag::ZygoteNativeCode,
                "lib.so",
            ))
            .unwrap();
        handle_fault(
            &mut other,
            &mut f.ptps,
            &mut f.phys,
            VirtAddr::new(0x4000_0000),
            AccessType::Execute,
            FaultCtx::default(),
        )
        .unwrap();
        let e = &smaps(&f.mm, &f.ptps, &f.phys)[0];
        assert_eq!(e.rss, PAGE_SIZE as u64);
        assert_eq!(e.pss, PAGE_SIZE as u64 / 2);
        assert_eq!(e.shared_clean, PAGE_SIZE as u64);
    }

    #[test]
    fn page_table_pss_halves_under_ptp_sharing() {
        // The accounting novelty: after a shared fork, each process is
        // charged half the PTP.
        let mut f = fx();
        f.mm.insert_vma(Vma::anon(
            VaRange::from_len(VirtAddr::new(0x0800_0000), 4 * PAGE_SIZE),
            Perms::RW,
            RegionTag::Heap,
            "[heap]",
        ))
        .unwrap();
        touch(&mut f, 0x0800_0000, AccessType::Write);
        let before = smaps_rollup(&f.mm, &f.ptps, &f.phys).page_table_pss;
        assert_eq!(before, PAGE_SIZE as u64);
        // Simulate a shared fork: bump the PTP's sharer count.
        let ptp =
            f.mm.root
                .entry_for(VirtAddr::new(0x0800_0000))
                .ptp()
                .unwrap();
        f.phys.map_inc(ptp);
        let after = smaps_rollup(&f.mm, &f.ptps, &f.phys).page_table_pss;
        assert_eq!(after, PAGE_SIZE as u64 / 2);
    }
}
