//! Region system calls: `mmap`, `munmap`, `mprotect`, and address
//! space teardown.
//!
//! These are the stock-kernel paths. Under the paper's kernel each of
//! them is an *unsharing trigger* (Section 3.1.2, cases 2-5): the
//! `sat-core` wrapper unshares affected PTPs first and then calls
//! these mechanics unchanged.

use sat_mmu::{L1Entry, Mapper, PtpStore};
use sat_phys::{FileId, PhysMem};
use sat_types::{
    AccessType, PageSize, Perms, RegionTag, SatError, SatResult, VaRange, VirtAddr,
    KERNEL_SPACE_START, PAGE_SIZE, PTP_SPAN,
};

use crate::fault::{handle_fault, FaultCtx};
use crate::mm::Mm;
use crate::vma::{Backing, Vma};

/// Parameters for [`mmap`].
#[derive(Clone, Debug)]
pub struct MmapRequest {
    /// Fixed address (must be page-aligned and free, and the region
    /// must end at or below `KERNEL_SPACE_START`), or `None` to let the
    /// kernel choose.
    pub addr: Option<VirtAddr>,
    /// Length in bytes (rounded up to whole pages).
    pub len: u32,
    /// Access permissions.
    pub perms: Perms,
    /// Backing store.
    pub backing: Backing,
    /// `MAP_SHARED`.
    pub shared: bool,
    /// Alignment for automatic placement (the paper's 2MB-aligned
    /// library layout passes [`PTP_SPAN`] here).
    pub align: u32,
    /// Region classification.
    pub tag: RegionTag,
    /// Region name.
    pub name: String,
}

impl MmapRequest {
    /// An anonymous private mapping at a kernel-chosen address.
    pub fn anon(len: u32, perms: Perms, tag: RegionTag, name: &str) -> Self {
        MmapRequest {
            addr: None,
            len,
            perms,
            backing: Backing::Anon,
            shared: false,
            align: PAGE_SIZE,
            tag,
            name: name.to_string(),
        }
    }

    /// A private file mapping at a kernel-chosen address.
    pub fn file(
        len: u32,
        perms: Perms,
        file: FileId,
        offset_pages: u32,
        tag: RegionTag,
        name: &str,
    ) -> Self {
        MmapRequest {
            addr: None,
            len,
            perms,
            backing: Backing::File { file, offset_pages },
            shared: false,
            align: PAGE_SIZE,
            tag,
            name: name.to_string(),
        }
    }

    /// Requests placement at a fixed address.
    pub fn at(mut self, addr: VirtAddr) -> Self {
        self.addr = Some(addr);
        self
    }

    /// Requests a minimum alignment for automatic placement.
    pub fn aligned(mut self, align: u32) -> Self {
        self.align = align;
        self
    }
}

/// Maps a new region, returning its start address.
///
/// The paper's kernel hooks this path twice: a zygote mapping of
/// library code sets the region's `global` flag (done by the caller in
/// `sat-core`), and mapping into the range of a shared PTP triggers an
/// eager unshare (also done by the caller).
pub fn mmap(mm: &mut Mm, req: &MmapRequest) -> SatResult<VirtAddr> {
    // The range is checked once, here, before anything is inserted.
    // In u64: in u32, rounding up a length within a page of 2³² wraps,
    // and so does the end of a high fixed range. User space ends at
    // `KERNEL_SPACE_START` for a fixed address as it does for a chosen
    // one ([`Mm::find_free`]).
    let len = u64::from(req.len).div_ceil(u64::from(PAGE_SIZE)) * u64::from(PAGE_SIZE);
    let fixed = req.addr.map_or(0, |addr| u64::from(addr.raw()));
    if len == 0 || fixed + len > u64::from(KERNEL_SPACE_START) {
        return Err(SatError::InvalidArgument);
    }
    let len = len as u32;
    let start = match req.addr {
        Some(addr) => {
            if !addr.is_page_aligned() {
                return Err(SatError::InvalidArgument);
            }
            addr
        }
        None => mm.find_free(len, req.align)?,
    };
    let range = VaRange::from_len(start, len);
    let mut vma = match req.backing {
        Backing::Anon => Vma::anon(range, req.perms, req.tag, &req.name),
        Backing::File { file, offset_pages } => {
            Vma::file(range, req.perms, file, offset_pages, req.tag, &req.name)
        }
    };
    vma.shared = req.shared;
    mm.insert_vma(vma)?;
    Ok(start)
}

/// Pre-faults every page of `range` (the `MAP_POPULATE` analogue),
/// using a read or execute access per the region's permissions.
pub fn populate(
    mm: &mut Mm,
    ptps: &mut PtpStore,
    phys: &mut PhysMem,
    range: VaRange,
    ctx: FaultCtx,
) -> SatResult<usize> {
    let mut populated = 0;
    for page in range.pages() {
        let access = match mm.vma_at(page) {
            Some(v) if v.perms.execute() => AccessType::Execute,
            Some(_) => AccessType::Read,
            None => continue,
        };
        handle_fault(mm, ptps, phys, page, access, ctx)?;
        populated += 1;
    }
    Ok(populated)
}

/// Demotes large mappings so `range` can be operated on at 4KB
/// granularity (Linux's split-before-zap): a 1MB section overlapping
/// `range` is split back to a table of small PTEs, and a 64KB large
/// page cut by a range *boundary* is split back to sixteen small
/// PTEs. Groups lying wholly inside the range stay large — clearing
/// all sixteen replicated descriptors releases the group exactly, and
/// a whole-group permission change keeps the descriptors uniform.
///
/// Returns the demoted mappings as `(start_va, size)`; the `sat-core`
/// wrapper calls this ahead of the mechanics below to turn each entry
/// into a `Demote` event and a size-tagged TLB flush (the calls here
/// then find nothing left to split).
pub fn demote_range(
    mm: &mut Mm,
    ptps: &mut PtpStore,
    phys: &mut PhysMem,
    range: VaRange,
) -> SatResult<Vec<(VirtAddr, PageSize)>> {
    if range.is_empty() {
        return Ok(Vec::new());
    }
    let mut demoted = Vec::new();
    // Sections first: splitting one leaves 64KB groups behind, which
    // the boundary pass below may then need to split further.
    for mb in (range.start.raw() >> 20)..=((range.end.raw() - 1) >> 20) {
        let va = VirtAddr::new(mb << 20);
        if matches!(mm.root.entry(mb as usize), L1Entry::Section { .. }) {
            let mut mapper = Mapper::new(&mut mm.root, ptps, phys, mm.pid);
            mapper.split_section(va)?;
            demoted.push((va, PageSize::Section1M));
        }
    }
    // 64KB groups cut by a boundary. Large pages are installed at
    // 64KB-aligned starts, so an aligned boundary never cuts one.
    let large = PageSize::Large64K.bytes();
    for edge in [range.start.raw(), range.end.raw()] {
        if edge.is_multiple_of(large) {
            continue;
        }
        // For the exclusive end, probe the page just inside the range.
        let probe = if edge == range.end.raw() {
            VirtAddr::new(edge - 1).page_base()
        } else {
            VirtAddr::new(edge)
        };
        let mut mapper = Mapper::new(&mut mm.root, ptps, phys, mm.pid);
        if mapper.split_large(probe).is_some() {
            demoted.push((
                VirtAddr::new(probe.raw() & !(large - 1)),
                PageSize::Large64K,
            ));
        }
    }
    Ok(demoted)
}

/// The argument check of [`munmap`] and [`mprotect`], which both start
/// with it — as does the `sat-core` wrapper, *before* it unshares, so a
/// refused call changes nothing. Both ends of `range` must be
/// page-aligned (a region is split at them), it must not be empty, and
/// it must end at or below `KERNEL_SPACE_START`, as [`mmap`]'s must;
/// `must_be_mapped` is `mprotect`'s rule that the range touch a region.
pub fn check_region_op(mm: &Mm, range: VaRange, must_be_mapped: bool) -> SatResult<()> {
    if !range.start.is_page_aligned()
        || !range.end.is_page_aligned()
        || range.is_empty()
        || range.end.raw() > KERNEL_SPACE_START
    {
        return Err(SatError::InvalidArgument);
    }
    if must_be_mapped && !mm.any_vma_overlaps(range) {
        return Err(SatError::NotMapped(range.start));
    }
    Ok(())
}

/// Unmaps `range`: removes the covered region pieces, demotes large
/// mappings cut by the boundaries, clears their PTEs, and frees
/// page-table pages whose 2MB span no longer contains any region.
///
/// Returns the number of PTEs cleared.
pub fn munmap(
    mm: &mut Mm,
    ptps: &mut PtpStore,
    phys: &mut PhysMem,
    range: VaRange,
) -> SatResult<usize> {
    check_region_op(mm, range, false)?;
    demote_range(mm, ptps, phys, range)?;
    let removed = mm.carve(range);
    let mut cleared = 0;
    {
        let mut mapper = Mapper::new(&mut mm.root, ptps, phys, mm.pid);
        for piece in &removed {
            cleared += mapper.clear_range(piece.range);
        }
    }
    free_unused_ptps(mm, ptps, phys, range);
    Ok(cleared)
}

/// Frees the page tables for every 2MB chunk touching `range` that no
/// longer contains any region (Linux's `free_pgtables`).
pub fn free_unused_ptps(mm: &mut Mm, ptps: &mut PtpStore, phys: &mut PhysMem, range: VaRange) {
    for chunk in range.ptps() {
        let span = VaRange::from_len(chunk, PTP_SPAN);
        if mm.any_vma_overlaps(span) {
            continue;
        }
        if mm.root.entry_for(chunk).ptp().is_some() {
            let mut mapper = Mapper::new(&mut mm.root, ptps, phys, mm.pid);
            mapper.release_ptp_pair(chunk);
        }
    }
}

/// Changes the permissions of every whole page of mapped regions in
/// `range`, splitting regions at the boundaries.
///
/// Hardware PTEs are given the new permissions, except that write
/// permission is withheld from private mappings (a subsequent write
/// fault re-enables it or COWs, exactly as after `fork`).
pub fn mprotect(
    mm: &mut Mm,
    ptps: &mut PtpStore,
    phys: &mut PhysMem,
    range: VaRange,
    perms: Perms,
) -> SatResult<()> {
    check_region_op(mm, range, true)?;
    // A partial re-protection would leave a large page's sixteen
    // replicated descriptors disagreeing, and the TLB could serve the
    // stale permission from any of them — demote at the boundaries
    // first; whole-group changes below stay uniform and stay large.
    demote_range(mm, ptps, phys, range)?;
    let pieces = mm.carve(range);
    for mut piece in pieces {
        piece.perms = perms;
        let shared = piece.shared;
        let piece_range = piece.range;
        mm.insert_vma(piece)
            .expect("carved range is free by construction");
        let mut mapper = Mapper::new(&mut mm.root, ptps, phys, mm.pid);
        for page in piece_range.pages() {
            mapper.update_pte(page, |hw, sw| {
                hw.perms = if shared { perms } else { perms.without_write() };
                sw.writable = perms.write();
            });
        }
    }
    Ok(())
}

/// Tears down the whole address space at process exit: drops every
/// PTP reference (freeing PTPs whose last reference this was, along
/// with their mappings) and removes all regions.
///
/// Returns the number of PTPs freed outright (as opposed to merely
/// dereferenced because other processes still share them — the
/// paper's Section 3.1.2 case 5).
pub fn exit_mmap(mm: &mut Mm, ptps: &mut PtpStore, phys: &mut PhysMem) -> usize {
    let chunks: Vec<usize> = mm.root.iter_ptps().map(|(idx, _)| idx).collect();
    let sections: Vec<usize> = mm.root.iter_sections().collect();
    let mut freed = 0;
    {
        let mut mapper = Mapper::new(&mut mm.root, ptps, phys, mm.pid);
        // Sections are level-1 entries, invisible to the PTP sweep:
        // drop their frame references directly.
        for idx in sections {
            mapper.clear_section(VirtAddr::new((idx as u32) << 20));
        }
        for pair_idx in chunks {
            let va = VirtAddr::new((pair_idx as u32) << 20);
            if mapper.release_ptp_pair(va) {
                freed += 1;
            }
        }
    }
    mm.clear_vmas();
    freed
}

#[cfg(test)]
mod tests {
    use super::*;
    use sat_types::{Asid, Pid};

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

    fn heap_req(pages: u32) -> MmapRequest {
        MmapRequest::anon(pages * PAGE_SIZE, Perms::RW, RegionTag::Heap, "[heap]")
    }

    #[test]
    fn mmap_rounds_length_and_places_automatically() {
        let mut f = fx();
        let a = mmap(&mut f.mm, &heap_req(1)).unwrap();
        let b = mmap(&mut f.mm, &heap_req(2)).unwrap();
        assert_eq!(b.raw() - a.raw(), PAGE_SIZE);
        let c = mmap(
            &mut f.mm,
            &MmapRequest::anon(100, Perms::RW, RegionTag::Heap, "x"),
        )
        .unwrap();
        let vma = f.mm.vma_at(c).unwrap();
        assert_eq!(vma.range.len(), PAGE_SIZE); // rounded to a page
    }

    #[test]
    fn mmap_fixed_overlap_rejected() {
        let mut f = fx();
        let a = mmap(&mut f.mm, &heap_req(2)).unwrap();
        let err = mmap(&mut f.mm, &heap_req(1).at(a)).unwrap_err();
        assert_eq!(err, SatError::MappingOverlap);
    }

    #[test]
    fn mmap_2mb_alignment() {
        let mut f = fx();
        let a = mmap(&mut f.mm, &heap_req(3).aligned(PTP_SPAN)).unwrap();
        assert!(a.is_ptp_aligned());
    }

    #[test]
    fn populate_faults_every_page() {
        let mut f = fx();
        let a = mmap(&mut f.mm, &heap_req(4)).unwrap();
        let n = populate(
            &mut f.mm,
            &mut f.ptps,
            &mut f.phys,
            VaRange::from_len(a, 4 * PAGE_SIZE),
            FaultCtx::default(),
        )
        .unwrap();
        assert_eq!(n, 4);
        assert_eq!(f.mm.counters.faults_total, 4);
    }

    #[test]
    fn munmap_clears_ptes_and_frees_empty_ptps() {
        let mut f = fx();
        let a = mmap(&mut f.mm, &heap_req(4)).unwrap();
        let range = VaRange::from_len(a, 4 * PAGE_SIZE);
        populate(
            &mut f.mm,
            &mut f.ptps,
            &mut f.phys,
            range,
            FaultCtx::default(),
        )
        .unwrap();
        assert_eq!(f.ptps.len(), 1);
        let frames_mapped = f.phys.frames_in_use();
        let cleared = munmap(&mut f.mm, &mut f.ptps, &mut f.phys, range).unwrap();
        assert_eq!(cleared, 4);
        assert_eq!(f.ptps.len(), 0);
        // 4 data frames + 1 PTP returned.
        assert_eq!(f.phys.frames_in_use(), frames_mapped - 5);
        assert!(f.mm.vma_at(a).is_none());
    }

    #[test]
    fn partial_munmap_keeps_ptp_for_remaining_region() {
        let mut f = fx();
        let a = mmap(&mut f.mm, &heap_req(4)).unwrap();
        let range = VaRange::from_len(a, 4 * PAGE_SIZE);
        populate(
            &mut f.mm,
            &mut f.ptps,
            &mut f.phys,
            range,
            FaultCtx::default(),
        )
        .unwrap();
        // Unmap the middle two pages.
        let middle = VaRange::from_len(VirtAddr::new(a.raw() + PAGE_SIZE), 2 * PAGE_SIZE);
        let cleared = munmap(&mut f.mm, &mut f.ptps, &mut f.phys, middle).unwrap();
        assert_eq!(cleared, 2);
        assert_eq!(f.ptps.len(), 1); // head and tail regions still use it
        assert_eq!(f.mm.vma_count(), 2);
    }

    #[test]
    fn mprotect_updates_vma_and_ptes() {
        let mut f = fx();
        let a = mmap(&mut f.mm, &heap_req(2)).unwrap();
        let range = VaRange::from_len(a, 2 * PAGE_SIZE);
        populate(
            &mut f.mm,
            &mut f.ptps,
            &mut f.phys,
            range,
            FaultCtx::default(),
        )
        .unwrap();
        mprotect(&mut f.mm, &mut f.ptps, &mut f.phys, range, Perms::R).unwrap();
        assert_eq!(f.mm.vma_at(a).unwrap().perms, Perms::R);
        let m = Mapper::new(&mut f.mm.root, &mut f.ptps, &mut f.phys, f.mm.pid);
        assert_eq!(m.get_pte(a).unwrap().hw.perms, Perms::R);
        assert!(!m.get_pte(a).unwrap().sw.writable);
    }

    #[test]
    fn mprotect_splits_region() {
        let mut f = fx();
        let a = mmap(&mut f.mm, &heap_req(4)).unwrap();
        let sub = VaRange::from_len(VirtAddr::new(a.raw() + PAGE_SIZE), PAGE_SIZE);
        mprotect(&mut f.mm, &mut f.ptps, &mut f.phys, sub, Perms::R).unwrap();
        assert_eq!(f.mm.vma_count(), 3);
        assert_eq!(f.mm.vma_at(a).unwrap().perms, Perms::RW);
        assert_eq!(f.mm.vma_at(sub.start).unwrap().perms, Perms::R);
    }

    #[test]
    fn mprotect_unmapped_errors() {
        let mut f = fx();
        let err = mprotect(
            &mut f.mm,
            &mut f.ptps,
            &mut f.phys,
            VaRange::from_len(VirtAddr::new(0x7000_0000), PAGE_SIZE),
            Perms::R,
        )
        .unwrap_err();
        assert_eq!(err, SatError::NotMapped(VirtAddr::new(0x7000_0000)));
    }

    #[test]
    fn partial_munmap_splits_large_page() {
        use crate::largepage::promoted_region;
        let mut f = fx();
        let at = VirtAddr::new(0x4000_0000);
        promoted_region(&mut f.mm, &mut f.ptps, &mut f.phys, at, 1, Perms::RW);
        // Unmap the first 4KB only: the group must demote, the other
        // fifteen pages must survive as small PTEs.
        let cleared = munmap(
            &mut f.mm,
            &mut f.ptps,
            &mut f.phys,
            VaRange::from_len(at, PAGE_SIZE),
        )
        .unwrap();
        assert_eq!(cleared, 1);
        let m = Mapper::new(&mut f.mm.root, &mut f.ptps, &mut f.phys, f.mm.pid);
        assert!(m.get_pte(at).is_none());
        for i in 1..16u32 {
            let slot = m.get_pte(VirtAddr::new(at.raw() + i * PAGE_SIZE)).unwrap();
            assert_eq!(slot.hw.size, PageSize::Small4K);
        }
        let _ = m;
        exit_mmap(&mut f.mm, &mut f.ptps, &mut f.phys);
    }

    #[test]
    fn demote_range_reports_boundary_splits_only() {
        use crate::largepage::{promoted_region, LARGE_PAGE_BYTES};
        let mut f = fx();
        let at = VirtAddr::new(0x4000_0000);
        promoted_region(&mut f.mm, &mut f.ptps, &mut f.phys, at, 2, Perms::RW);
        // A range cutting into the second group splits only that one;
        // the first group is wholly inside and stays large.
        let range = VaRange::new(
            at,
            VirtAddr::new(at.raw() + LARGE_PAGE_BYTES + 4 * PAGE_SIZE),
        );
        let demoted = demote_range(&mut f.mm, &mut f.ptps, &mut f.phys, range).unwrap();
        assert_eq!(
            demoted,
            vec![(
                VirtAddr::new(at.raw() + LARGE_PAGE_BYTES),
                PageSize::Large64K
            )]
        );
        let m = Mapper::new(&mut f.mm.root, &mut f.ptps, &mut f.phys, f.mm.pid);
        assert_eq!(m.get_pte(at).unwrap().hw.size, PageSize::Large64K);
        assert_eq!(
            m.get_pte(VirtAddr::new(at.raw() + LARGE_PAGE_BYTES))
                .unwrap()
                .hw
                .size,
            PageSize::Small4K
        );
        let _ = m;
        // Idempotent: a second call finds nothing left to split.
        assert!(demote_range(&mut f.mm, &mut f.ptps, &mut f.phys, range)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn whole_group_mprotect_keeps_large_partial_splits() {
        use crate::largepage::{promoted_region, LARGE_PAGE_BYTES};
        let mut f = fx();
        let at = VirtAddr::new(0x4000_0000);
        promoted_region(&mut f.mm, &mut f.ptps, &mut f.phys, at, 2, Perms::RW);
        // Whole-group re-protection keeps the replicated descriptors
        // uniform: the first group stays large.
        mprotect(
            &mut f.mm,
            &mut f.ptps,
            &mut f.phys,
            VaRange::from_len(at, LARGE_PAGE_BYTES),
            Perms::R,
        )
        .unwrap();
        let m = Mapper::new(&mut f.mm.root, &mut f.ptps, &mut f.phys, f.mm.pid);
        let slot = m.get_pte(at).unwrap();
        assert_eq!(slot.hw.size, PageSize::Large64K);
        assert_eq!(slot.hw.perms, Perms::R);
        let _ = m;
        // Partial re-protection inside the second group demotes it.
        let second = VirtAddr::new(at.raw() + LARGE_PAGE_BYTES);
        mprotect(
            &mut f.mm,
            &mut f.ptps,
            &mut f.phys,
            VaRange::from_len(second, 4 * PAGE_SIZE),
            Perms::R,
        )
        .unwrap();
        let m = Mapper::new(&mut f.mm.root, &mut f.ptps, &mut f.phys, f.mm.pid);
        assert_eq!(m.get_pte(second).unwrap().hw.size, PageSize::Small4K);
        assert_eq!(m.get_pte(second).unwrap().hw.perms, Perms::R);
        // Pages past the re-protected span keep their old perms.
        let tail = VirtAddr::new(second.raw() + 5 * PAGE_SIZE);
        assert_eq!(m.get_pte(tail).unwrap().hw.size, PageSize::Small4K);
        assert!(m.get_pte(tail).unwrap().hw.perms.write());
    }

    #[test]
    fn munmap_splits_section_at_boundary() {
        use crate::largepage::promoted_region;
        let mut f = fx();
        // 1MB-aligned; sixteen groups promoted one after another land
        // on one contiguous 256-frame run, which the section needs.
        let at = VirtAddr::new(0x4000_0000);
        promoted_region(&mut f.mm, &mut f.ptps, &mut f.phys, at, 16, Perms::RW);
        Mapper::new(&mut f.mm.root, &mut f.ptps, &mut f.phys, f.mm.pid)
            .collapse_section(at)
            .unwrap();
        assert_eq!(f.mm.root.section_count(), 1);
        // Unmapping 8KB out of the middle demotes the section (and
        // the large group the boundary then cuts), clears two pages.
        let range = VaRange::from_len(VirtAddr::new(at.raw() + 0x8_0000), 2 * PAGE_SIZE);
        let demoted = demote_range(&mut f.mm, &mut f.ptps, &mut f.phys, range).unwrap();
        assert_eq!(demoted[0], (at, PageSize::Section1M));
        let cleared = munmap(&mut f.mm, &mut f.ptps, &mut f.phys, range).unwrap();
        assert_eq!(cleared, 2);
        assert_eq!(f.mm.root.section_count(), 0);
        // Every page outside the hole still translates.
        let m = Mapper::new(&mut f.mm.root, &mut f.ptps, &mut f.phys, f.mm.pid);
        assert!(m.get_pte(at).is_some());
        assert!(m.get_pte(VirtAddr::new(at.raw() + 0x8_0000)).is_none());
        assert!(m.get_pte(VirtAddr::new(at.raw() + 0x8_2000)).is_some());
        let _ = m;
        let baseline = 4; // root table
        exit_mmap(&mut f.mm, &mut f.ptps, &mut f.phys);
        assert_eq!(f.phys.frames_in_use(), baseline);
        assert!(f.ptps.is_empty());
    }

    #[test]
    fn exit_mmap_tears_down_sections() {
        use crate::largepage::promoted_region;
        let mut f = fx();
        let at = VirtAddr::new(0x4000_0000);
        promoted_region(&mut f.mm, &mut f.ptps, &mut f.phys, at, 16, Perms::RW);
        Mapper::new(&mut f.mm.root, &mut f.ptps, &mut f.phys, f.mm.pid)
            .collapse_section(at)
            .unwrap();
        exit_mmap(&mut f.mm, &mut f.ptps, &mut f.phys);
        assert_eq!(f.phys.frames_in_use(), 4); // just the root table
        assert_eq!(f.mm.root.section_count(), 0);
        assert!(f.ptps.is_empty());
    }

    #[test]
    fn exit_mmap_releases_everything() {
        let mut f = fx();
        let baseline = f.phys.frames_in_use();
        let a = mmap(&mut f.mm, &heap_req(8)).unwrap();
        populate(
            &mut f.mm,
            &mut f.ptps,
            &mut f.phys,
            VaRange::from_len(a, 8 * PAGE_SIZE),
            FaultCtx::default(),
        )
        .unwrap();
        let freed = exit_mmap(&mut f.mm, &mut f.ptps, &mut f.phys);
        assert_eq!(freed, 1);
        assert_eq!(f.mm.vma_count(), 0);
        assert_eq!(f.phys.frames_in_use(), baseline);
        assert!(f.ptps.is_empty());
    }
}
