//! 64KB large-page mapping mechanics.
//!
//! The paper's Section 2.3.3 weighs 64KB ARM large pages against
//! shared translation for zygote-preloaded code and finds them
//! wasteful (≈2.6× the physical memory); Section 3.1.3 notes the two
//! compose — a shared PTP can hold 64KB mappings, since a large page
//! is just sixteen consecutive, aligned second-level entries. A large
//! page comes to exist one way: [`collapse_group`], the khugepaged-like
//! path driven by `sat-core`'s promotion scanner. An already
//! fault-populated 64KB run migrates onto a fresh physically contiguous
//! frame group, and never-touched hole pages get frames allocated just
//! to let the run go wide — the *measured* memory waste of Section
//! 2.3.3.
//!
//! Demotion (splitting a large mapping back to 4KB PTEs) lives in
//! `sat_mmu::Mapper::split_large`; the syscall and fault paths invoke
//! it instead of rejecting partial operations.

use sat_mmu::{HwPte, Mapper, PtpStore, SwPte};
use sat_phys::{FrameKind, PhysMem};
use sat_types::{
    Domain, PageSize, Perms, Pfn, SatError, SatResult, VaRange, VirtAddr, PAGES_PER_64K, PAGE_SIZE,
};

use crate::mm::Mm;
use crate::vma::Backing;

/// Bytes in a 64KB large page.
pub const LARGE_PAGE_BYTES: u32 = 64 * 1024;

/// Outcome of promoting one 64KB group of 4KB PTEs into a large page.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CollapseOutcome {
    /// Pages that were already fault-populated and migrated onto the
    /// contiguous frame group.
    pub migrated: u32,
    /// Hole pages that had never been touched but received frames
    /// anyway — the numerator of the paper's memory-waste figure.
    pub filled: u32,
}

/// Collapses the sixteen 4KB slots of the 64KB-aligned group at
/// `group` into one large page (the khugepaged-style promotion the
/// `sat-core` scanner drives).
///
/// Eligibility, checked here so the scanner can simply try every
/// candidate group (ineligible groups return `InvalidArgument`):
///
/// * `group` is 64KB-aligned and lies wholly inside one VMA;
/// * the group's level-1 entry is a *private* table — `NEED_COPY`
///   shared translations are never promoted, since collapsing would
///   rewrite every sharer's view of the sixteen slots;
/// * at least one slot is populated; every populated slot is a
///   *settled* `Small4K` mapping (hardware permissions match the
///   software intent — no COW pending — and not `MAP_SHARED`), and
///   permissions/global are uniform across the populated slots.
///
/// Mechanics: a fresh physically contiguous 16-frame group is
/// allocated, populated pages migrate onto it (copy + remap), and
/// hole pages get frames with `young == false` — *mapped but never
/// touched*, which is exactly the mapped-vs-touched gap behind the
/// paper's ≈2.6× waste figure (Section 2.3.3). For file-backed
/// regions hole content is staged through the page cache (charged as
/// reads); migrated pages are already resident and copy
/// frame-to-frame. On ENOMEM nothing is changed.
pub fn collapse_group(
    mm: &mut Mm,
    ptps: &mut PtpStore,
    phys: &mut PhysMem,
    group: VirtAddr,
    domain: Domain,
) -> SatResult<CollapseOutcome> {
    if !group.raw().is_multiple_of(LARGE_PAGE_BYTES) {
        return Err(SatError::InvalidArgument);
    }
    let range = VaRange::from_len(group, LARGE_PAGE_BYTES);
    let vma = match mm.vma_at(group) {
        Some(v) if range.end.raw() <= v.range.end.raw() => v.clone(),
        _ => return Err(SatError::InvalidArgument),
    };
    if mm.root.entry_for(group).need_copy() {
        return Err(SatError::InvalidArgument);
    }
    let mut mapper = Mapper::new(&mut mm.root, ptps, phys, mm.pid);
    // Survey the sixteen slots: settled, uniform, at least one present.
    let slots: Vec<Option<sat_mmu::PteSlot>> = range.pages().map(|p| mapper.get_pte(p)).collect();
    let mut uniform: Option<(Perms, bool)> = None;
    for s in slots.iter().flatten() {
        if s.hw.size != PageSize::Small4K {
            return Err(SatError::InvalidArgument);
        }
        // A slot mid-COW (write-protected while the software intent
        // is writable) or MAP_SHARED is not settled; promoting it
        // would freeze the wrong state into the wide descriptor.
        if s.sw.shared || s.sw.writable != s.hw.perms.write() {
            return Err(SatError::InvalidArgument);
        }
        match uniform {
            None => uniform = Some((s.hw.perms, s.hw.global)),
            Some(u) if u != (s.hw.perms, s.hw.global) => {
                return Err(SatError::InvalidArgument);
            }
            Some(_) => {}
        }
    }
    let Some((perms, global)) = uniform else {
        return Err(SatError::InvalidArgument); // fully empty group
    };
    // Fresh contiguous frames; ENOMEM propagates before any change.
    let base = mapper
        .phys
        .alloc_run(FrameKind::Anon, PAGES_PER_64K as u32)?;
    // Stage hole content for file regions (charged page-cache reads);
    // populated pages are already resident and copy frame-to-frame.
    if let Backing::File { .. } = vma.backing {
        for (i, s) in slots.iter().enumerate() {
            if s.is_some() {
                continue;
            }
            let page = VirtAddr::new(group.raw() + i as u32 * PAGE_SIZE);
            if let Some((file, index)) = vma.file_page_index(page) {
                if let Err(e) = mapper.phys.file_page(file, index) {
                    for j in 0..PAGES_PER_64K as u32 {
                        mapper.phys.put_page(Pfn::new(base.raw() + j));
                    }
                    return Err(e);
                }
            }
        }
    }
    let mut outcome = CollapseOutcome::default();
    let hw = HwPte::large(base, perms, global);
    for (i, old) in slots.iter().enumerate() {
        let page = VirtAddr::new(group.raw() + i as u32 * PAGE_SIZE);
        let sw = match old {
            Some(s) => {
                // Migrate: drop the old 4KB frame, keep the software
                // bits (dirty state survives the copy).
                mapper.clear_pte(page);
                outcome.migrated += 1;
                SwPte {
                    young: s.sw.young,
                    dirty: s.sw.dirty,
                    writable: s.sw.writable,
                    shared: false,
                    file_backed: false, // the copy is anonymous
                }
            }
            None => {
                outcome.filled += 1;
                // Mapped but never touched: the waste the paper
                // measures. `young == false` keeps it countable.
                SwPte {
                    young: false,
                    dirty: false,
                    writable: perms.write(),
                    shared: false,
                    file_backed: false,
                }
            }
        };
        // The group's PTP exists (a slot was populated), so set_pte
        // cannot need an allocation here.
        mapper.set_pte(page, hw, sw, domain)?;
    }
    // Drop the allocation references: the PTEs now own the frames.
    for j in 0..PAGES_PER_64K as u32 {
        mapper.phys.put_page(Pfn::new(base.raw() + j));
    }
    Ok(outcome)
}

/// Test fixture shared by this crate's unit tests: an anonymous region
/// of `groups` 64KB groups at `at`, each group fully faulted in and
/// then collapsed — map, fault, promote, the way every large page
/// comes to exist. Faulting and collapsing one group at a time hands
/// consecutive groups consecutive frame runs (each collapse frees the
/// sixteen frames the next group's faults reuse), so a 16-group region
/// is also section-eligible.
#[cfg(test)]
pub(crate) fn promoted_region(
    mm: &mut Mm,
    ptps: &mut PtpStore,
    phys: &mut PhysMem,
    at: VirtAddr,
    groups: u32,
    perms: Perms,
) {
    use crate::fault::{handle_fault, FaultCtx};
    use crate::vma::Vma;
    use sat_types::{AccessType, RegionTag};
    let range = VaRange::from_len(at, groups * LARGE_PAGE_BYTES);
    mm.insert_vma(Vma::anon(range, perms, RegionTag::Heap, "promoted"))
        .unwrap();
    // A settled slot needs the access the region's intent allows:
    // a read fault on a writable page leaves it write-protected.
    let access = if perms.write() {
        AccessType::Write
    } else {
        AccessType::Read
    };
    for g in 0..groups {
        let group = VirtAddr::new(at.raw() + g * LARGE_PAGE_BYTES);
        for page in VaRange::from_len(group, LARGE_PAGE_BYTES).pages() {
            handle_fault(mm, ptps, phys, page, access, FaultCtx::default()).unwrap();
        }
        let out = collapse_group(mm, ptps, phys, group, Domain::USER).unwrap();
        assert_eq!((out.migrated, out.filled), (16, 0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{handle_fault, FaultCtx};
    use crate::vma::Vma;
    use sat_mmu::walk;
    use sat_types::{AccessType, Asid, PageSize, Pid, RegionTag};

    struct Fx {
        phys: PhysMem,
        ptps: PtpStore,
        mm: Mm,
    }

    fn fx() -> Fx {
        let mut phys = PhysMem::new(16384);
        let mm = Mm::new(&mut phys, Pid::new(1), Asid::new(1)).unwrap();
        Fx {
            phys,
            ptps: PtpStore::new(),
            mm,
        }
    }

    /// Inserts an anonymous RW heap of `groups` 64KB groups at `at`.
    fn heap(mm: &mut Mm, at: VirtAddr, groups: u32) {
        let range = VaRange::from_len(at, groups * LARGE_PAGE_BYTES);
        mm.insert_vma(Vma::anon(range, Perms::RW, RegionTag::Heap, "promo"))
            .unwrap();
    }

    fn write_fault(f: &mut Fx, va: VirtAddr) {
        handle_fault(
            &mut f.mm,
            &mut f.ptps,
            &mut f.phys,
            va,
            AccessType::Write,
            FaultCtx::default(),
        )
        .unwrap();
    }

    /// Every page of the group at `at` translates large, and VA offsets
    /// map linearly onto one contiguous frame run.
    fn assert_one_linear_large_page(f: &Fx, at: VirtAddr) {
        let pa0 = walk(&f.mm.root, &f.ptps, at)
            .translation()
            .unwrap()
            .translate(at);
        for i in 0..16u32 {
            let va = VirtAddr::new(at.raw() + i * PAGE_SIZE);
            let t = walk(&f.mm.root, &f.ptps, va).translation().unwrap();
            assert_eq!(t.size, PageSize::Large64K);
            assert_eq!(t.translate(va).raw(), pa0.raw() + i * PAGE_SIZE);
        }
    }

    #[test]
    fn maps_one_large_page_as_16_slots() {
        let mut f = fx();
        let at = VirtAddr::new(0x4000_0000);
        promoted_region(&mut f.mm, &mut f.ptps, &mut f.phys, at, 1, Perms::R);
        assert_eq!(f.ptps.len(), 1);
        assert_one_linear_large_page(&f, at);
        // Sixteen replicated descriptors, one per second-level slot.
        let m = Mapper::new(&mut f.mm.root, &mut f.ptps, &mut f.phys, f.mm.pid);
        let base = m.get_pte(at).unwrap().hw.pfn;
        for page in VaRange::from_len(at, LARGE_PAGE_BYTES).pages() {
            let slot = m.get_pte(page).unwrap();
            assert_eq!(slot.hw.size, PageSize::Large64K);
            assert_eq!(slot.hw.pfn, base);
            assert_eq!(slot.hw.perms, Perms::R);
        }
    }

    #[test]
    fn large_pages_cost_16_frames_per_64k() {
        // The Figure 4 memory-waste argument in miniature: 1 touched
        // 4KB page out of 64KB costs 16 frames under large pages.
        let mut f = fx();
        let at = VirtAddr::new(0x5000_0000);
        let before = f.phys.frames_in_use();
        heap(&mut f.mm, at, 1);
        write_fault(&mut f, at);
        // 1 data frame + 1 PTP under 4KB paging...
        assert_eq!(f.phys.frames_in_use(), before + 2);
        let out = collapse_group(&mut f.mm, &mut f.ptps, &mut f.phys, at, Domain::USER).unwrap();
        assert_eq!((out.migrated, out.filled), (1, 15));
        // ...16 data frames + 1 PTP once the group goes wide.
        assert_eq!(f.phys.frames_in_use(), before + 17);
    }

    #[test]
    fn enomem_mid_group_rolls_back_without_leaking() {
        // A collapse that cannot get its 16-frame run must change
        // nothing and keep already-established large pages intact.
        // Size physical memory so the *second* group runs out: Mm::new
        // takes 4 frames for the root, the PTP 1, the first large page
        // 16, the second group's one touched page 1, and the remaining
        // 7 are too few for another 16-frame run.
        let mut phys = PhysMem::new(4 + 1 + 16 + 1 + 7);
        let mm = Mm::new(&mut phys, Pid::new(1), Asid::new(1)).unwrap();
        let mut f = Fx {
            phys,
            ptps: PtpStore::new(),
            mm,
        };
        let at = VirtAddr::new(0x4000_0000);
        let second = VirtAddr::new(at.raw() + LARGE_PAGE_BYTES);
        heap(&mut f.mm, at, 2);
        write_fault(&mut f, at);
        collapse_group(&mut f.mm, &mut f.ptps, &mut f.phys, at, Domain::USER).unwrap();
        write_fault(&mut f, second);
        assert_eq!(f.phys.frames_in_use(), 4 + 1 + 16 + 1);
        let err =
            collapse_group(&mut f.mm, &mut f.ptps, &mut f.phys, second, Domain::USER).unwrap_err();
        assert_eq!(err, SatError::OutOfMemory);
        // Nothing leaked, and the failed group is exactly as it was:
        // one small PTE, fifteen holes.
        assert_eq!(f.phys.frames_in_use(), 4 + 1 + 16 + 1);
        let m = Mapper::new(&mut f.mm.root, &mut f.ptps, &mut f.phys, f.mm.pid);
        assert_eq!(m.get_pte(second).unwrap().hw.size, PageSize::Small4K);
        assert_eq!(
            m.iter_range(VaRange::from_len(second, LARGE_PAGE_BYTES))
                .len(),
            1
        );
        let _ = m;
        // The established large page still translates end to end.
        assert_one_linear_large_page(&f, at);
        // And tearing the space down leaks nothing.
        crate::syscalls::exit_mmap(&mut f.mm, &mut f.ptps, &mut f.phys);
        assert_eq!(f.phys.frames_in_use(), 4);
    }

    #[test]
    fn collapse_survives_fragmented_free_list() {
        // Free-list churn makes sequential alloc() non-contiguous; the
        // collapse must still land on one contiguous run.
        let mut f = fx();
        let churn: Vec<_> = (0..33)
            .map(|_| f.phys.alloc(sat_phys::FrameKind::Anon).unwrap())
            .collect();
        // Free every other frame: the LIFO free list now yields a
        // non-contiguous sequence first.
        for (i, pfn) in churn.iter().enumerate() {
            if i % 2 == 0 {
                f.phys.put_page(*pfn);
            }
        }
        let at = VirtAddr::new(0x4000_0000);
        promoted_region(&mut f.mm, &mut f.ptps, &mut f.phys, at, 1, Perms::RW);
        assert_one_linear_large_page(&f, at);
    }

    #[test]
    fn collapse_migrates_populated_and_fills_holes() {
        let mut f = fx();
        let at = VirtAddr::new(0x4000_0000);
        heap(&mut f.mm, at, 1);
        // Fault 6 of 16 pages by writes (the Figure 4 density).
        for i in [0u32, 2, 5, 7, 11, 13] {
            write_fault(&mut f, VirtAddr::new(at.raw() + i * PAGE_SIZE));
        }
        let before = f.phys.frames_in_use();
        let out = collapse_group(&mut f.mm, &mut f.ptps, &mut f.phys, at, Domain::USER).unwrap();
        assert_eq!(out.migrated, 6);
        assert_eq!(out.filled, 10);
        // 16 new frames in, 6 old frames out: net +10 — the waste.
        assert_eq!(f.phys.frames_in_use(), before + 10);
        // All sixteen pages now translate large and linearly.
        assert_one_linear_large_page(&f, at);
        // Migrated pages kept their touched state; holes are cold.
        let m = Mapper::new(&mut f.mm.root, &mut f.ptps, &mut f.phys, f.mm.pid);
        assert!(m.get_pte(at).unwrap().sw.young);
        assert!(
            !m.get_pte(VirtAddr::new(at.raw() + PAGE_SIZE))
                .unwrap()
                .sw
                .young
        );
        let _ = m;
        // Teardown balances the books.
        crate::syscalls::exit_mmap(&mut f.mm, &mut f.ptps, &mut f.phys);
    }

    #[test]
    fn collapse_rejects_empty_unaligned_and_mixed_groups() {
        let mut f = fx();
        let at = VirtAddr::new(0x4000_0000);
        heap(&mut f.mm, at, 2);
        // Unaligned group address.
        assert_eq!(
            collapse_group(
                &mut f.mm,
                &mut f.ptps,
                &mut f.phys,
                VirtAddr::new(at.raw() + PAGE_SIZE),
                Domain::USER,
            )
            .unwrap_err(),
            SatError::InvalidArgument
        );
        // Fully empty group.
        assert_eq!(
            collapse_group(&mut f.mm, &mut f.ptps, &mut f.phys, at, Domain::USER).unwrap_err(),
            SatError::InvalidArgument
        );
        // Mid-COW slot (read fault leaves it write-protected while the
        // software intent is writable): not settled, not promotable.
        handle_fault(
            &mut f.mm,
            &mut f.ptps,
            &mut f.phys,
            at,
            AccessType::Read,
            FaultCtx::default(),
        )
        .unwrap();
        assert_eq!(
            collapse_group(&mut f.mm, &mut f.ptps, &mut f.phys, at, Domain::USER).unwrap_err(),
            SatError::InvalidArgument
        );
    }

    #[test]
    fn large_mapped_region_survives_exit_teardown() {
        let mut f = fx();
        let baseline = f.phys.frames_in_use();
        let at = VirtAddr::new(0x5000_0000);
        promoted_region(&mut f.mm, &mut f.ptps, &mut f.phys, at, 2, Perms::RW);
        crate::syscalls::exit_mmap(&mut f.mm, &mut f.ptps, &mut f.phys);
        assert_eq!(f.phys.frames_in_use(), baseline);
        assert!(f.ptps.is_empty());
    }
}
