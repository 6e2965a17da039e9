//! The stock `fork` implementation (`dup_mm`/`copy_page_range`).
//!
//! Linux skips copying PTEs for file-backed mappings — soft page
//! faults refill them in the child — but must copy PTEs for anonymous
//! memory (and write-protect private writable pages in both parent and
//! child for COW). The paper's Table 4 compares three fork variants on
//! the zygote:
//!
//! - **Stock** ([`ForkPtePolicy::Stock`]): copy anonymous PTEs only.
//! - **Copied PTEs** ([`ForkPtePolicy::CopyAll`]): additionally copy
//!   the file-backed PTEs of the zygote-preloaded shared code — faster
//!   launches but a 58.6% slower fork and more PTPs.
//! - **Shared PTPs**: the paper's mechanism, implemented in
//!   `sat-core`; it reuses this module for the regions it cannot
//!   share.

use sat_mmu::{Mapper, PtpStore};
use sat_phys::PhysMem;
use sat_types::{Asid, Domain, Pid, SatResult, VaRange};

use crate::mm::Mm;
use crate::syscalls::exit_mmap;
use crate::vma::{Backing, Vma};

/// Which PTEs `fork` copies eagerly.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ForkPtePolicy {
    /// Stock Linux: copy anonymous mappings, skip file-backed ones.
    Stock,
    /// Copy every populated PTE, including file-backed mappings (the
    /// paper's "Copied PTEs" comparison kernel).
    CopyAll,
}

/// What a fork did, for the Table 4 accounting.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct ForkReport {
    /// PTEs copied from parent to child.
    pub ptes_copied: u64,
    /// Of those, PTEs belonging to file-backed mappings (cheaper to
    /// copy than anonymous ones, which also need COW protection).
    pub ptes_copied_file: u64,
    /// PTPs allocated for the child.
    pub ptps_allocated: u64,
    /// Parent PTEs newly write-protected for COW.
    pub cow_protected: u64,
    /// Regions inherited.
    pub vmas: usize,
}

/// Returns `true` if the policy copies this region's PTEs at fork.
///
/// Stock Linux copies anonymous mappings and any private *writable*
/// file mapping (data segments acquire anonymous COW pages from
/// relocation processing, and refaulting those from the file would
/// lose the written data); read-only/executable file mappings are
/// skipped and refault in the child.
pub fn copies_ptes(policy: ForkPtePolicy, vma: &Vma) -> bool {
    match policy {
        ForkPtePolicy::Stock => match vma.backing {
            Backing::Anon => true,
            Backing::File { .. } => !vma.shared && vma.perms.write(),
        },
        ForkPtePolicy::CopyAll => true,
    }
}

/// Forks `parent` into a new address space, copying PTEs per `policy`.
///
/// `child_domain` is the domain used for the child's level-1 entries
/// (the zygote domain for zygote-like children under the paper's TLB
/// sharing, the user domain otherwise).
///
/// A fork that runs out of frames part-way takes the half-built child
/// down before it returns the error, so every frame, reference and
/// reverse-map entry the copy took is given back. What stays is the COW
/// write protection already applied to parent PTEs: a legal state (the
/// parent's next write re-enables the page), but one its cached
/// translations do not reflect — a caller that models a TLB flushes
/// the parent after a failed fork as after a successful one.
pub fn fork_mm(
    parent: &mut Mm,
    ptps: &mut PtpStore,
    phys: &mut PhysMem,
    child_pid: Pid,
    child_asid: Asid,
    policy: ForkPtePolicy,
    child_domain: Domain,
) -> SatResult<(Mm, ForkReport)> {
    let mut child = Mm::new(phys, child_pid, child_asid)?;
    child.dacr = parent.dacr;
    child.is_zygote_child = parent.is_zygote_like();
    // The child's copy of the regions doubles as the list to walk —
    // the copy loop borrows the parent mutably — and is installed once
    // the loop is done with it.
    let vmas = parent.clone_vmas();
    let mut report = ForkReport {
        vmas: vmas.len(),
        ..ForkReport::default()
    };

    for vma in vmas.values() {
        if !copies_ptes(policy, vma) {
            continue;
        }
        if let Err(e) = copy_vma_ptes(
            parent,
            &mut child,
            ptps,
            phys,
            vma,
            child_domain,
            &mut report,
        ) {
            exit_mmap(&mut child, ptps, phys);
            child.free_root(phys);
            return Err(e);
        }
    }
    child.set_vmas(vmas);
    child.counters.ptes_copied_fork = report.ptes_copied;
    child.counters.ptps_allocated = report.ptps_allocated;
    Ok((child, report))
}

/// Copies the populated PTEs of one region from `parent` to `child`,
/// COW-protecting private writable pages in both.
pub fn copy_vma_ptes(
    parent: &mut Mm,
    child: &mut Mm,
    ptps: &mut PtpStore,
    phys: &mut PhysMem,
    vma: &Vma,
    child_domain: Domain,
    report: &mut ForkReport,
) -> SatResult<()> {
    copy_vma_ptes_in_range(
        parent,
        child,
        ptps,
        phys,
        vma,
        vma.range,
        child_domain,
        report,
    )
}

/// Copies the populated PTEs of `vma` that fall within `clamp` from
/// `parent` to `child`, COW-protecting private writable pages in both.
///
/// The paper's shared-PTP fork uses the clamped form for the regions a
/// shared PTP chunk cannot cover (e.g. the stack's chunk).
#[allow(clippy::too_many_arguments)]
pub fn copy_vma_ptes_in_range(
    parent: &mut Mm,
    child: &mut Mm,
    ptps: &mut PtpStore,
    phys: &mut PhysMem,
    vma: &Vma,
    clamp: VaRange,
    child_domain: Domain,
    report: &mut ForkReport,
) -> SatResult<()> {
    let Some(range) = vma.range.intersect(&clamp) else {
        return Ok(());
    };
    // Collect the parent's populated PTEs first (cannot hold a borrow
    // of the parent's tables while mutating the child's).
    let parent_ptes = {
        let parent_mapper = Mapper::new(&mut parent.root, ptps, phys, parent.pid);
        parent_mapper.iter_range(range)
    };
    let cow = vma.is_private_writable();
    for (va, slot) in parent_ptes {
        let mut hw = slot.hw;
        if cow && hw.perms.write() {
            // Write-protect in the parent...
            let mut pm = Mapper::new(&mut parent.root, ptps, phys, parent.pid);
            pm.update_pte(va, |hw, _| *hw = hw.write_protected());
            report.cow_protected += 1;
            // ...and copy the protected version into the child.
            hw = hw.write_protected();
        }
        let mut cm = Mapper::new(&mut child.root, ptps, phys, child.pid);
        let res = cm.set_pte(va, hw, slot.sw, child_domain)?;
        report.ptes_copied += 1;
        if matches!(vma.backing, Backing::File { .. }) {
            report.ptes_copied_file += 1;
        }
        if res.ptp_allocated {
            report.ptps_allocated += 1;
        }
    }
    Ok(())
}

/// Clears the COW write protection bookkeeping check: after a fork,
/// both parent and child map each private page; this helper asserts
/// the frame reference counts reflect that. Intended for tests and
/// debug builds.
pub fn assert_cow_invariants(mm: &Mm, ptps: &PtpStore, phys: &PhysMem, range: VaRange) {
    for page in range.pages() {
        let slot = match mm
            .root
            .entry_for(page)
            .ptp()
            .and_then(|f| ptps.get(f))
            .and_then(|t| t.get(sat_mmu::TableHalf::of(page), page.l2_index()))
        {
            Some(s) => s,
            None => continue,
        };
        let mapcount = phys.mapcount(slot.hw.pfn);
        if mapcount > 1 {
            assert!(
                !slot.hw.perms.write() || slot.sw.shared,
                "page {page:?} mapped {mapcount}x but writable and not shared"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{handle_fault, FaultCtx, FaultKind};
    use sat_phys::FileId;
    use sat_types::{AccessType, Perms, RegionTag, VirtAddr, PAGE_SIZE};

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

    fn touch(fx_mm: &mut Mm, ptps: &mut PtpStore, phys: &mut PhysMem, va: u32, access: AccessType) {
        handle_fault(
            fx_mm,
            ptps,
            phys,
            VirtAddr::new(va),
            access,
            FaultCtx::default(),
        )
        .unwrap();
    }

    fn add_heap(f: &mut Fx, start: u32, pages: u32) {
        f.mm.insert_vma(Vma::anon(
            VaRange::from_len(VirtAddr::new(start), pages * PAGE_SIZE),
            Perms::RW,
            RegionTag::Heap,
            "[heap]",
        ))
        .unwrap();
    }

    fn add_code(f: &mut Fx, start: u32, pages: u32) {
        f.mm.insert_vma(Vma::file(
            VaRange::from_len(VirtAddr::new(start), pages * PAGE_SIZE),
            Perms::RX,
            FileId(0),
            0,
            RegionTag::ZygoteNativeCode,
            "libc.so",
        ))
        .unwrap();
    }

    #[test]
    fn stock_fork_copies_anon_skips_file() {
        let mut f = fx();
        add_heap(&mut f, 0x0800_0000, 4);
        add_code(&mut f, 0x4000_0000, 4);
        for i in 0..4 {
            touch(
                &mut f.mm,
                &mut f.ptps,
                &mut f.phys,
                0x0800_0000 + i * PAGE_SIZE,
                AccessType::Write,
            );
            touch(
                &mut f.mm,
                &mut f.ptps,
                &mut f.phys,
                0x4000_0000 + i * PAGE_SIZE,
                AccessType::Execute,
            );
        }
        let (child, report) = fork_mm(
            &mut f.mm,
            &mut f.ptps,
            &mut f.phys,
            Pid::new(2),
            Asid::new(2),
            ForkPtePolicy::Stock,
            Domain::USER,
        )
        .unwrap();
        assert_eq!(report.ptes_copied, 4); // heap only
        assert_eq!(report.cow_protected, 4);
        assert_eq!(report.vmas, 2);
        assert_eq!(report.ptps_allocated, 1);
        // Child has the heap PTEs but not the code PTEs.
        let cm = Mapper::new(&mut f.mm.root, &mut f.ptps, &mut f.phys, f.mm.pid);
        assert!(cm.get_pte(VirtAddr::new(0x0800_0000)).is_some());
        let _ = cm;
        let mut child = child;
        let ccm = Mapper::new(&mut child.root, &mut f.ptps, &mut f.phys, child.pid);
        assert!(ccm.get_pte(VirtAddr::new(0x0800_0000)).is_some());
        assert!(ccm.get_pte(VirtAddr::new(0x4000_0000)).is_none());
    }

    #[test]
    fn copy_all_policy_copies_file_backed_too() {
        let mut f = fx();
        add_code(&mut f, 0x4000_0000, 4);
        for i in 0..4 {
            touch(
                &mut f.mm,
                &mut f.ptps,
                &mut f.phys,
                0x4000_0000 + i * PAGE_SIZE,
                AccessType::Execute,
            );
        }
        let (_child, report) = fork_mm(
            &mut f.mm,
            &mut f.ptps,
            &mut f.phys,
            Pid::new(2),
            Asid::new(2),
            ForkPtePolicy::CopyAll,
            Domain::USER,
        )
        .unwrap();
        assert_eq!(report.ptes_copied, 4);
        assert_eq!(report.cow_protected, 0); // code is not writable
    }

    #[test]
    fn cow_protects_both_parent_and_child() {
        let mut f = fx();
        add_heap(&mut f, 0x0800_0000, 1);
        touch(
            &mut f.mm,
            &mut f.ptps,
            &mut f.phys,
            0x0800_0000,
            AccessType::Write,
        );
        let (mut child, _) = fork_mm(
            &mut f.mm,
            &mut f.ptps,
            &mut f.phys,
            Pid::new(2),
            Asid::new(2),
            ForkPtePolicy::Stock,
            Domain::USER,
        )
        .unwrap();
        let va = VirtAddr::new(0x0800_0000);
        let parent_pte = Mapper::new(&mut f.mm.root, &mut f.ptps, &mut f.phys, f.mm.pid)
            .get_pte(va)
            .unwrap();
        let child_pte = Mapper::new(&mut child.root, &mut f.ptps, &mut f.phys, child.pid)
            .get_pte(va)
            .unwrap();
        assert!(!parent_pte.hw.perms.write());
        assert!(!child_pte.hw.perms.write());
        assert_eq!(parent_pte.hw.pfn, child_pte.hw.pfn); // same frame
        assert_eq!(f.phys.mapcount(parent_pte.hw.pfn), 2);
        assert_cow_invariants(&f.mm, &f.ptps, &f.phys, VaRange::from_len(va, PAGE_SIZE));
    }

    #[test]
    fn write_after_fork_triggers_cow_copy() {
        let mut f = fx();
        add_heap(&mut f, 0x0800_0000, 1);
        touch(
            &mut f.mm,
            &mut f.ptps,
            &mut f.phys,
            0x0800_0000,
            AccessType::Write,
        );
        let (mut child, _) = fork_mm(
            &mut f.mm,
            &mut f.ptps,
            &mut f.phys,
            Pid::new(2),
            Asid::new(2),
            ForkPtePolicy::Stock,
            Domain::USER,
        )
        .unwrap();
        let va = VirtAddr::new(0x0800_0000);
        // Child writes: gets its own copy.
        let o = handle_fault(
            &mut child,
            &mut f.ptps,
            &mut f.phys,
            va,
            AccessType::Write,
            FaultCtx::default(),
        )
        .unwrap();
        assert_eq!(o.kind, FaultKind::Cow);
        let child_pfn = Mapper::new(&mut child.root, &mut f.ptps, &mut f.phys, child.pid)
            .get_pte(va)
            .unwrap()
            .hw
            .pfn;
        let parent_pfn = Mapper::new(&mut f.mm.root, &mut f.ptps, &mut f.phys, f.mm.pid)
            .get_pte(va)
            .unwrap()
            .hw
            .pfn;
        assert_ne!(child_pfn, parent_pfn);
        // Parent now writes: sole mapper again, so write is re-enabled
        // without copying.
        let o2 = handle_fault(
            &mut f.mm,
            &mut f.ptps,
            &mut f.phys,
            va,
            AccessType::Write,
            FaultCtx::default(),
        )
        .unwrap();
        assert_eq!(o2.kind, FaultKind::WriteEnable);
    }

    #[test]
    fn fork_that_runs_out_of_frames_takes_the_child_down() {
        // Heap pages in three 2MB chunks: a fork needs four root frames
        // and three tables. Leave room for the root and 0, 1 or 2
        // tables, so the copy fails with that many tables — and their
        // PTEs' references and reverse-map entries — already in place.
        for tables_that_fit in 0..3 {
            let mut f = fx();
            for chunk in 0..3 {
                let at = 0x0800_0000 + chunk * 0x20_0000;
                add_heap(&mut f, at, 2);
                touch(&mut f.mm, &mut f.ptps, &mut f.phys, at, AccessType::Write);
            }
            let free = f.phys.frame_count() as u64 - f.phys.frames_in_use();
            let spare = free - (4 + tables_that_fit);
            let hoard: Vec<_> = (0..spare)
                .map(|_| f.phys.alloc(sat_phys::FrameKind::Anon).unwrap())
                .collect();
            let before = (f.phys.frames_in_use(), f.phys.rmap_total(), f.ptps.len());
            let failed = fork_mm(
                &mut f.mm,
                &mut f.ptps,
                &mut f.phys,
                Pid::new(2),
                Asid::new(2),
                ForkPtePolicy::Stock,
                Domain::USER,
            );
            assert_eq!(failed.err(), Some(sat_types::SatError::OutOfMemory));
            assert_eq!(
                (f.phys.frames_in_use(), f.phys.rmap_total(), f.ptps.len()),
                before,
                "{tables_that_fit} tables fit"
            );
            f.phys.rmap_verify().unwrap();
            // With room again the same fork goes through.
            for frame in hoard {
                f.phys.put_page(frame);
            }
            let (_, report) = fork_mm(
                &mut f.mm,
                &mut f.ptps,
                &mut f.phys,
                Pid::new(3),
                Asid::new(3),
                ForkPtePolicy::Stock,
                Domain::USER,
            )
            .unwrap();
            assert_eq!((report.ptes_copied, report.ptps_allocated), (3, 3));
            f.phys.rmap_verify().unwrap();
        }
    }

    #[test]
    fn grandchild_fork_inherits_zygote_child_flag() {
        let mut f = fx();
        f.mm.is_zygote = true;
        let (mut child, _) = fork_mm(
            &mut f.mm,
            &mut f.ptps,
            &mut f.phys,
            Pid::new(2),
            Asid::new(2),
            ForkPtePolicy::Stock,
            Domain::USER,
        )
        .unwrap();
        assert!(child.is_zygote_child);
        assert!(!child.is_zygote);
        let (grandchild, _) = fork_mm(
            &mut child,
            &mut f.ptps,
            &mut f.phys,
            Pid::new(3),
            Asid::new(3),
            ForkPtePolicy::Stock,
            Domain::USER,
        )
        .unwrap();
        assert!(grandchild.is_zygote_child);
    }
}
