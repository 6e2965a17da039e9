//! `fork(2)`: Section 3.1.1 of the paper as the change it is — a
//! decision taken per 2MB chunk *inside* fork's page-table copy
//! (DESIGN.md §16).
//!
//! There is one fork, [`dup_mm`]. It walks the parent's page-table
//! pages in ascending address order and, for the chunk each translates:
//!
//! 1. the parent's level-1 pair already carries `NEED_COPY` — the child
//!    **attaches** (its pair points at the same PTP; one registry
//!    refcount bump);
//! 2. the chunk is sharable ([`chunk_sharable`], which needs
//!    `config.share_ptp`) — [`first_share`], then attach;
//! 3. otherwise — **copy as stock**: [`copy_vma_ptes_in_range`],
//!    clamped to the chunk, for every region `config.fork_policy`
//!    copies; then the child's table adopts the parent's host-side
//!    groups wherever the two came out word for word
//!    ([`PtpStore::adopt_equal`]), which nothing simulated can see.
//!
//! The stock and copied-PTEs kernels are the case where no chunk is
//! sharable. Chunks and the regions inside them are both visited in
//! ascending order, so the PTEs are copied in the order Linux's
//! per-region `copy_page_range` loop copies them —
//! `tests/fork_differential.rs` keeps that loop as the specification.

use sat_mmu::{Mapper, PtpStore};
use sat_obs::FlushReason;
use sat_phys::PhysMem;
use sat_types::{
    Asid, Domain, PageSize, Pfn, Pid, SatResult, VaRange, VirtAddr, VpnRange, PTP_SPAN,
};
use sat_vm::{copies_ptes, copy_vma_ptes_in_range, ForkReport, Mm};

use crate::config::KernelConfig;
use crate::flush::FlushBatch;
use crate::kernel::{note_demote, KernelStats};
use crate::registry::SharedPtpRegistry;
use crate::share::{chunk_sharable, first_share, teardown};

/// What a fork did (the Table 4 row).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ForkOutcome {
    /// The new process.
    pub child: Pid,
    /// PTEs copied into the child.
    pub ptes_copied: u64,
    /// Of those, PTEs of file-backed mappings.
    pub ptes_copied_file: u64,
    /// PTPs allocated for the child.
    pub ptps_allocated: u64,
    /// PTPs shared with the child (zero unless PTP sharing is on).
    pub ptps_shared: u64,
    /// PTEs write-protected to establish PTP-level COW.
    pub write_protect_ops: u64,
}

/// Builds `child_pid`'s address space from `parent`'s: the chunk loop
/// of the module docs, after the parent's sections — level-1 entries
/// the loop would not see, so the child would silently lose them — have
/// been split back to PTEs.
///
/// Every parent translation the fork made *less permissive* is gathered
/// into `batch` under [`FlushReason::Fork`] (Linux's `flush_tlb_mm` in
/// `dup_mmap`, narrowed to what changed): the write-protected spans,
/// the whole chunk where the `l1_write_protect` assist protects it, and
/// each split section, whose cached 1MB entry cannot reflect the
/// per-PTE protection that follows. A fork that protected nothing —
/// every chunk already `NEED_COPY`, nothing writable populated —
/// gathers nothing.
///
/// A fork that runs out of frames takes the half-built child down as an
/// exit would ([`teardown`]) and returns the error, with `batch`
/// holding what it protected up to there. That protection stays, as do
/// the `NEED_COPY` bits of the chunks first-shared so far, each with a
/// registry entry of one sharer: the state every other sharer's exit
/// leaves, which [`crate::Kernel::verify_share_accounting`] accepts and
/// the parent's next write repairs.
#[allow(clippy::too_many_arguments)]
pub(crate) fn dup_mm(
    parent: &mut Mm,
    ptps: &mut PtpStore,
    phys: &mut PhysMem,
    registry: &mut SharedPtpRegistry,
    stats: &mut KernelStats,
    child_pid: Pid,
    child_asid: Asid,
    config: &KernelConfig,
    batch: &mut FlushBatch,
) -> SatResult<(Mm, ForkOutcome)> {
    let sections: Vec<usize> = parent.root.iter_sections().collect();
    for idx in sections {
        let va = VirtAddr::new((idx as u32) << 20);
        Mapper::new(&mut parent.root, ptps, phys, parent.pid).split_section(va)?;
        let (size, cause) = (PageSize::Section1M, sat_obs::DemoteCause::Fork);
        note_demote(stats, parent.pid, parent.asid, va, size, cause, batch);
    }

    let mut child = Mm::new(phys, child_pid, child_asid)?;
    child.dacr = parent.dacr;
    child.is_zygote_child = parent.is_zygote_like();
    // The child's pointers to the parent's regions double as the list
    // the copies walk — they borrow the parent mutably — and are
    // installed once the loop is done with them. Chunks and regions both
    // ascend, so the regions the policy copies are walked once, beside
    // the chunks.
    let inherited = parent.fork_regions();
    let mut regions = inherited
        .iter()
        .filter(|vma| copies_ptes(config.fork_policy, vma))
        .peekable();
    let (mut ptps_shared, mut write_protect_ops) = (0, 0);
    let mut copied = ForkReport::default();
    let mut walked = Ok(());

    let mut chunks: Vec<(usize, Pfn)> = Vec::with_capacity(parent.root.ptp_count());
    chunks.extend(parent.root.iter_ptps());
    'chunks: for (pair_idx, ptp_frame) in chunks {
        let chunk = VirtAddr::new((pair_idx as u32) << 20);
        debug_assert!(chunk.is_ptp_aligned());
        let span = VaRange::from_len(chunk, PTP_SPAN);
        let entry = parent.root.entry(pair_idx);
        if entry.need_copy() || (config.share_ptp && chunk_sharable(parent, chunk, config)) {
            if !entry.need_copy() {
                write_protect_ops +=
                    first_share(parent, ptps, phys, chunk, ptp_frame, config, batch);
            }
            let domain = entry.domain().unwrap_or(Domain::USER);
            registry.share(ptp_frame, chunk, domain);
            child.root.set_table_pair(chunk, ptp_frame, domain, true);
            phys.map_inc(ptp_frame);
            ptps_shared += 1;
            continue;
        }
        while let Some(&vma) = regions.peek() {
            if vma.range.start >= span.end {
                break;
            }
            if let Some(clamped) = vma.range.intersect(&span) {
                let cow_before = copied.cow_protected;
                walked = copy_vma_ptes_in_range(
                    parent,
                    &mut child,
                    ptps,
                    phys,
                    vma,
                    span,
                    Domain::USER,
                    &mut copied,
                );
                // The copy COW-protected parent PTEs here (a failed one
                // too, up to where it stopped): any writable
                // translation cached for them is stale.
                if config.share_ptp && copied.cow_protected > cow_before {
                    let stale = VpnRange::from_va_range(&clamped);
                    batch.range(parent.asid, stale, FlushReason::Fork);
                }
                if walked.is_err() {
                    break 'chunks;
                }
            }
            // A region that reaches past the chunk stays at the head
            // for the next one.
            if vma.range.end > span.end {
                break;
            }
            regions.next();
        }
        // Host memory only: wherever the copy came out word for word,
        // the child holds the parent's groups until either side writes
        // them (`sat_mmu`'s `groups.rs`).
        if let Some(copy) = child.root.entry(pair_idx).ptp() {
            ptps.adopt_equal(copy, ptp_frame);
        }
    }
    // The walk is over; its borrow of `inherited` ends here.
    drop(regions);
    if !config.share_ptp {
        // Kept difference (ii): the stock kernel counts its COW
        // protections as write-protect ops (which `fork_cycles` prices);
        // the sharing kernel's copied chunks do not.
        write_protect_ops = copied.cow_protected;
        // Kept difference (i): the stock kernel flushes as Linux's
        // `flush_tlb_mm` does — every writable region once anything was
        // COW-protected — the sharing kernel only the spans it protected.
        if write_protect_ops > 0 {
            for vma in parent.vmas().filter(|v| v.perms.write()) {
                let span = VpnRange::from_va_range(&vma.range);
                batch.range(parent.asid, span, FlushReason::Fork);
            }
        }
    }
    if let Err(e) = walked {
        teardown(child, ptps, phys, registry);
        return Err(e);
    }

    child.adopt_regions(inherited);
    child.counters.ptps_shared_at_fork = ptps_shared;
    child.counters.ptes_copied_fork = copied.ptes_copied;
    child.counters.ptps_allocated = copied.ptps_allocated;
    if config.share_ptp && sat_obs::enabled() {
        sat_obs::emit(
            sat_obs::Subsystem::Share,
            child_pid.raw(),
            child_asid.raw(),
            sat_obs::Payload::PtpShare {
                ptps: ptps_shared,
                write_protect_ops,
            },
        );
    }
    let outcome = ForkOutcome {
        child: child_pid,
        ptes_copied: copied.ptes_copied,
        ptes_copied_file: copied.ptes_copied_file,
        ptps_allocated: copied.ptps_allocated,
        ptps_shared,
        write_protect_ops,
    };
    Ok((child, outcome))
}

#[cfg(test)]
mod tests {
    //! What the stock page-table copy must do, pinned through
    //! [`Kernel::fork`] on the stock and copied-PTEs kernels (the
    //! sharing branches are pinned in `share.rs` and `kernel.rs`).

    use sat_mmu::{PtpStore, TableHalf};
    use sat_phys::{FrameKind, PhysMem};
    use sat_types::{
        AccessType, Perms, Pid, RegionTag, SatError, VaRange, VirtAddr, PAGE_SIZE, PTP_SPAN,
    };
    use sat_vm::{smaps_rollup, FaultKind, Mm, MmapRequest};

    use crate::{Kernel, KernelConfig, NoTlb};

    const HEAP: u32 = 0x0800_0000;
    const CODE: u32 = 0x4000_0000;

    fn kernel(config: KernelConfig) -> (Kernel, Pid) {
        let mut k = Kernel::new(config, 8192);
        let pid = k.create_process().unwrap();
        (k, pid)
    }

    fn touch(k: &mut Kernel, pid: Pid, va: u32, access: AccessType) -> FaultKind {
        k.page_fault(pid, VirtAddr::new(va), access, &mut NoTlb)
            .unwrap()
            .vm
            .kind
    }

    /// Maps `pages` of anonymous heap at `start` and writes every page.
    fn add_heap(k: &mut Kernel, pid: Pid, start: u32, pages: u32) {
        let req = MmapRequest::anon(pages * PAGE_SIZE, Perms::RW, RegionTag::Heap, "[heap]")
            .at(VirtAddr::new(start));
        k.mmap(pid, &req, &mut NoTlb).unwrap();
        for i in 0..pages {
            touch(k, pid, start + i * PAGE_SIZE, AccessType::Write);
        }
    }

    /// Maps `pages` of library code at `start` and executes every page.
    fn add_code(k: &mut Kernel, pid: Pid, start: u32, pages: u32) {
        let file = k.files.register("libc.so", pages * PAGE_SIZE);
        let tag = RegionTag::ZygoteNativeCode;
        let req = MmapRequest::file(pages * PAGE_SIZE, Perms::RX, file, 0, tag, "libc.so")
            .at(VirtAddr::new(start));
        k.mmap(pid, &req, &mut NoTlb).unwrap();
        for i in 0..pages {
            touch(k, pid, start + i * PAGE_SIZE, AccessType::Execute);
        }
    }

    /// After a fork, parent and child both map each private page: a
    /// frame mapped more than once must not be writable through a
    /// private mapping.
    fn assert_cow_invariants(mm: &Mm, ptps: &PtpStore, phys: &PhysMem, range: VaRange) {
        for page in range.pages() {
            let slot = match mm
                .root
                .entry_for(page)
                .ptp()
                .and_then(|f| ptps.get(f))
                .and_then(|t| t.get(TableHalf::of(page), page.l2_index()))
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

    #[test]
    fn stock_fork_copies_anon_skips_file() {
        let (mut k, parent) = kernel(KernelConfig::stock());
        add_heap(&mut k, parent, HEAP, 4);
        add_code(&mut k, parent, CODE, 4);
        let f = k.fork(parent).unwrap();
        assert_eq!(f.ptes_copied, 4); // heap only
        assert_eq!(f.ptes_copied_file, 0);
        assert_eq!(f.write_protect_ops, 4); // COW, counted on this kernel
        assert_eq!(f.ptps_allocated, 1);
        assert_eq!(f.ptps_shared, 0);
        // Both regions are inherited, the heap's PTEs with them; the
        // code refaults.
        let child = k.mm(f.child).unwrap();
        assert_eq!(child.vma_count(), 2);
        assert_eq!(child.counters.ptes_copied_fork, 4);
        assert_eq!(child.counters.ptps_allocated, 1);
        assert!(k.pte(parent, VirtAddr::new(HEAP)).unwrap().is_some());
        assert!(k.pte(f.child, VirtAddr::new(HEAP)).unwrap().is_some());
        assert!(k.pte(f.child, VirtAddr::new(CODE)).unwrap().is_none());
    }

    #[test]
    fn copy_all_policy_copies_file_backed_too() {
        let (mut k, parent) = kernel(KernelConfig::copied_ptes());
        add_code(&mut k, parent, CODE, 4);
        let f = k.fork(parent).unwrap();
        assert_eq!((f.ptes_copied, f.ptes_copied_file), (4, 4));
        assert_eq!(f.write_protect_ops, 0); // code is not writable
        assert!(k.pte(f.child, VirtAddr::new(CODE)).unwrap().is_some());
    }

    #[test]
    fn cow_protects_both_parent_and_child() {
        let (mut k, parent) = kernel(KernelConfig::stock());
        add_heap(&mut k, parent, HEAP, 1);
        let child = k.fork(parent).unwrap().child;
        let va = VirtAddr::new(HEAP);
        let parent_pte = k.pte(parent, va).unwrap().unwrap();
        let child_pte = k.pte(child, va).unwrap().unwrap();
        assert!(!parent_pte.hw.perms.write());
        assert!(!child_pte.hw.perms.write());
        assert_eq!(parent_pte.hw.pfn, child_pte.hw.pfn); // same frame
        assert_eq!(k.phys.mapcount(parent_pte.hw.pfn), 2);
        for pid in [parent, child] {
            let page = VaRange::from_len(va, PAGE_SIZE);
            assert_cow_invariants(k.mm(pid).unwrap(), &k.ptps, &k.phys, page);
        }
    }

    #[test]
    fn write_after_fork_triggers_cow_copy() {
        let (mut k, parent) = kernel(KernelConfig::stock());
        add_heap(&mut k, parent, HEAP, 1);
        let child = k.fork(parent).unwrap().child;
        let va = VirtAddr::new(HEAP);
        // Child writes: gets its own copy.
        assert_eq!(
            touch(&mut k, child, HEAP, AccessType::Write),
            FaultKind::Cow
        );
        let child_pfn = k.pte(child, va).unwrap().unwrap().hw.pfn;
        let parent_pfn = k.pte(parent, va).unwrap().unwrap().hw.pfn;
        assert_ne!(child_pfn, parent_pfn);
        // Parent now writes: sole mapper again, so write is re-enabled
        // without copying.
        assert_eq!(
            touch(&mut k, parent, HEAP, AccessType::Write),
            FaultKind::WriteEnable
        );
    }

    #[test]
    fn fork_that_runs_out_of_frames_takes_the_child_down() {
        // Heap pages in three 2MB chunks: a fork needs four root frames
        // and three tables. Leave room for the root and 0, 1 or 2
        // tables, so the copy fails with that many tables — and their
        // PTEs' references and reverse-map entries — already in place.
        for tables_that_fit in 0..3 {
            let (mut k, parent) = kernel(KernelConfig::stock());
            for chunk in 0..3 {
                add_heap(&mut k, parent, HEAP + chunk * PTP_SPAN, 1);
            }
            let free = k.phys.frame_count() as u64 - k.phys.frames_in_use();
            let spare = free - (4 + tables_that_fit);
            let hoard: Vec<_> = (0..spare)
                .map(|_| k.phys.alloc(FrameKind::Anon).unwrap())
                .collect();
            let before = (k.phys.frames_in_use(), k.phys.rmap_total(), k.ptps.len());
            assert_eq!(k.fork(parent).err(), Some(SatError::OutOfMemory));
            assert_eq!(
                (k.phys.frames_in_use(), k.phys.rmap_total(), k.ptps.len()),
                before,
                "{tables_that_fit} tables fit"
            );
            assert_eq!(k.process_count(), 1);
            k.phys.rmap_verify().unwrap();
            // With room again the same fork goes through.
            for frame in hoard {
                k.phys.put_page(frame);
            }
            let f = k.fork(parent).unwrap();
            assert_eq!((f.ptes_copied, f.ptps_allocated), (3, 3));
            k.phys.rmap_verify().unwrap();
        }
    }

    #[test]
    fn grandchild_fork_inherits_zygote_child_flag() {
        let (mut k, zygote) = kernel(KernelConfig::stock());
        k.exec_zygote(zygote).unwrap();
        let child = k.fork(zygote).unwrap().child;
        assert!(k.mm(child).unwrap().is_zygote_child);
        assert!(!k.mm(child).unwrap().is_zygote);
        let grandchild = k.fork(child).unwrap().child;
        assert!(k.mm(grandchild).unwrap().is_zygote_child);
    }

    #[test]
    fn stock_fork_doubles_pagetable_pss_shared_fork_does_not() {
        for (config, table_pss) in [
            // Stock: parent and child each have a whole private PTP.
            (KernelConfig::stock(), u64::from(PAGE_SIZE)),
            // Shared: one PTP, each sharer charged half of it.
            (KernelConfig::shared_ptp(), u64::from(PAGE_SIZE) / 2),
        ] {
            let (mut k, parent) = kernel(config);
            add_heap(&mut k, parent, HEAP, 4);
            let child = k.fork(parent).unwrap().child;
            let p = smaps_rollup(k.mm(parent).unwrap(), &k.ptps, &k.phys);
            let c = smaps_rollup(k.mm(child).unwrap(), &k.ptps, &k.phys);
            assert_eq!(p.page_table_pss, table_pss);
            assert_eq!(c.page_table_pss, table_pss);
            // Data PSS halves either way: the pages are COW-shared
            // between the two.
            assert_eq!(p.pss, 4 * u64::from(PAGE_SIZE) / 2);
        }
    }
}
