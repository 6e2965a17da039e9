//! PTP sharing and unsharing: Sections 3.1.1 and 3.1.2 of the paper.

use sat_mmu::{Mapper, PtpStore, TableHalf};
use sat_phys::{FrameKind, PhysMem};
use sat_types::{Domain, Pfn, Pid, SatError, SatResult, VaRange, VirtAddr, VpnRange, PTP_SPAN};
use sat_vm::{exit_mmap, Mm};

use crate::config::{CopyOnUnshare, KernelConfig};
use crate::flush::FlushBatch;
use crate::registry::SharedPtpRegistry;

/// Why an unshare was performed — the five cases of Section 3.1.2.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum UnshareTrigger {
    /// Case 1: a write page fault inside the shared PTP's range.
    WriteFault,
    /// Case 2: a region in the range was modified by a system call
    /// (`mmap`/`munmap`/`mprotect`).
    RegionOp,
    /// Case 3: a new region was allocated in the range (eager unshare
    /// — the paper rejects the lazy alternative as too complex).
    NewRegion,
    /// Case 4: a region in the range was freed.
    RegionFree,
    /// Case 5: process termination frees the PTP.
    Exit,
}

impl UnshareTrigger {
    /// The observability-layer mirror of this trigger (`sat-obs` sits
    /// below `sat-core` in the dependency graph, so the enum is
    /// duplicated there rather than imported here).
    pub fn cause(self) -> sat_obs::UnshareCause {
        match self {
            UnshareTrigger::WriteFault => sat_obs::UnshareCause::WriteFault,
            UnshareTrigger::RegionOp => sat_obs::UnshareCause::RegionOp,
            UnshareTrigger::NewRegion => sat_obs::UnshareCause::NewRegion,
            UnshareTrigger::RegionFree => sat_obs::UnshareCause::RegionFree,
            UnshareTrigger::Exit => sat_obs::UnshareCause::Exit,
        }
    }
}

/// Reports one PTP unshare to the observability layer.
fn emit_unshare(mm: &Mm, chunk: VirtAddr, trigger: UnshareTrigger, report: &UnshareReport) {
    if sat_obs::enabled() {
        sat_obs::emit(
            sat_obs::Subsystem::Share,
            mm.pid.raw(),
            mm.asid.raw(),
            sat_obs::Payload::PtpUnshare {
                cause: trigger.cause(),
                ptes_copied: report.ptes_copied,
                last_sharer: report.last_sharer,
                va: chunk.raw(),
            },
        );
    }
}

/// Result of one [`unshare`] call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UnshareReport {
    /// The caller was the last sharer: only NEED_COPY was cleared.
    pub last_sharer: bool,
    /// PTEs copied into the new private PTP.
    pub ptes_copied: u64,
}

/// Returns `true` if the 2MB chunk at `chunk` (all regions
/// overlapping it) is eligible for PTP sharing.
///
/// The paper shares aggressively — private and writable regions are
/// sharable (page-table copying is postponed to first modification) —
/// but excludes stacks by design choice, since they are written
/// immediately after the child is scheduled.
pub fn chunk_sharable(mm: &Mm, chunk: VirtAddr, config: &KernelConfig) -> bool {
    debug_assert!(chunk.is_ptp_aligned());
    let span = VaRange::from_len(chunk, PTP_SPAN);
    mm.vmas_overlapping(span)
        .all(|vma| config.share_stack || !vma.dont_share_ptp)
}

/// Tears `mm` down: its shared-PTP references leave the registry
/// (case 5: an exiting address space dereferences without copying, so
/// this is a detach, not an unshare), then its tables, their mappings
/// and its root are released. This is what `exit` does to a process
/// and what a fork that ran out of frames does to its half-built child.
pub(crate) fn teardown(
    mut mm: Mm,
    ptps: &mut PtpStore,
    phys: &mut PhysMem,
    registry: &mut SharedPtpRegistry,
) {
    for (idx, frame) in mm.root.iter_ptps() {
        if mm.root.entry(idx).need_copy() {
            registry.exit_detach(frame);
        }
    }
    exit_mmap(&mut mm, ptps, phys);
    mm.free_root(phys);
}

/// The first share of the PTP at `ptp_frame`, which translates
/// `parent`'s sharable `chunk` (Section 3.1.1, step 1): every writable
/// PTE in it is write-protected — establishing COW for the data pages
/// — and the parent's level-1 pair is marked `NEED_COPY`. Returns the
/// PTEs write-protected; their spans are gathered into `batch`, cached
/// writable translations for them being stale from here on. Later
/// forks find `NEED_COPY` set and owe none of this (see
/// [`crate::registry`]).
pub(crate) fn first_share(
    parent: &mut Mm,
    ptps: &mut PtpStore,
    phys: &mut PhysMem,
    chunk: VirtAddr,
    ptp_frame: Pfn,
    config: &KernelConfig,
    batch: &mut FlushBatch,
) -> u64 {
    let span = VaRange::from_len(chunk, PTP_SPAN);
    let mut write_protect_ops = 0;
    // (With the hypothetical level-1 write-protect hardware assist,
    // the per-PTE pass is unnecessary — the cost the paper attributes
    // to ARM's lack of it.)
    if !config.l1_write_protect {
        let vma_ranges: Vec<VaRange> = parent
            .vmas_overlapping(span)
            .filter(|v| v.perms.write())
            .filter_map(|v| v.range.intersect(&span))
            .collect();
        let mut mapper = Mapper::new(&mut parent.root, ptps, phys, parent.pid);
        for r in vma_ranges {
            let protected = mapper.write_protect_range(r) as u64;
            write_protect_ops += protected;
            if protected > 0 {
                batch.range(
                    parent.asid,
                    VpnRange::from_va_range(&r),
                    sat_obs::FlushReason::Fork,
                );
            }
        }
    } else {
        // The assist demotes the whole chunk at walk time; anything
        // cached writable for it is now stale.
        batch.range(
            parent.asid,
            VpnRange::from_va_range(&span),
            sat_obs::FlushReason::Fork,
        );
    }
    // Age the referenced bits: the child has touched nothing yet, and
    // on ARM the "referenced" bit is software-maintained anyway. This
    // is what gives the copy-only-referenced unshare policy (Section
    // 3.1.3) something to distinguish: only PTEs used since the share
    // are copied.
    if let Some(table) = ptps.get_mut(ptp_frame) {
        for half in [TableHalf::Lower, TableHalf::Upper] {
            let idxs: Vec<usize> = table.iter_half(half).map(|(i, _)| i).collect();
            for i in idxs {
                table.update_sw(half, i, |sw| sw.young = false);
            }
        }
    }
    parent.root.set_need_copy(chunk, true);
    // The PTP's PTEs now serve every sharer: reclaim tears each
    // physical PTE once, through the shared path.
    reown_table(ptps, phys, chunk, ptp_frame, parent.pid, Pid::SHARED_TABLE);
    write_protect_ops
}

/// Moves the reverse-map entry of every data PTE in the table at
/// `ptp_frame` (translating `chunk`) from owner `from` to owner `to`:
/// what keeps the filed owner exact at the two places `NEED_COPY` flips
/// on a live table — [`first_share`] (pid → [`Pid::SHARED_TABLE`]) and
/// the last-sharer branch of [`unshare`] (back to that sharer's pid).
fn reown_table(
    ptps: &PtpStore,
    phys: &mut PhysMem,
    chunk: VirtAddr,
    ptp_frame: Pfn,
    from: Pid,
    to: Pid,
) {
    let Some(table) = ptps.get(ptp_frame) else {
        return;
    };
    for (half, idx, slot) in table.iter() {
        let frame = slot.hw.frame_for_slot(idx);
        if matches!(
            phys.page(frame).kind,
            FrameKind::Anon | FrameKind::File { .. }
        ) {
            phys.rmap_reown(frame, from, to, Mapper::slot_va(chunk, half, idx));
        }
    }
}

/// Unshares the PTP covering `va` in `mm`, if it is marked
/// `NEED_COPY` (the Figure 6 procedure). Returns `None` when the
/// chunk is not shared.
///
/// The last-sharer decision and the cause attribution both come from
/// the registry: [`SharedPtpRegistry::sharers`] says whether the caller
/// is the last sharer, and [`SharedPtpRegistry::detach`] decrements the
/// entry's refcount and records the Figure-6 trigger. The last sharer
/// only has its `NEED_COPY` flag cleared. Otherwise: a new PTP is
/// allocated, the level-1 pair is cleared, and the valid PTEs are
/// copied into it (all of them, or only referenced ones, per
/// `config.copy_on_unshare`).
///
/// The allocation is the one step that can fail, and it comes before
/// anything is changed: `OutOfMemory` leaves the chunk shared, the
/// registry and every counter untouched and `batch` as it was, so the
/// caller can make room and retry.
///
/// TLB maintenance is *gathered* into `batch`, not issued: the copied
/// PTEs are normally bit-identical to the shared originals, so cached
/// translations stay valid and a write-fault unshare owes only the
/// faulting page. Only when the private copy diverges (PTEs dropped
/// by `ReferencedOnly`, or write-stripped under `l1_write_protect`)
/// is the whole chunk span gathered — wide enough that the batch
/// escalates it to a per-ASID flush. Region-op triggers gather
/// nothing here; the caller's own range op covers the operated pages.
#[allow(clippy::too_many_arguments)]
pub fn unshare(
    mm: &mut Mm,
    ptps: &mut PtpStore,
    phys: &mut PhysMem,
    registry: &mut SharedPtpRegistry,
    va: VirtAddr,
    config: &KernelConfig,
    batch: &mut FlushBatch,
    trigger: UnshareTrigger,
) -> SatResult<Option<UnshareReport>> {
    let chunk = va.ptp_base();
    let entry = mm.root.entry_for(chunk);
    if !entry.need_copy() {
        return Ok(None);
    }
    let shared_frame = entry.ptp().expect("NEED_COPY implies a table entry");
    let domain = entry.domain().unwrap_or(Domain::USER);
    let span = VaRange::from_len(chunk, PTP_SPAN);

    debug_assert_eq!(
        registry.sharers(shared_frame),
        Some(phys.mapcount(shared_frame)),
        "registry sharer count out of sync with frame mapcount"
    );
    // Everything that can fail comes first: an unshare that finds no
    // frame for the private copy returns with the process, the registry
    // and the counters exactly as they were.
    let last_sharer = registry.sharers(shared_frame) == Some(1);
    let new_frame = if last_sharer {
        None
    } else {
        Some(phys.alloc(FrameKind::PageTable)?)
    };

    mm.counters.ptps_unshared += 1;
    if !matches!(trigger, UnshareTrigger::WriteFault) {
        mm.counters.unshares_by_region_op += 1;
    }
    registry.detach(shared_frame, trigger);
    let Some(new_frame) = new_frame else {
        // Last sharer: clear NEED_COPY in place. The table is private
        // from here on, so its PTEs' entries come back to this pid.
        mm.root.set_need_copy(chunk, false);
        reown_table(ptps, phys, chunk, shared_frame, Pid::SHARED_TABLE, mm.pid);
        if config.l1_write_protect {
            // Ablation fix-up: without the share-time write-protect
            // pass, data frames that other (now departed or unshared)
            // processes still map must be COW-protected before this
            // process regains direct write access — and any cached
            // translations for the chunk (writable entries loaded
            // before the fork, or entries write-stripped by the L1
            // protection) must be evicted so the new permissions take
            // effect.
            protect_multiply_mapped(mm, ptps, phys, chunk);
            batch.range(
                mm.asid,
                VpnRange::from_va_range(&span),
                sat_obs::FlushReason::Unshare,
            );
        }
        let report = UnshareReport {
            last_sharer: true,
            ptes_copied: 0,
        };
        emit_unshare(mm, chunk, trigger, &report);
        return Ok(Some(report));
    };

    // Clear our level-1 pair; the TLB maintenance the copy owes is
    // decided below, once we know whether the copy diverges.
    mm.root.clear_table_pair(chunk);

    // Populate the private copy: the shared table's words, less what
    // the policy drops or rewrites below. On the host the copy starts
    // as pointers to the shared table's groups, and only a group it
    // rewrites is copied (`sat_mmu`'s `groups.rs`).
    let shared = ptps
        .get(shared_frame)
        .ok_or(SatError::Internal("shared PTP missing from store"))?;
    let mut copy = shared.clone();
    let mut copied = 0u64;
    let mut diverged = false;
    for (half, idx, slot) in shared.iter() {
        let keep = match config.copy_on_unshare {
            CopyOnUnshare::All => true,
            // The paper's cheaper alternative: "only copying the PTEs
            // that have their reference bit set or would have been
            // copied with the stock Android kernel at fork time".
            // Anonymous pages (including COW'd data) exist only in
            // their frames — dropping their PTEs would lose data — so
            // only *file-backed* PTEs, which refault from the page
            // cache, may be skipped.
            CopyOnUnshare::ReferencedOnly => slot.sw.young || !slot.sw.file_backed,
        };
        if !keep {
            // A dropped PTE must not keep serving from the TLB.
            copy.clear(half, idx);
            diverged = true;
            continue;
        }
        if config.l1_write_protect && slot.hw.perms.write() && !slot.sw.shared {
            // Ablation fix-up (see above): the copy maps frames still
            // mapped by the shared PTP, so private-writable entries
            // must be COW-protected.
            copy.replace_hw(half, idx, slot.hw.write_protected());
            diverged = true;
        }
        copied += 1;
    }
    if diverged {
        batch.range(
            mm.asid,
            VpnRange::from_va_range(&span),
            sat_obs::FlushReason::Unshare,
        );
    } else if matches!(trigger, UnshareTrigger::WriteFault) {
        // Identical copy: only the faulting page's translation is
        // about to change (the COW repair that follows).
        batch.page(mm.asid, va.vpn(), sat_obs::FlushReason::Unshare);
    }
    // The copied PTEs are new mappings of their frames (slot-aware:
    // each replicated 64KB descriptor references its own 4KB frame of
    // the group, matching the teardown accounting). The copy is
    // installed without NEED_COPY, so by the ownership rule each entry
    // is filed under `mm`'s pid (the shared originals stay under
    // `Pid::SHARED_TABLE`).
    for (half, idx, slot) in copy.iter() {
        let frame = slot.hw.frame_for_slot(idx);
        phys.get_page(frame);
        phys.map_inc(frame);
        if matches!(
            phys.page(frame).kind,
            FrameKind::Anon | FrameKind::File { .. }
        ) {
            phys.rmap_add(frame, mm.pid, Mapper::slot_va(chunk, half, idx));
        }
    }
    ptps.insert_clone(new_frame, copy);
    phys.map_inc(new_frame);
    phys.map_dec(shared_frame);
    mm.root.set_table_pair(chunk, new_frame, domain, false);

    mm.counters.ptes_copied_unshare += copied;
    mm.counters.ptps_allocated += 1;
    let report = UnshareReport {
        last_sharer: false,
        ptes_copied: copied,
    };
    emit_unshare(mm, chunk, trigger, &report);
    Ok(Some(report))
}

/// Unshares every shared PTP whose chunk overlaps `range` (the
/// multi-PTP case of Section 3.1.2's system-call trigger). Returns the
/// number of PTPs unshared.
#[allow(clippy::too_many_arguments)]
pub fn unshare_range(
    mm: &mut Mm,
    ptps: &mut PtpStore,
    phys: &mut PhysMem,
    registry: &mut SharedPtpRegistry,
    range: VaRange,
    config: &KernelConfig,
    batch: &mut FlushBatch,
    trigger: UnshareTrigger,
) -> SatResult<usize> {
    let mut count = 0;
    for chunk in range.ptps() {
        if unshare(mm, ptps, phys, registry, chunk, config, batch, trigger)?.is_some() {
            count += 1;
        }
    }
    Ok(count)
}

/// Write-protects private-writable PTEs in `chunk` whose frames are
/// mapped more than once (support for the `l1_write_protect`
/// ablation's last-sharer path).
fn protect_multiply_mapped(mm: &mut Mm, ptps: &mut PtpStore, phys: &mut PhysMem, chunk: VirtAddr) {
    let Some(frame) = mm.root.entry_for(chunk).ptp() else {
        return;
    };
    let Some(table) = ptps.get_mut(frame) else {
        return;
    };
    for half in [TableHalf::Lower, TableHalf::Upper] {
        let targets: Vec<(usize, sat_mmu::HwPte)> = table
            .iter_half(half)
            .filter(|(_, s)| s.hw.perms.write() && !s.sw.shared && phys.mapcount(s.hw.pfn) > 1)
            .map(|(i, s)| (i, s.hw.write_protected()))
            .collect();
        for (idx, hw) in targets {
            table.replace_hw(half, idx, hw);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fork::{dup_mm, ForkOutcome};
    use crate::KernelStats;
    use sat_phys::FileId;
    use sat_types::{AccessType, Asid, Perms, RegionTag, PAGE_SIZE};
    use sat_vm::{handle_fault, FaultCtx, MmapRequest};

    /// A throwaway gather for tests that don't assert on flushes.
    fn batch() -> FlushBatch {
        FlushBatch::new(Pid::new(1), Asid::new(1))
    }

    struct Fx {
        phys: PhysMem,
        ptps: PtpStore,
        reg: SharedPtpRegistry,
        mm: Mm,
    }

    fn fx() -> Fx {
        let mut phys = PhysMem::new(16384);
        let mm = Mm::new(&mut phys, Pid::new(1), Asid::new(1)).unwrap();
        Fx {
            phys,
            ptps: PtpStore::new(),
            reg: SharedPtpRegistry::new(),
            mm,
        }
    }

    fn touch(mm: &mut Mm, ptps: &mut PtpStore, phys: &mut PhysMem, va: u32, access: AccessType) {
        handle_fault(
            mm,
            ptps,
            phys,
            VirtAddr::new(va),
            access,
            FaultCtx::default(),
        )
        .unwrap();
    }

    /// Maps 4 pages of library code at 0x4000_0000 and touches them.
    fn setup_code(f: &mut Fx) {
        let req = MmapRequest::file(
            4 * PAGE_SIZE,
            Perms::RX,
            FileId(0),
            0,
            RegionTag::ZygoteNativeCode,
            "libc.so",
        )
        .at(VirtAddr::new(0x4000_0000));
        sat_vm::mmap(&mut f.mm, &req).unwrap();
        for i in 0..4 {
            touch(
                &mut f.mm,
                &mut f.ptps,
                &mut f.phys,
                0x4000_0000 + i * PAGE_SIZE,
                AccessType::Execute,
            );
        }
    }

    /// Maps 2 heap pages at 0x4010_0000 (same 2MB chunk as the code)
    /// and writes them.
    fn setup_heap_same_chunk(f: &mut Fx) {
        let req = MmapRequest::anon(2 * PAGE_SIZE, Perms::RW, RegionTag::Heap, "[heap]")
            .at(VirtAddr::new(0x4010_0000));
        sat_vm::mmap(&mut f.mm, &req).unwrap();
        for i in 0..2 {
            touch(
                &mut f.mm,
                &mut f.ptps,
                &mut f.phys,
                0x4010_0000 + i * PAGE_SIZE,
                AccessType::Write,
            );
        }
    }

    fn share_fork(f: &mut Fx, pid: u32) -> (Mm, ForkOutcome) {
        share_fork_under(f, pid, &KernelConfig::shared_ptp())
    }

    fn share_fork_under(f: &mut Fx, pid: u32, config: &KernelConfig) -> (Mm, ForkOutcome) {
        dup_mm(
            &mut f.mm,
            &mut f.ptps,
            &mut f.phys,
            &mut f.reg,
            &mut KernelStats::default(),
            Pid::new(pid),
            Asid::new(pid as u8),
            config,
            &mut batch(),
        )
        .unwrap()
    }

    #[test]
    fn fork_shares_ptp_and_sets_need_copy() {
        let mut f = fx();
        setup_code(&mut f);
        assert_eq!(f.ptps.len(), 1);
        let (child, report) = share_fork(&mut f, 2);
        assert_eq!(report.ptps_shared, 1);
        assert_eq!(report.ptes_copied, 0);
        assert_eq!(report.ptps_allocated, 0);
        assert_eq!(f.ptps.len(), 1); // still one PTP, now shared
        let chunk = VirtAddr::new(0x4000_0000);
        assert!(f.mm.root.entry_for(chunk).need_copy());
        assert!(child.root.entry_for(chunk).need_copy());
        assert_eq!(
            f.mm.root.entry_for(chunk).ptp(),
            child.root.entry_for(chunk).ptp()
        );
        assert_eq!(
            f.phys.mapcount(f.mm.root.entry_for(chunk).ptp().unwrap()),
            2
        );
    }

    #[test]
    fn share_write_protects_writable_ptes() {
        let mut f = fx();
        setup_code(&mut f);
        setup_heap_same_chunk(&mut f);
        let (_, report) = share_fork(&mut f, 2);
        assert_eq!(report.write_protect_ops, 2); // the two heap pages
        let mapper = Mapper::new(&mut f.mm.root, &mut f.ptps, &mut f.phys, Pid::new(1));
        assert!(!mapper
            .get_pte(VirtAddr::new(0x4010_0000))
            .unwrap()
            .hw
            .perms
            .write());
        // Code PTEs were never writable: untouched.
        assert_eq!(
            mapper.get_pte(VirtAddr::new(0x4000_0000)).unwrap().hw.perms,
            Perms::RX
        );
    }

    #[test]
    fn second_fork_reuses_shared_ptp_without_reprotecting() {
        let mut f = fx();
        setup_code(&mut f);
        setup_heap_same_chunk(&mut f);
        let (_c1, r1) = share_fork(&mut f, 2);
        let (_c2, r2) = share_fork(&mut f, 3);
        assert_eq!(r1.write_protect_ops, 2);
        assert_eq!(r2.write_protect_ops, 0); // NEED_COPY already set
        let ptp =
            f.mm.root
                .entry_for(VirtAddr::new(0x4000_0000))
                .ptp()
                .unwrap();
        assert_eq!(f.phys.mapcount(ptp), 3);
    }

    #[test]
    fn stack_chunk_is_copied_not_shared() {
        let mut f = fx();
        setup_code(&mut f);
        // A stack in its own chunk.
        let req = MmapRequest::anon(4 * PAGE_SIZE, Perms::RW, RegionTag::Stack, "[stack]")
            .at(VirtAddr::new(0xBF00_0000));
        sat_vm::mmap(&mut f.mm, &req).unwrap();
        for i in 0..2 {
            touch(
                &mut f.mm,
                &mut f.ptps,
                &mut f.phys,
                0xBF00_0000 + i * PAGE_SIZE,
                AccessType::Write,
            );
        }
        let (mut child, report) = share_fork(&mut f, 2);
        assert_eq!(report.ptps_shared, 1); // code chunk
        assert_eq!(report.ptes_copied, 2); // stack PTEs
        assert_eq!(report.ptps_allocated, 1); // child's private stack PTP
        assert!(!child.root.entry_for(VirtAddr::new(0xBF00_0000)).need_copy());
        let cm = Mapper::new(&mut child.root, &mut f.ptps, &mut f.phys, Pid::new(2));
        assert!(cm.get_pte(VirtAddr::new(0xBF00_0000)).is_some());
    }

    #[test]
    fn share_stack_ablation_shares_stack_chunk() {
        let mut f = fx();
        let req = MmapRequest::anon(4 * PAGE_SIZE, Perms::RW, RegionTag::Stack, "[stack]")
            .at(VirtAddr::new(0xBF00_0000));
        sat_vm::mmap(&mut f.mm, &req).unwrap();
        touch(
            &mut f.mm,
            &mut f.ptps,
            &mut f.phys,
            0xBF00_0000,
            AccessType::Write,
        );
        let config = KernelConfig {
            share_stack: true,
            ..KernelConfig::shared_ptp()
        };
        let (_child, report) = share_fork_under(&mut f, 2, &config);
        assert_eq!(report.ptps_shared, 1);
        assert_eq!(report.ptes_copied, 0);
    }

    #[test]
    fn pte_populated_in_shared_ptp_is_visible_to_all_sharers() {
        // The paper's key soft-fault elimination: a PTE created by one
        // process in a shared PTP is immediately visible to all.
        let mut f = fx();
        setup_code(&mut f);
        let (mut child, _) = share_fork(&mut f, 2);
        // The child faults a page the parent never touched... but the
        // PTP is shared, so first unshare must NOT happen for a read:
        // the PTE is simply populated in the shared PTP.
        // (The kernel wrapper performs population via handle_fault; a
        // read fault does not trigger unsharing.)
        // Simulate: populate directly through the child.
        // NOTE: handle_fault asserts !need_copy for set_pte via the
        // Mapper only on *write* paths... a read fault on a file page
        // inserts a PTE. The paper allows this: "When a page fault on
        // a read access occurs ... the corresponding PTE in the shared
        // PTP is populated."
        let va = VirtAddr::new(0x4000_4000);
        let req = MmapRequest::file(
            PAGE_SIZE,
            Perms::RX,
            FileId(0),
            100,
            RegionTag::ZygoteNativeCode,
            "libc.so",
        )
        .at(va);
        // Map the extra page in BOTH (pre-fork layout would have had
        // it; add to each to keep VMAs identical).
        sat_vm::mmap(&mut f.mm, &req).unwrap();
        sat_vm::mmap(&mut child, &req).unwrap();
        // Child faults it read-only; allowed to fill the shared PTP.
        handle_fault(
            &mut child,
            &mut f.ptps,
            &mut f.phys,
            va,
            AccessType::Execute,
            FaultCtx::default(),
        )
        .unwrap();
        // The parent now sees the PTE without any fault.
        let pm = Mapper::new(&mut f.mm.root, &mut f.ptps, &mut f.phys, Pid::new(1));
        assert!(pm.get_pte(va).is_some());
    }

    #[test]
    fn unshare_last_sharer_clears_need_copy_only() {
        let mut f = fx();
        setup_code(&mut f);
        let (child, _) = share_fork(&mut f, 2);
        // Child exits: sharer count drops back to 1.
        let chunk = VirtAddr::new(0x4000_0000);
        let ptp = child.root.entry_for(chunk).ptp().unwrap();
        {
            let mut child = child;
            sat_vm::exit_mmap(&mut child, &mut f.ptps, &mut f.phys);
            child.free_root(&mut f.phys);
            // What Kernel::exit does for every NEED_COPY pair.
            f.reg.exit_detach(ptp);
        }
        assert_eq!(f.phys.mapcount(ptp), 1);
        assert_eq!(f.reg.sharers(ptp), Some(1));
        // Parent still has NEED_COPY; an unshare is now the cheap path.
        let r = unshare(
            &mut f.mm,
            &mut f.ptps,
            &mut f.phys,
            &mut f.reg,
            VirtAddr::new(0x4000_1234),
            &KernelConfig::shared_ptp(),
            &mut batch(),
            UnshareTrigger::WriteFault,
        )
        .unwrap()
        .unwrap();
        assert!(r.last_sharer);
        assert_eq!(r.ptes_copied, 0);
        assert!(!f.mm.root.entry_for(chunk).need_copy());
        assert_eq!(f.mm.root.entry_for(chunk).ptp(), Some(ptp)); // same PTP kept
        assert!(f.reg.is_empty(), "last-sharer unshare must drop the entry");
    }

    #[test]
    fn unshare_with_sharers_copies_ptes_to_new_ptp() {
        let mut f = fx();
        setup_code(&mut f);
        let (mut child, _) = share_fork(&mut f, 2);
        let chunk = VirtAddr::new(0x4000_0000);
        let shared_ptp = f.mm.root.entry_for(chunk).ptp().unwrap();
        let r = unshare(
            &mut child,
            &mut f.ptps,
            &mut f.phys,
            &mut f.reg,
            VirtAddr::new(0x4000_2000),
            &KernelConfig::shared_ptp(),
            &mut batch(),
            UnshareTrigger::WriteFault,
        )
        .unwrap()
        .unwrap();
        assert!(!r.last_sharer);
        assert_eq!(r.ptes_copied, 4);
        let new_ptp = child.root.entry_for(chunk).ptp().unwrap();
        assert_ne!(new_ptp, shared_ptp);
        assert!(!child.root.entry_for(chunk).need_copy());
        // Parent keeps the original, still marked shared until it
        // modifies it.
        assert_eq!(f.mm.root.entry_for(chunk).ptp(), Some(shared_ptp));
        assert!(f.mm.root.entry_for(chunk).need_copy());
        assert_eq!(f.phys.mapcount(shared_ptp), 1);
        // Data frames now have two PTE mappings each.
        let cm = Mapper::new(&mut child.root, &mut f.ptps, &mut f.phys, Pid::new(2));
        let pfn = cm.get_pte(chunk).unwrap().hw.pfn;
        assert_eq!(f.phys.mapcount(pfn), 2);
        assert_eq!(child.counters.ptes_copied_unshare, 4);
        assert_eq!(child.counters.ptps_unshared, 1);
    }

    #[test]
    fn unshare_not_shared_is_noop() {
        let mut f = fx();
        setup_code(&mut f);
        let r = unshare(
            &mut f.mm,
            &mut f.ptps,
            &mut f.phys,
            &mut f.reg,
            VirtAddr::new(0x4000_0000),
            &KernelConfig::shared_ptp(),
            &mut batch(),
            UnshareTrigger::WriteFault,
        )
        .unwrap();
        assert!(r.is_none());
        assert_eq!(f.mm.counters.ptps_unshared, 0);
    }

    #[test]
    fn unshare_referenced_only_skips_cold_ptes() {
        let mut f = fx();
        setup_code(&mut f);
        let (mut child, _) = share_fork(&mut f, 2);
        // Sharing aged every referenced bit; the child re-touches two
        // of the four pages, marking only those young again. (Young
        // bits are metadata the access-bit emulation updates in place,
        // even in a shared PTP.)
        let frame = child
            .root
            .entry_for(VirtAddr::new(0x4000_0000))
            .ptp()
            .unwrap();
        for i in [0usize, 2] {
            let va = VirtAddr::new(0x4000_0000 + (i as u32) * PAGE_SIZE);
            let table = f.ptps.get_mut(frame).unwrap();
            assert!(
                table.update_sw(sat_mmu::TableHalf::of(va), va.l2_index(), |sw| {
                    sw.young = true;
                })
            );
        }
        let config = KernelConfig {
            copy_on_unshare: CopyOnUnshare::ReferencedOnly,
            ..KernelConfig::shared_ptp()
        };
        let r = unshare(
            &mut child,
            &mut f.ptps,
            &mut f.phys,
            &mut f.reg,
            VirtAddr::new(0x4000_0000),
            &config,
            &mut batch(),
            UnshareTrigger::WriteFault,
        )
        .unwrap()
        .unwrap();
        assert_eq!(r.ptes_copied, 2);
        let cm = Mapper::new(&mut child.root, &mut f.ptps, &mut f.phys, Pid::new(2));
        assert!(cm.get_pte(VirtAddr::new(0x4000_0000)).is_some());
        assert!(cm.get_pte(VirtAddr::new(0x4000_1000)).is_none()); // refaults later
    }

    #[test]
    fn unshare_range_handles_multiple_chunks() {
        let mut f = fx();
        // Two chunks of code.
        for (base, file_off) in [(0x4000_0000u32, 0u32), (0x4020_0000, 50)] {
            let req = MmapRequest::file(
                2 * PAGE_SIZE,
                Perms::RX,
                FileId(0),
                file_off,
                RegionTag::ZygoteNativeCode,
                "libbig.so",
            )
            .at(VirtAddr::new(base));
            sat_vm::mmap(&mut f.mm, &req).unwrap();
            touch(
                &mut f.mm,
                &mut f.ptps,
                &mut f.phys,
                base,
                AccessType::Execute,
            );
        }
        let (mut child, report) = share_fork(&mut f, 2);
        assert_eq!(report.ptps_shared, 2);
        let n = unshare_range(
            &mut child,
            &mut f.ptps,
            &mut f.phys,
            &mut f.reg,
            VaRange::from_len(VirtAddr::new(0x4000_0000), 0x40_0000),
            &KernelConfig::shared_ptp(),
            &mut batch(),
            UnshareTrigger::RegionOp,
        )
        .unwrap();
        assert_eq!(n, 2);
        assert_eq!(child.counters.unshares_by_region_op, 2);
    }

    #[test]
    fn cow_semantics_preserved_through_share_unshare() {
        // End-to-end COW check: parent writes to a heap page that sits
        // in a shared PTP; after unshare + fault the child must still
        // see its own (old) frame.
        let mut f = fx();
        setup_heap_same_chunk(&mut f);
        let va = VirtAddr::new(0x4010_0000);
        let orig_pfn = Mapper::new(&mut f.mm.root, &mut f.ptps, &mut f.phys, Pid::new(1))
            .get_pte(va)
            .unwrap()
            .hw
            .pfn;
        let (mut child, _) = share_fork(&mut f, 2);
        // Parent writes: kernel wrapper would unshare first, then
        // fault. Emulate that sequence.
        unshare(
            &mut f.mm,
            &mut f.ptps,
            &mut f.phys,
            &mut f.reg,
            va,
            &KernelConfig::shared_ptp(),
            &mut batch(),
            UnshareTrigger::WriteFault,
        )
        .unwrap()
        .unwrap();
        handle_fault(
            &mut f.mm,
            &mut f.ptps,
            &mut f.phys,
            va,
            AccessType::Write,
            FaultCtx::default(),
        )
        .unwrap();
        let parent_pfn = Mapper::new(&mut f.mm.root, &mut f.ptps, &mut f.phys, Pid::new(1))
            .get_pte(va)
            .unwrap()
            .hw
            .pfn;
        let child_pfn = Mapper::new(&mut child.root, &mut f.ptps, &mut f.phys, Pid::new(2))
            .get_pte(va)
            .unwrap()
            .hw
            .pfn;
        assert_ne!(parent_pfn, child_pfn, "parent got a COW copy");
        assert_eq!(child_pfn, orig_pfn, "child keeps the original frame");
    }

    #[test]
    fn l1_write_protect_ablation_skips_share_pass_but_stays_correct() {
        let mut f = fx();
        setup_heap_same_chunk(&mut f);
        let config = KernelConfig {
            l1_write_protect: true,
            ..KernelConfig::shared_ptp()
        };
        let va = VirtAddr::new(0x4010_0000);
        let (mut child, report) = share_fork_under(&mut f, 2, &config);
        assert_eq!(report.write_protect_ops, 0); // hw assist: no pass
                                                 // Child "writes": the L1 protection faults, child unshares.
        unshare(
            &mut child,
            &mut f.ptps,
            &mut f.phys,
            &mut f.reg,
            va,
            &config,
            &mut batch(),
            UnshareTrigger::WriteFault,
        )
        .unwrap()
        .unwrap();
        // The copy must have COW-protected the heap PTE.
        let cm = Mapper::new(&mut child.root, &mut f.ptps, &mut f.phys, Pid::new(2));
        assert!(!cm.get_pte(va).unwrap().hw.perms.write());
        let _ = cm;
        // Child's write fault now COWs.
        let o = handle_fault(
            &mut child,
            &mut f.ptps,
            &mut f.phys,
            va,
            AccessType::Write,
            FaultCtx::default(),
        )
        .unwrap();
        assert_eq!(o.kind, sat_vm::FaultKind::Cow);
        // Parent (last sharer) clears NEED_COPY; its writable PTE to a
        // still-shared frame must be protected by the fix-up.
        unshare(
            &mut f.mm,
            &mut f.ptps,
            &mut f.phys,
            &mut f.reg,
            va,
            &config,
            &mut batch(),
            UnshareTrigger::WriteFault,
        )
        .unwrap()
        .unwrap();
        let pm = Mapper::new(&mut f.mm.root, &mut f.ptps, &mut f.phys, Pid::new(1));
        let pte = pm.get_pte(VirtAddr::new(0x4010_1000)).unwrap();
        // Page still shared with nobody after child COW'd page 0 only;
        // page 1 is still multiply-mapped (child copy kept it).
        assert!(!pte.hw.perms.write());
    }
}
