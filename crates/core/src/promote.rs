//! The khugepaged-style large-page promotion scanner.
//!
//! The paper measures translation state at one fixed granularity; this
//! module makes page size a policy outcome instead. A scan pass walks
//! a process's regions looking for 64KB-aligned groups of sixteen
//! settled 4KB PTEs and collapses each into one replicated large-page
//! descriptor ([`sat_vm::collapse_group`]); optionally, a second pass
//! collapses fully large-mapped 1MB spans into level-1 section entries
//! ([`sat_mmu::Mapper::collapse_section`]). Like khugepaged, the
//! scanner tolerates holes: a group only `min_populated`/16 full is
//! still collapsed, the missing frames allocated fresh and never
//! touched — which is exactly the memory waste Section 2 of the paper
//! prices against the TLB-reach win, and why every fill is accounted
//! in [`KernelStats::waste_frames`](crate::kernel::KernelStats).
//!
//! Sharing-awareness: a group inside a `NEED_COPY` (shared) PTP is
//! never promoted — promotion rewrites PTEs, and shared tables may
//! only be rewritten through the unshare discipline. Individually
//! shared (COW) slots and slots whose hardware/software write bits
//! disagree are likewise rejected by the collapse primitive, so the
//! scanner can simply offer every group and let ineligible ones fall
//! out as [`SatError::InvalidArgument`]. The scan is idempotent:
//! already-large groups fail the Small4K eligibility check and are
//! skipped.
//!
//! TLB correctness: after a collapse the sixteen small translations a
//! TLB may hold are stale (wrong size tag, though same frames and
//! permissions); the scan gathers one group-span invalidation per
//! promotion into a [`FlushBatch`] tagged [`FlushReason::Promote`] and
//! resolves it once at the end.

use sat_mmu::{HwPte, Mapper, PtpStore};
use sat_obs::FlushReason;
use sat_phys::{FrameKind, PhysMem};
use sat_types::{
    Domain, PageSize, Pfn, Pid, SatError, SatResult, VaRange, VirtAddr, VpnRange, PAGE_SIZE,
};
use sat_vm::{Mm, LARGE_PAGE_BYTES};

use crate::flush::FlushBatch;
use crate::kernel::Kernel;
use crate::TlbMaintenance;

/// Bytes covered by a level-1 section entry.
const SECTION_BYTES: u32 = 1 << 20;

/// What one [`Kernel::promote_scan`] pass did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PromoteReport {
    /// 64KB groups collapsed to large pages.
    pub promoted: u64,
    /// 1MB spans collapsed to section entries.
    pub sections: u64,
    /// Frames allocated for never-faulted holes across all promoted
    /// groups — the memory the reach experiment reports as waste.
    pub filled: u64,
    /// Groups skipped because their PTP is shared (`NEED_COPY`):
    /// promotion never crosses a sharing boundary.
    pub skipped_shared: u64,
}

impl Kernel {
    /// Runs one promotion pass over `pid`'s address space (a no-op
    /// returning zeros unless `config.promote.enabled`; a pid that is
    /// not live is [`SatError::NoSuchProcess`] either way).
    ///
    /// Every 64KB-aligned group lying wholly inside one region is
    /// offered for collapse when it has at least
    /// `config.promote.min_populated` settled 4KB PTEs and its PTP is
    /// not shared. With `config.promote.sections`, a second pass
    /// collapses 1MB spans that the first pass left fully
    /// large-mapped and physically contiguous. Stops early (reporting
    /// what it managed) if physical memory runs out mid-scan.
    pub fn promote_scan(
        &mut self,
        pid: Pid,
        tlb: &mut dyn TlbMaintenance,
    ) -> SatResult<PromoteReport> {
        let config = self.config;
        let policy = config.promote;
        let mm = self.procs.get_mut(pid).ok_or(SatError::NoSuchProcess)?;
        let mut report = PromoteReport::default();
        if !policy.enabled {
            return Ok(report);
        }
        let asid = mm.asid;
        let zygote_like = mm.is_zygote_like();
        let domain = if config.share_tlb && zygote_like {
            Domain::ZYGOTE
        } else {
            Domain::USER
        };
        let vma_ranges: Vec<VaRange> = mm.vmas().map(|v| v.range).collect();
        let mut batch = FlushBatch::new(pid, asid);
        'scan: for range in &vma_ranges {
            let mut at = range.start.raw().next_multiple_of(LARGE_PAGE_BYTES);
            while at
                .checked_add(LARGE_PAGE_BYTES)
                .is_some_and(|e| e <= range.end.raw())
            {
                let group = VirtAddr::new(at);
                at += LARGE_PAGE_BYTES;
                if mm.root.entry_for(group).need_copy() {
                    report.skipped_shared += 1;
                    continue;
                }
                let span = VaRange::from_len(group, LARGE_PAGE_BYTES);
                {
                    // Cheap pre-survey: enforce the policy's population
                    // floor before paying for the collapse attempt.
                    let mapper = Mapper::new(&mut mm.root, &mut self.ptps, &mut self.phys, pid);
                    let populated = mapper.iter_range(span).len();
                    if populated < usize::from(policy.min_populated) {
                        continue;
                    }
                }
                match sat_vm::collapse_group(mm, &mut self.ptps, &mut self.phys, group, domain) {
                    Ok(out) => {
                        report.promoted += 1;
                        report.filled += u64::from(out.filled);
                        self.stats.promotions += 1;
                        self.stats.waste_frames += u64::from(out.filled);
                        batch.range(asid, VpnRange::from_va_range(&span), FlushReason::Promote);
                        if sat_obs::enabled() {
                            sat_obs::emit(
                                sat_obs::Subsystem::Kernel,
                                pid.raw(),
                                asid.raw(),
                                sat_obs::Payload::Promote {
                                    va: group.raw(),
                                    bytes: LARGE_PAGE_BYTES,
                                    pages: u64::from(LARGE_PAGE_BYTES / PAGE_SIZE),
                                    filled: u64::from(out.filled),
                                },
                            );
                        }
                    }
                    // Not eligible (partial population below the
                    // collapse floor, mixed permissions, COW-shared
                    // slots, already large): leave it small.
                    Err(SatError::InvalidArgument) => {}
                    // No frames left for hole filling: promotion is
                    // strictly optional work, so stop scanning rather
                    // than propagate pressure to the caller.
                    Err(SatError::OutOfMemory) => break 'scan,
                    Err(e) => return Err(e),
                }
            }
        }
        if policy.sections {
            'sections: for range in &vma_ranges {
                let mut at = range.start.raw().next_multiple_of(SECTION_BYTES);
                while at
                    .checked_add(SECTION_BYTES)
                    .is_some_and(|e| e <= range.end.raw())
                {
                    let va = VirtAddr::new(at);
                    at += SECTION_BYTES;
                    if mm.root.entry_for(va).need_copy() {
                        report.skipped_shared += 1;
                        continue;
                    }
                    match collapse_section_migrating(
                        mm,
                        &mut self.ptps,
                        &mut self.phys,
                        pid,
                        va,
                        domain,
                    ) {
                        Ok(true) => {
                            report.sections += 1;
                            self.stats.section_promotions += 1;
                            let span = VaRange::from_len(va, SECTION_BYTES);
                            batch.range(asid, VpnRange::from_va_range(&span), FlushReason::Promote);
                            if sat_obs::enabled() {
                                sat_obs::emit(
                                    sat_obs::Subsystem::Kernel,
                                    pid.raw(),
                                    asid.raw(),
                                    sat_obs::Payload::Promote {
                                        va: va.raw(),
                                        bytes: SECTION_BYTES,
                                        pages: u64::from(SECTION_BYTES / PAGE_SIZE),
                                        filled: 0,
                                    },
                                );
                            }
                        }
                        // Not fully large-mapped or not uniform.
                        Ok(false) => {}
                        Err(SatError::OutOfMemory) => break 'sections,
                        Err(e) => return Err(e),
                    }
                }
            }
        }
        batch.apply(tlb);
        Ok(report)
    }
}

/// Collapses the 1MB span at `va` into a level-1 section, migrating
/// frames when necessary.
///
/// The fast path is [`Mapper::collapse_section`]: all 256 slots
/// already reference one physically contiguous, ascending run (the
/// refs transfer in place). When the span is fully large-mapped and
/// uniform but the sixteen group runs are scattered — the common case,
/// since each group's collapse allocated its run independently — the
/// span is *compacted*: a fresh 256-frame run is allocated, every slot
/// is rewritten onto its frame of the run, and the in-place collapse
/// then succeeds. This is the section-sized analogue of khugepaged's
/// copy-collapse, minus the data copy the simulator doesn't model.
///
/// Returns whether a section was installed; `Ok(false)` means the span
/// is not eligible (partially mapped, mixed sizes or permissions, or
/// unsettled slots). Out-of-memory aborts before any slot is touched.
fn collapse_section_migrating(
    mm: &mut Mm,
    ptps: &mut PtpStore,
    phys: &mut PhysMem,
    pid: Pid,
    va: VirtAddr,
    domain: Domain,
) -> SatResult<bool> {
    {
        let mut mapper = Mapper::new(&mut mm.root, ptps, phys, pid);
        match mapper.collapse_section(va) {
            Ok(_base) => return Ok(true),
            Err(SatError::InvalidArgument) => {}
            Err(e) => return Err(e),
        }
    }
    let span = VaRange::from_len(va, SECTION_BYTES);
    let entries = (SECTION_BYTES / PAGE_SIZE) as usize;
    let slots = {
        let mapper = Mapper::new(&mut mm.root, ptps, phys, pid);
        mapper.iter_range(span)
    };
    if slots.len() != entries {
        return Ok(false);
    }
    let (perms, global) = (slots[0].1.hw.perms, slots[0].1.hw.global);
    let uniform = slots.iter().all(|(_, s)| {
        s.hw.size == PageSize::Large64K
            && s.hw.perms == perms
            && s.hw.global == global
            && !s.sw.shared
            && !s.sw.file_backed
            && s.sw.writable == perms.write()
    });
    if !uniform {
        return Ok(false);
    }
    let base = phys.alloc_run(FrameKind::Anon, entries as u32)?;
    for (i, (page, s)) in slots.iter().enumerate() {
        let frame = Pfn::new(base.raw() + i as u32);
        let mut mapper = Mapper::new(&mut mm.root, ptps, phys, pid);
        mapper.clear_pte(*page);
        mapper.set_pte(*page, HwPte::small(frame, perms, global), s.sw, domain)?;
        // Drop the allocation reference; the PTE holds its own.
        phys.put_page(frame);
    }
    let mut mapper = Mapper::new(&mut mm.root, ptps, phys, pid);
    mapper.collapse_section(va)?;
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{KernelConfig, PromotePolicy};
    use crate::NoTlb;
    use sat_types::{AccessType, PageSize, Perms, RegionTag, PAGE_SIZE};
    use sat_vm::MmapRequest;

    const HEAP: u32 = 0x0900_0000;

    fn promoting(mut config: KernelConfig, min_populated: u8, sections: bool) -> KernelConfig {
        config.promote = PromotePolicy {
            enabled: true,
            min_populated,
            sections,
        };
        config
    }

    /// Boots a kernel with one process holding a `pages`-page anon
    /// heap at [`HEAP`], faulting in `touch` (page indexes).
    fn boot(config: KernelConfig, pages: u32, touch: &[u32]) -> (Kernel, Pid) {
        let mut k = Kernel::new(config, 16384);
        let pid = k.create_process().unwrap();
        let req = MmapRequest::anon(pages * PAGE_SIZE, Perms::RW, RegionTag::Heap, "[heap]")
            .at(VirtAddr::new(HEAP));
        k.mmap(pid, &req, &mut NoTlb).unwrap();
        for &i in touch {
            k.page_fault(
                pid,
                VirtAddr::new(HEAP + i * PAGE_SIZE),
                AccessType::Write,
                &mut NoTlb,
            )
            .unwrap();
        }
        (k, pid)
    }

    #[test]
    fn scan_is_inert_when_disabled() {
        let (mut k, pid) = boot(KernelConfig::stock(), 16, &[0, 5, 9]);
        let before = k.phys.frames_in_use();
        let r = k.promote_scan(pid, &mut NoTlb).unwrap();
        assert_eq!(r, PromoteReport::default());
        assert_eq!(k.stats.promotions, 0);
        assert_eq!(k.phys.frames_in_use(), before);
        assert_eq!(
            k.pte(pid, VirtAddr::new(HEAP)).unwrap().unwrap().hw.size,
            PageSize::Small4K
        );
    }

    #[test]
    fn scan_collapses_sparse_groups_and_accounts_waste() {
        // Two groups: the first 6/16 populated, the second untouched.
        let (mut k, pid) = boot(
            promoting(KernelConfig::stock(), 1, false),
            32,
            &[0, 2, 5, 7, 11, 13],
        );
        let r = k.promote_scan(pid, &mut NoTlb).unwrap();
        assert_eq!(r.promoted, 1, "empty group must not promote");
        assert_eq!(r.filled, 10);
        assert_eq!(k.stats.promotions, 1);
        assert_eq!(k.stats.waste_frames, 10);
        let slot = k.pte(pid, VirtAddr::new(HEAP)).unwrap().unwrap();
        assert_eq!(slot.hw.size, PageSize::Large64K);
        // Second pass finds nothing new: the scan is idempotent.
        let r2 = k.promote_scan(pid, &mut NoTlb).unwrap();
        assert_eq!(r2.promoted, 0);
        assert_eq!(k.stats.waste_frames, 10);
        k.phys.rmap_verify().unwrap();
    }

    #[test]
    fn population_floor_blocks_sparse_groups() {
        let (mut k, pid) = boot(
            promoting(KernelConfig::stock(), 8, false),
            16,
            &[0, 2, 5, 7, 11, 13],
        );
        let r = k.promote_scan(pid, &mut NoTlb).unwrap();
        assert_eq!(r.promoted, 0, "6/16 is under the 8-slot floor");
        assert_eq!(
            k.pte(pid, VirtAddr::new(HEAP)).unwrap().unwrap().hw.size,
            PageSize::Small4K
        );
    }

    #[test]
    fn shared_ptps_are_never_promoted() {
        let (mut k, pid) = boot(
            promoting(KernelConfig::shared_ptp(), 1, false),
            16,
            &[0, 1, 2, 3],
        );
        let _child = k.fork(pid).unwrap().child;
        assert!(k
            .mm(pid)
            .unwrap()
            .root
            .entry_for(VirtAddr::new(HEAP))
            .need_copy());
        let r = k.promote_scan(pid, &mut NoTlb).unwrap();
        assert_eq!(r.promoted, 0);
        assert!(r.skipped_shared >= 1);
        assert_eq!(
            k.pte(pid, VirtAddr::new(HEAP)).unwrap().unwrap().hw.size,
            PageSize::Small4K
        );
        k.verify_share_accounting().unwrap();
    }

    #[test]
    fn sections_form_over_fully_promoted_spans() {
        // A 1MB region, every page touched: 16 large groups form, and
        // the section pass compacts their scattered runs onto one
        // contiguous 256-frame run and installs a level-1 section.
        let (mut k, pid) = boot(
            promoting(KernelConfig::stock(), 1, true),
            256,
            &(0..256).collect::<Vec<u32>>(),
        );
        sat_obs::install(4096);
        let r = k.promote_scan(pid, &mut NoTlb).unwrap();
        let rec = sat_obs::uninstall().unwrap();
        assert_eq!(r.promoted, 16);
        assert_eq!(r.sections, 1);
        assert_eq!(k.stats.section_promotions, 1);
        assert_eq!(k.mm(pid).unwrap().root.section_count(), 1);
        let t = k.mm(pid).unwrap().root.entry_for(VirtAddr::new(HEAP));
        assert!(matches!(t, sat_mmu::L1Entry::Section { .. }));
        let promotes = rec
            .events
            .iter()
            .filter(|e| matches!(e.payload, sat_obs::Payload::Promote { .. }))
            .count() as u64;
        assert_eq!(promotes, r.promoted + r.sections);
        k.phys.rmap_verify().unwrap();
    }

    #[test]
    fn partial_munmap_demotes_with_event_and_counters() {
        let touched: Vec<u32> = (0..16).collect();
        let (mut k, pid) = boot(promoting(KernelConfig::stock(), 1, false), 16, &touched);
        assert_eq!(k.promote_scan(pid, &mut NoTlb).unwrap().promoted, 1);
        sat_obs::install(1024);
        k.munmap(
            pid,
            VaRange::from_len(VirtAddr::new(HEAP), PAGE_SIZE),
            &mut NoTlb,
        )
        .unwrap();
        let rec = sat_obs::uninstall().unwrap();
        assert_eq!(k.stats.demotions, 1);
        assert_eq!(k.stats.split_ptes, 16);
        let demote = rec
            .events
            .iter()
            .find_map(|e| match e.payload {
                sat_obs::Payload::Demote { va, cause, .. } => Some((va, cause)),
                _ => None,
            })
            .expect("partial munmap over a large page must emit Demote");
        assert_eq!(demote, (HEAP, sat_obs::DemoteCause::Munmap));
        // The fifteen survivors are small and still mapped.
        for i in 1..16 {
            let slot = k
                .pte(pid, VirtAddr::new(HEAP + i * PAGE_SIZE))
                .unwrap()
                .expect("survivor unmapped");
            assert_eq!(slot.hw.size, PageSize::Small4K);
        }
        k.phys.rmap_verify().unwrap();
    }

    #[test]
    fn cow_write_fault_splits_promoted_group() {
        let touched: Vec<u32> = (0..16).collect();
        let (mut k, pid) = boot(promoting(KernelConfig::stock(), 1, false), 16, &touched);
        assert_eq!(k.promote_scan(pid, &mut NoTlb).unwrap().promoted, 1);
        // Stock fork write-protects the group (COW) slot by slot; the
        // group stays large and uniform on both sides.
        let child = k.fork(pid).unwrap().child;
        assert_eq!(
            k.pte(pid, VirtAddr::new(HEAP)).unwrap().unwrap().hw.size,
            PageSize::Large64K
        );
        sat_obs::install(1024);
        let o = k
            .page_fault(
                pid,
                VirtAddr::new(HEAP + 3 * PAGE_SIZE),
                AccessType::Write,
                &mut NoTlb,
            )
            .unwrap();
        let rec = sat_obs::uninstall().unwrap();
        assert_eq!(o.vm.demoted, Some(VirtAddr::new(HEAP)));
        assert_eq!(k.stats.demotions, 1);
        let cause = rec
            .events
            .iter()
            .find_map(|e| match e.payload {
                sat_obs::Payload::Demote { cause, .. } => Some(cause),
                _ => None,
            })
            .expect("COW split must emit Demote");
        assert_eq!(cause, sat_obs::DemoteCause::Cow);
        // The faulting page diverged; the child's group is untouched.
        assert_eq!(
            k.pte(child, VirtAddr::new(HEAP)).unwrap().unwrap().hw.size,
            PageSize::Large64K
        );
        k.phys.rmap_verify().unwrap();
    }

    #[test]
    fn fork_splits_parent_sections_first() {
        let touched: Vec<u32> = (0..256).collect();
        let (mut k, pid) = boot(promoting(KernelConfig::stock(), 1, true), 256, &touched);
        let r = k.promote_scan(pid, &mut NoTlb).unwrap();
        assert_eq!(r.sections, 1);
        assert_eq!(k.mm(pid).unwrap().root.section_count(), 1);
        let child = k.fork(pid).unwrap().child;
        // The section had to split (it is invisible to the fork walk);
        // the child sees every page.
        assert_eq!(k.mm(pid).unwrap().root.section_count(), 0);
        assert!(k.stats.demotions >= 1);
        for i in [0u32, 100, 255] {
            assert!(k
                .pte(child, VirtAddr::new(HEAP + i * PAGE_SIZE))
                .unwrap()
                .is_some());
        }
        k.phys.rmap_verify().unwrap();
        k.verify_share_accounting().unwrap();
    }

    #[test]
    fn scan_survives_memory_exhaustion() {
        // Small machine: the scan runs out of frames for hole filling
        // and stops early instead of failing the caller.
        let mut k = Kernel::new(promoting(KernelConfig::stock(), 1, false), 64);
        let pid = k.create_process().unwrap();
        let req = MmapRequest::anon(64 * PAGE_SIZE, Perms::RW, RegionTag::Heap, "[heap]")
            .at(VirtAddr::new(HEAP));
        k.mmap(pid, &req, &mut NoTlb).unwrap();
        for i in 0..4 {
            for g in 0..4 {
                k.page_fault(
                    pid,
                    VirtAddr::new(HEAP + (g * 16 + i) * PAGE_SIZE),
                    AccessType::Write,
                    &mut NoTlb,
                )
                .unwrap();
            }
        }
        let r = k.promote_scan(pid, &mut NoTlb).unwrap();
        assert!(r.promoted < 4, "64 frames cannot fill four groups");
        k.phys.rmap_verify().unwrap();
    }
}
