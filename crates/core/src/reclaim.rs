//! Memory-pressure reclaim: clock-LRU eviction of file page-cache
//! frames under a soft physical-frame budget.
//!
//! The paper's sharing mechanisms change what page reclaim has to do.
//! In the stock kernel every PTE pointing at a victim frame is private
//! to one process, so `try_to_unmap` walks the rmap and clears one PTE
//! per mapping. With PTP sharing a single *physical* PTE in a shared
//! PTP serves every sharer — tearing it repairs all of them at once
//! (one rmap entry, one TLB-page invalidation across all address
//! spaces), but the tear mutates a table other processes are walking,
//! which the ordinary unshare discipline forbids. This module is the
//! sanctioned path:
//!
//! - [`Kernel::set_frame_budget`] installs a soft budget; the
//!   allocator tracks budget-relative free frames and watermarks
//!   ([`sat_phys::Watermarks`]) but never hard-fails — crossing the
//!   low watermark flags pressure instead.
//! - [`Kernel::maybe_reclaim`] is hooked where allocation happens
//!   (page fault, `mmap`) and runs a pass only under pressure, so
//!   budget-less runs take the zero-cost early return and stay
//!   byte-identical.
//! - [`Kernel::reclaim`] picks victims from the second-chance clock
//!   over file page-cache frames, tears every PTE the reverse map
//!   records for the victim, gathers the TLB maintenance into one
//!   [`FlushBatch`] tagged [`FlushReason::Reclaim`], evicts the frame,
//!   and emits one [`sat_obs::Payload::Reclaim`] event per pass.
//!
//! A reverse-map entry names whoever holds the PTE's table (DESIGN.md
//! §14): [`Pid::SHARED_TABLE`] iff the level-1 pair the PTE hangs from
//! carries `NEED_COPY`, else the pid whose root points at the table.
//! The owner is exact, so a pass reads a victim's entries once and one
//! function tears them all, by one lookup each — the registry's table
//! for the chunk, or that process's table.
//!
//! A torn PTE whose home PTP is shared is invalidated with a
//! one-page-all-ASIDs op (`TLBIMVAA` — the same instrument the
//! domain-fault handler uses), because every sharer may have cached
//! the translation; the tear is reported as a Figure-6 unshare with
//! the new `reclaim` cause, `ptes_copied: 0` (nothing is copied — the
//! PTP *stays shared* and the registry is untouched; one tear repairs
//! all sharers). Private victims get an ordinary ASID-scoped page
//! invalidation. Refaults repopulate through the page cache on the
//! normal fault path, charged to the existing `fault` cycle cause.

use sat_mmu::{Mapper, TableHalf};
use sat_obs::FlushReason;
use sat_types::{Asid, PageSize, Pfn, Pid, VirtAddr};

use crate::flush::FlushBatch;
use crate::kernel::{note_demote, Kernel};
use crate::TlbMaintenance;

/// What one reclaim pass did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReclaimOutcome {
    /// File page-cache frames evicted.
    pub pages: u64,
    /// PTEs torn from private (non-shared) PTPs.
    pub pte_tears: u64,
    /// PTEs torn out of shared PTPs, each repairing all sharers.
    pub shared_tears: u64,
}

impl Kernel {
    /// Installs (or removes) the soft physical-frame budget that
    /// drives reclaim; watermarks are derived from it. `None` disables
    /// pressure entirely — [`Kernel::maybe_reclaim`] becomes a no-op.
    pub fn set_frame_budget(&mut self, frames: Option<u64>) {
        self.phys.set_budget(frames);
    }

    /// Runs a reclaim pass if allocation has crossed the low
    /// watermark; returns `None` (without touching anything) when
    /// there is no pressure or no budget is installed.
    pub fn maybe_reclaim(&mut self, tlb: &mut dyn TlbMaintenance) -> Option<ReclaimOutcome> {
        let target = self.phys.reclaim_target();
        if target == 0 {
            return None;
        }
        Some(self.reclaim(target, tlb))
    }

    /// Evicts up to `target_pages` file page-cache frames: for each
    /// clock victim, tears every PTE the reverse map records, gathers
    /// the TLB maintenance into one batch, and frees the frame. Stops
    /// early when the clock finds nothing evictable (every file page
    /// is referenced or the cache is empty).
    pub fn reclaim(&mut self, target_pages: u64, tlb: &mut dyn TlbMaintenance) -> ReclaimOutcome {
        let mut out = ReclaimOutcome::default();
        // Reclaim runs in kernel context, not on behalf of a faulting
        // process; its batch and events carry pid/ASID zero like the
        // domain-fault handler's.
        let mut batch = FlushBatch::new(Pid::new(0), Asid::new(0));
        while out.pages < target_pages {
            let Some(victim) = self.phys.clock_next_victim() else {
                break;
            };
            // Owners are exact, so every entry names a PTE of its own
            // and no tear consumes another entry's: one snapshot.
            for (owner, va) in self.phys.rmap_entries(victim) {
                self.tear(victim, owner, va, &mut batch, &mut out);
            }
            debug_assert_eq!(
                self.phys.mapcount(victim),
                0,
                "victim {victim:?} still mapped after rmap tears"
            );
            if self.phys.evict_file_frame(victim) {
                out.pages += 1;
            }
        }
        batch.apply(tlb);
        self.stats.reclaims += 1;
        self.stats.reclaim_pages += out.pages;
        self.stats.reclaim_pte_tears += out.pte_tears;
        self.stats.reclaim_shared_tears += out.shared_tears;
        if out.pages > 0 && sat_obs::enabled() {
            sat_obs::emit(
                sat_obs::Subsystem::Kernel,
                0,
                0,
                sat_obs::Payload::Reclaim {
                    pages: out.pages,
                    pte_tears: out.pte_tears,
                    shared_tears: out.shared_tears,
                },
            );
        }
        out
    }

    /// Tears the one PTE that `victim`'s reverse-map entry
    /// `(owner, va)` names. The owner says whose table holds it:
    /// [`Pid::SHARED_TABLE`] — the registry-listed table of `va`'s
    /// chunk that maps the victim there (two disjoint sharing groups
    /// can cover one chunk); a pid — that process's table. The slot is
    /// cleared in place, which for a shared table is the sanctioned
    /// mutation of the module docs: the PTP stays shared, nothing is
    /// copied, and the one tear repairs every sharer.
    fn tear(
        &mut self,
        victim: Pfn,
        owner: Pid,
        va: VirtAddr,
        batch: &mut FlushBatch,
        out: &mut ReclaimOutcome,
    ) {
        let (half, idx) = (TableHalf::of(va), va.l2_index());
        let pte_in = |ptp: Pfn| {
            let slot = self.ptps.get(ptp)?.get(half, idx)?;
            (slot.hw.frame_for_slot(idx) == victim).then_some(slot.hw)
        };
        // The table, its PTE, and the one ASID that walks the table
        // (a shared table has none).
        let found = if owner == Pid::SHARED_TABLE {
            let listed = self.registry.iter();
            let mut of_chunk = listed.filter(|(_, e)| e.chunk == va.ptp_base());
            of_chunk.find_map(|(ptp, _)| Some((ptp, pte_in(ptp)?, None)))
        } else {
            self.procs.get(owner).and_then(|mm| {
                let ptp = mm.root.entry_for(va).ptp()?;
                Some((ptp, pte_in(ptp)?, Some(mm.asid)))
            })
        };
        let Some((ptp, hw, asid)) = found else {
            debug_assert!(
                false,
                "rmap entry ({owner:?}, {va:?}) of {victim:?} names no PTE"
            );
            // Keep release builds making forward progress; the
            // divergence surfaces at the next rmap_verify.
            self.phys.rmap_remove(victim, owner, va);
            return;
        };
        if hw.size == PageSize::Large64K {
            // Tearing one slot of a sixteen-slot replicated large group
            // would leave fifteen stale descriptors, so the group splits
            // to 4KB PTEs first. Unreachable with today's victim policy
            // — large frames are anonymous and the clock only sweeps
            // the file page cache — but the split-before-tear
            // discipline must not depend on that.
            debug_assert!(
                asid.is_some(),
                "wide descriptor in a shared table at {va:?}: it cannot be split in place"
            );
            if let Some(mm) = self.procs.get_mut(owner) {
                Mapper::new(&mut mm.root, &mut self.ptps, &mut self.phys, owner).split_large(va);
                let size = PageSize::Large64K;
                let group = VirtAddr::new(va.raw() & !(size.bytes() - 1));
                let cause = sat_obs::DemoteCause::Reclaim;
                note_demote(&mut self.stats, owner, mm.asid, group, size, cause, batch);
            }
        }
        let table = self.ptps.get_mut(ptp).expect("looked up above");
        table.clear(half, idx);
        self.phys.rmap_remove(victim, owner, va);
        self.phys.map_dec(victim);
        self.phys.put_page(victim);
        match asid {
            Some(asid) if !hw.global => batch.page(asid, va.vpn(), FlushReason::Reclaim),
            // Every sharer may have cached a shared table's
            // translation, and a global one survives ASID-scoped
            // maintenance: TLBIMVAA hits the page in all address
            // spaces, globals included.
            _ => batch.va_all_asids(va, FlushReason::Reclaim),
        }
        if asid.is_some() {
            out.pte_tears += 1;
        } else {
            out.shared_tears += 1;
            emit_reclaim_unshare(va);
        }
    }
}

/// Reports a shared-PTP tear as a Figure-6 unshare with the `reclaim`
/// cause. Nothing is copied and the PTP stays shared (the registry is
/// untouched), hence `ptes_copied: 0` / `last_sharer: false`; like
/// [`Kernel::domain_fault`], the operation runs in kernel context and
/// carries no pid/ASID.
fn emit_reclaim_unshare(va: VirtAddr) {
    if sat_obs::enabled() {
        sat_obs::emit(
            sat_obs::Subsystem::Share,
            0,
            0,
            sat_obs::Payload::PtpUnshare {
                cause: sat_obs::UnshareCause::Reclaim,
                ptes_copied: 0,
                last_sharer: false,
                va: va.ptp_base().raw(),
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::KernelConfig;
    use crate::NoTlb;
    use sat_types::{AccessType, Perms, RegionTag, VaRange, PAGE_SIZE};
    use sat_vm::MmapRequest;

    fn code_req(file: sat_phys::FileId, pages: u32, at: u32) -> MmapRequest {
        MmapRequest::file(
            pages * PAGE_SIZE,
            Perms::RX,
            file,
            0,
            RegionTag::ZygoteNativeCode,
            "libtest.so",
        )
        .at(VirtAddr::new(at))
    }

    /// Boots a zygote with an 8-page library mapped and populated.
    fn boot(config: KernelConfig) -> (Kernel, Pid) {
        let mut k = Kernel::new(config, 16384);
        let lib = k.files.register("libtest.so", 8 * PAGE_SIZE);
        let zygote = k.create_process().unwrap();
        k.exec_zygote(zygote).unwrap();
        k.mmap(zygote, &code_req(lib, 8, 0x4000_0000), &mut NoTlb)
            .unwrap();
        k.populate(
            zygote,
            VaRange::from_len(VirtAddr::new(0x4000_0000), 8 * PAGE_SIZE),
        )
        .unwrap();
        (k, zygote)
    }

    // No explicit aging is needed before reclaiming in these tests:
    // the clock's sweep budget (two full passes) spends every page's
    // second chance and reaches a victim within a single
    // `clock_next_victim` call.

    #[test]
    fn reclaim_evicts_unreferenced_file_pages() {
        let (mut k, _zygote) = boot(KernelConfig::stock());
        let before = k.phys.page_cache_len();
        let out = k.reclaim(3, &mut NoTlb);
        assert_eq!(out.pages, 3);
        assert_eq!(out.pte_tears, 3);
        assert_eq!(out.shared_tears, 0);
        assert_eq!(k.phys.page_cache_len(), before - 3);
        assert_eq!(k.phys.stats().evictions, 3);
        assert_eq!(k.phys.still_evicted(), 3);
        k.verify_share_accounting().unwrap();
        k.phys.rmap_verify().unwrap();
    }

    #[test]
    fn shared_ptp_tear_repairs_all_sharers_at_once() {
        let (mut k, zygote) = boot(KernelConfig::shared_ptp());
        let c1 = k.fork(zygote).unwrap().child;
        let c2 = k.fork(zygote).unwrap().child;
        let out = k.reclaim(1, &mut NoTlb);
        assert_eq!(out.pages, 1);
        // One tear in the shared PTP, not one per sharer.
        assert_eq!(out.shared_tears, 1);
        assert_eq!(out.pte_tears, 0);
        // All three sharers lost the PTE together.
        let va = VirtAddr::new(0x4000_0000);
        let evicted_va = (0..8)
            .map(|i| VirtAddr::new(va.raw() + i * PAGE_SIZE))
            .find(|&v| k.pte(zygote, v).unwrap().is_none())
            .expect("one code page was evicted");
        assert!(k.pte(c1, evicted_va).unwrap().is_none());
        assert!(k.pte(c2, evicted_va).unwrap().is_none());
        // The PTP stays shared: the registry is untouched.
        k.verify_share_accounting().unwrap();
        k.phys.rmap_verify().unwrap();
    }

    #[test]
    fn refault_repopulates_and_conserves() {
        let (mut k, zygote) = boot(KernelConfig::shared_ptp());
        let child = k.fork(zygote).unwrap().child;
        let out = k.reclaim(2, &mut NoTlb);
        assert_eq!(out.pages, 2);
        let va = VirtAddr::new(0x4000_0000);
        let evicted_va = (0..8)
            .map(|i| VirtAddr::new(va.raw() + i * PAGE_SIZE))
            .find(|&v| k.pte(child, v).unwrap().is_none())
            .expect("one code page was evicted");
        // The child refaults the evicted page: a major fault re-reads
        // it from "disk" and the conservation ledger balances.
        let o = k
            .page_fault(child, evicted_va, AccessType::Execute, &mut NoTlb)
            .unwrap();
        assert_eq!(o.vm.kind, sat_vm::FaultKind::Major);
        let s = k.phys.stats();
        assert_eq!(s.evictions, 2);
        assert_eq!(s.refaults, 1);
        assert_eq!(s.evictions, s.refaults + k.phys.still_evicted() as u64);
        k.verify_share_accounting().unwrap();
        k.phys.rmap_verify().unwrap();
    }

    #[test]
    fn maybe_reclaim_is_inert_without_budget() {
        let (mut k, _zygote) = boot(KernelConfig::shared_ptp());
        assert!(k.maybe_reclaim(&mut NoTlb).is_none());
        assert_eq!(k.stats.reclaims, 0);
        assert_eq!(k.phys.stats().evictions, 0);
    }

    #[test]
    fn pressure_triggers_reclaim_on_fault_path() {
        let (mut k, zygote) = boot(KernelConfig::shared_ptp());
        let in_use = k.phys.frames_in_use();
        // Budget tight enough that the next allocations cross the low
        // watermark (low = 8 for tiny budgets).
        k.set_frame_budget(Some(in_use + 4));
        let heap = MmapRequest::anon(4 * PAGE_SIZE, Perms::RW, RegionTag::Heap, "[heap]")
            .at(VirtAddr::new(0x0900_0000));
        k.mmap(zygote, &heap, &mut NoTlb).unwrap();
        for i in 0..4 {
            k.page_fault(
                zygote,
                VirtAddr::new(0x0900_0000 + i * PAGE_SIZE),
                AccessType::Write,
                &mut NoTlb,
            )
            .unwrap();
        }
        assert!(k.stats.reclaims > 0, "pressure never triggered reclaim");
        assert!(k.phys.stats().evictions > 0);
        assert!(k.phys.stats().low_watermark_hits > 0);
        k.verify_share_accounting().unwrap();
        k.phys.rmap_verify().unwrap();
    }

    const LIB: u32 = 0x4000_0000;
    const LIB2: u32 = 0x4010_0000;

    /// [`boot`] under PTP sharing plus a two-page library in the same
    /// chunk that the zygote never touches, a child forked from it,
    /// and the child's fault of the first of those pages: a PTE
    /// populated into the shared table, filed under the shared-table
    /// owner. Returns the kernel, the zygote, the child and the
    /// faulted page's frame.
    fn boot_with_child_populated_pte() -> (Kernel, Pid, Pid, Pfn) {
        let (mut k, zygote) = boot(KernelConfig::shared_ptp());
        let lib2 = k.files.register("libextra.so", 2 * PAGE_SIZE);
        k.mmap(zygote, &code_req(lib2, 2, LIB2), &mut NoTlb)
            .unwrap();
        let child = k.fork(zygote).unwrap().child;
        let va = VirtAddr::new(LIB2);
        k.page_fault(child, va, AccessType::Execute, &mut NoTlb)
            .unwrap();
        let frame = k.pte(zygote, va).unwrap().expect("visible to all").hw.pfn;
        assert_eq!(k.phys.rmap_entries(frame), [(Pid::SHARED_TABLE, va)]);
        k.verify_rmap_ownership().unwrap();
        (k, zygote, child, frame)
    }

    /// Maps one anonymous page into the libraries' chunk: a region op
    /// that unshares it.
    fn mmap_into_lib_chunk(k: &mut Kernel, pid: Pid) {
        let heap = MmapRequest::anon(PAGE_SIZE, Perms::RW, RegionTag::Heap, "[heap]")
            .at(VirtAddr::new(0x4018_0000));
        k.mmap(pid, &heap, &mut NoTlb).unwrap();
    }

    #[test]
    fn sentinel_entry_survives_ptp_going_private() {
        // Transition 1, the last-sharer collapse: the child exits, the
        // zygote's next region op clears NEED_COPY in place, and the
        // table's entries — the one the child populated included —
        // come back to the zygote's pid.
        let (mut k, zygote, child, frame) = boot_with_child_populated_pte();
        let va = VirtAddr::new(LIB2);
        k.exit(child, &mut NoTlb).unwrap();
        mmap_into_lib_chunk(&mut k, zygote);
        assert!(!k.mm(zygote).unwrap().root.entry_for(va).need_copy());
        assert!(k.registry.is_empty());
        assert_eq!(k.phys.rmap_entries(frame), [(zygote, va)]);
        k.verify_rmap_ownership().unwrap();
        // Reclaim tears them as what they are: private PTEs.
        let out = k.reclaim(16, &mut NoTlb);
        assert_eq!((out.pages, out.pte_tears, out.shared_tears), (9, 9, 0));
        assert!(k.pte(zygote, va).unwrap().is_none());
        k.verify_rmap_ownership().unwrap();
        k.verify_share_accounting().unwrap();
        k.phys.rmap_verify().unwrap();
    }

    #[test]
    fn lone_sharer_exit_removes_shared_table_entries() {
        // Transition 2: the zygote exits while its pair still carries
        // NEED_COPY with itself the one sharer left. The table goes
        // with it, and its entries go under the owner they were filed
        // under (a debug build asserts on any other key).
        let (mut k, zygote, child, _) = boot_with_child_populated_pte();
        k.exit(child, &mut NoTlb).unwrap();
        let root = &k.mm(zygote).unwrap().root;
        assert!(root.entry_for(VirtAddr::new(LIB2)).need_copy());
        k.exit(zygote, &mut NoTlb).unwrap();
        assert!(k.phys.rmap_is_empty());
        assert!(k.registry.is_empty() && k.ptps.is_empty());
        assert_eq!(k.phys.frames_in_use(), k.phys.page_cache_len() as u64);
        k.verify_rmap_ownership().unwrap();
        k.phys.rmap_verify().unwrap();
    }

    #[test]
    fn two_sharing_groups_at_one_va_are_torn_in_one_pass() {
        // The child unshares the chunk (a private copy of the table),
        // then forks: two disjoint sharing groups, each with its own
        // shared table mapping the same file pages at the same
        // addresses — two shared-table entries per page.
        let (mut k, zygote, child, frame) = boot_with_child_populated_pte();
        let va = VirtAddr::new(LIB2);
        mmap_into_lib_chunk(&mut k, child);
        let grandchild = k.fork(child).unwrap().child;
        assert_eq!(k.registry.len(), 2);
        assert_eq!(k.phys.rmap_entries(frame), [(Pid::SHARED_TABLE, va); 2]);
        k.verify_rmap_ownership().unwrap();
        let out = k.reclaim(16, &mut NoTlb);
        assert_eq!((out.pages, out.pte_tears, out.shared_tears), (9, 0, 18));
        for pid in [zygote, child, grandchild] {
            let lib_ptes = (0..8).map(|i| VirtAddr::new(LIB + i * PAGE_SIZE));
            for page in lib_ptes.chain([va]) {
                assert!(k.pte(pid, page).unwrap().is_none(), "{pid:?} at {page:?}");
            }
        }
        assert_eq!(k.registry.len(), 2, "both tables stay shared");
        k.verify_rmap_ownership().unwrap();
        k.verify_share_accounting().unwrap();
        k.phys.rmap_verify().unwrap();
    }

    #[test]
    fn ownership_checker_names_an_entry_under_the_wrong_owner() {
        let (mut k, zygote) = boot(KernelConfig::stock());
        let va = VirtAddr::new(LIB);
        let frame = k.pte(zygote, va).unwrap().unwrap().hw.pfn;
        k.verify_rmap_ownership().unwrap();
        // Counts still reconcile, so `rmap_verify` cannot see it.
        k.phys.rmap_reown(frame, zygote, Pid::SHARED_TABLE, va);
        k.phys.rmap_verify().unwrap();
        let err = k.verify_rmap_ownership().unwrap_err();
        let named = format!(
            "the rmap files [(Pid(0), {va:?})] but the PTEs mapping it are [({zygote:?}, {va:?})]"
        );
        assert!(err.contains(&named), "{err}");
        k.phys.rmap_reown(frame, Pid::SHARED_TABLE, zygote, va);
        k.verify_rmap_ownership().unwrap();
    }

    #[test]
    fn reclaim_emits_event_and_flushes_with_reclaim_reason() {
        let (mut k, zygote) = boot(KernelConfig::shared_ptp());
        let _child = k.fork(zygote).unwrap().child;
        sat_obs::install(1024);
        let out = k.reclaim(2, &mut NoTlb);
        let rec = sat_obs::uninstall().expect("sink installed");
        assert_eq!(out.pages, 2);
        let mut saw_reclaim = false;
        let mut saw_unshare = false;
        for ev in &rec.events {
            match ev.payload {
                sat_obs::Payload::Reclaim {
                    pages,
                    shared_tears,
                    ..
                } => {
                    saw_reclaim = true;
                    assert_eq!(pages, 2);
                    assert_eq!(shared_tears, 2);
                }
                sat_obs::Payload::PtpUnshare { cause, .. } => {
                    assert_eq!(cause, sat_obs::UnshareCause::Reclaim);
                    saw_unshare = true;
                }
                _ => {}
            }
        }
        assert!(saw_reclaim && saw_unshare);
    }
}
