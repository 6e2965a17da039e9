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
use sat_types::{Asid, Pfn, Pid, VirtAddr};

use crate::flush::FlushBatch;
use crate::kernel::Kernel;
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
            // Drain the *live* rmap rather than a snapshot: rmap
            // entries at one va are interchangeable across owners (a
            // fork re-owns private entries to the sentinel, a
            // last-sharer collapse strands sentinel entries on a
            // private table), so one tear may consume the PTE another
            // entry was recorded for. Each tear removes exactly one
            // entry, so this terminates.
            while let Some(&(pid, va)) = self.phys.rmap_entries(victim).first() {
                if pid.raw() == 0 {
                    self.tear_shared_slot(victim, va, &mut batch, &mut out);
                } else {
                    self.tear_private_pte(victim, pid, va, &mut batch, &mut out);
                }
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

    /// Tears one sentinel-owned PTE (a PTE living in a shared PTP) for
    /// `victim` at `va`. The share registry locates the PTP: the entry
    /// whose chunk covers `va` and whose table actually maps the
    /// victim (two disjoint sharing groups can cover the same chunk).
    /// The slot is cleared in place — the PTP stays shared, nothing is
    /// copied, and the one tear repairs every sharer.
    fn tear_shared_slot(
        &mut self,
        victim: Pfn,
        va: VirtAddr,
        batch: &mut FlushBatch,
        out: &mut ReclaimOutcome,
    ) {
        let half = TableHalf::of(va);
        let idx = va.l2_index();
        let candidates: Vec<Pfn> = self
            .registry
            .iter()
            .filter(|(_, e)| e.chunk == va.ptp_base())
            .map(|(f, _)| f)
            .collect();
        for ptp_frame in candidates {
            let maps_victim = self
                .ptps
                .get(ptp_frame)
                .and_then(|t| t.get(half, idx))
                .is_some_and(|s| s.hw.frame_for_slot(idx) == victim);
            if !maps_victim {
                continue;
            }
            debug_assert!(
                self.ptps
                    .get(ptp_frame)
                    .and_then(|t| t.get(half, idx))
                    .is_some_and(|s| s.hw.size == sat_types::PageSize::Small4K),
                "file page-cache victim mapped by a wide descriptor at {va:?} — \
                 large slots are anonymous and must never reach the shared tear"
            );
            self.ptps
                .get_mut(ptp_frame)
                .expect("checked above")
                .clear(half, idx);
            self.phys.rmap_remove(victim, Pid::new(0), va);
            self.phys.map_dec(victim);
            self.phys.put_page(victim);
            // Every sharer may have cached the translation; TLBIMVAA
            // hits the page in all address spaces, globals included.
            batch.va_all_asids(va, FlushReason::Reclaim);
            out.shared_tears += 1;
            emit_reclaim_unshare(va);
            return;
        }
        // The PTP went private since the PTE was recorded: a
        // last-sharer unshare cleared NEED_COPY in place without
        // rewriting rmap ownership. Some live process still maps the
        // victim at `va` through a walkable table; find it and tear
        // through the ordinary per-process path.
        if self.tear_any_private(victim, va, batch, out) {
            return;
        }
        debug_assert!(
            false,
            "sentinel rmap entry for {victim:?} at {va:?} matches no shared or private PTP"
        );
        // Keep release builds making forward progress; the divergence
        // surfaces at the next rmap_verify.
        self.phys.rmap_remove(victim, Pid::new(0), va);
    }

    /// Tears one privately-owned PTE for `victim` at `va` in `pid`.
    /// When the home PTP has since been *shared* (the PTE predates a
    /// fork), the tear still goes through the owner's table — which is
    /// the table every sharer walks — so it is flushed and accounted
    /// as a shared tear. When the recorded owner no longer maps the
    /// victim (an earlier same-va tear consumed its PTE under another
    /// entry's name, or the owner exited after an attribution swap),
    /// whichever live process still maps it is torn instead.
    fn tear_private_pte(
        &mut self,
        victim: Pfn,
        pid: Pid,
        va: VirtAddr,
        batch: &mut FlushBatch,
        out: &mut ReclaimOutcome,
    ) {
        if self.tear_exact_private(victim, pid, va, batch, out) {
            return;
        }
        if self.tear_any_private(victim, va, batch, out) {
            return;
        }
        debug_assert!(
            false,
            "rmap entry for {victim:?} at {va:?} matches no live PTE"
        );
        // Keep release builds making forward progress; the divergence
        // surfaces at the next rmap_verify.
        self.phys.rmap_remove(victim, pid, va);
    }

    /// Tears `pid`'s PTE for `victim` at `va` if it exists; returns
    /// whether a PTE was torn (and one rmap entry at `va` consumed).
    fn tear_exact_private(
        &mut self,
        victim: Pfn,
        pid: Pid,
        va: VirtAddr,
        batch: &mut FlushBatch,
        out: &mut ReclaimOutcome,
    ) -> bool {
        let Some(mm) = self.procs.get_mut(pid) else {
            return false;
        };
        let asid = mm.asid;
        let shared = mm.root.entry_for(va).need_copy();
        let mut mapper = Mapper::new(&mut mm.root, &mut self.ptps, &mut self.phys, pid);
        let Some(slot) = mapper.get_pte(va) else {
            return false;
        };
        if slot.hw.frame_for_slot(va.l2_index()) != victim {
            return false;
        }
        let global = slot.hw.global;
        // Tearing one slot of a sixteen-slot replicated large group
        // would leave fifteen stale descriptors, so the group splits
        // to 4KB PTEs first. Unreachable with today's victim policy —
        // large frames are anonymous and the clock only sweeps the
        // file page cache — but the split-before-tear discipline must
        // not depend on that.
        let mut demoted = None;
        if slot.hw.size == sat_types::PageSize::Large64K {
            let group = VirtAddr::new(va.raw() & !(sat_types::PageSize::Large64K.bytes() - 1));
            let split = mapper.split_large(va).unwrap_or(0);
            demoted = Some((group, split));
        }
        mapper.reclaim_pte(va);
        if let Some((group, split)) = demoted {
            self.stats.demotions += 1;
            self.stats.split_ptes += u64::from(split);
            let bytes = sat_types::PageSize::Large64K.bytes();
            let span = sat_types::VaRange::from_len(group, bytes);
            batch.range(
                asid,
                sat_types::VpnRange::from_va_range(&span),
                FlushReason::Demote,
            );
            if sat_obs::enabled() {
                sat_obs::emit(
                    sat_obs::Subsystem::Kernel,
                    pid.raw(),
                    asid.raw(),
                    sat_obs::Payload::Demote {
                        va: group.raw(),
                        bytes,
                        pages: u64::from(split),
                        cause: sat_obs::DemoteCause::Reclaim,
                    },
                );
            }
        }
        if shared {
            batch.va_all_asids(va, FlushReason::Reclaim);
            out.shared_tears += 1;
            emit_reclaim_unshare(va);
        } else if global {
            // A global translation survives ASID-scoped maintenance.
            batch.va_all_asids(va, FlushReason::Reclaim);
            out.pte_tears += 1;
        } else {
            batch.page(asid, va.vpn(), FlushReason::Reclaim);
            out.pte_tears += 1;
        }
        true
    }

    /// Scans live processes in pid order for any PTE mapping `victim`
    /// at `va` and tears the first one found. Attribution fallback:
    /// which process a same-va rmap entry names is advisory (entries
    /// are interchangeable at one va), so after exits, collapses, and
    /// earlier tears the surviving PTE may belong to a different pid
    /// than the entry being drained.
    fn tear_any_private(
        &mut self,
        victim: Pfn,
        va: VirtAddr,
        batch: &mut FlushBatch,
        out: &mut ReclaimOutcome,
    ) -> bool {
        // An exited pid's slot is empty: `tear_exact_private` passes
        // over it.
        (1..self.procs.pid_bound())
            .any(|pid| self.tear_exact_private(victim, Pid::new(pid), va, batch, out))
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

    #[test]
    fn sentinel_entry_survives_ptp_going_private() {
        // A PTE faulted into a shared PTP is recorded under the
        // sentinel; when the sharing group collapses back to one
        // process (last-sharer unshare), reclaim must still find and
        // tear it through the now-private table.
        let (mut k, zygote) = boot(KernelConfig::shared_ptp());
        let lib2 = k.files.register("libextra.so", 2 * PAGE_SIZE);
        k.mmap(zygote, &code_req(lib2, 2, 0x4010_0000), &mut NoTlb)
            .unwrap();
        let child = k.fork(zygote).unwrap().child;
        // Child faults a page the zygote never touched: the PTE goes
        // into the shared PTP under the sentinel owner.
        let va = VirtAddr::new(0x4010_0000);
        k.page_fault(child, va, AccessType::Execute, &mut NoTlb)
            .unwrap();
        // The child exits: the zygote becomes the last sharer, and its
        // next modification clears NEED_COPY in place.
        k.exit(child, &mut NoTlb).unwrap();
        let heap = MmapRequest::anon(PAGE_SIZE, Perms::RW, RegionTag::Heap, "[heap]")
            .at(VirtAddr::new(0x4018_0000));
        k.mmap(zygote, &heap, &mut NoTlb).unwrap();
        assert!(!k.mm(zygote).unwrap().root.entry_for(va).need_copy());
        let out = k.reclaim(16, &mut NoTlb);
        assert!(out.pages >= 1);
        // The sentinel-owned PTE was torn through the fallback path.
        assert!(k.pte(zygote, va).unwrap().is_none());
        k.verify_share_accounting().unwrap();
        k.phys.rmap_verify().unwrap();
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
