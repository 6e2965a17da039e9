//! The patched kernel: process table plus the paper's hooks around
//! the stock VM paths.
//!
//! [`Kernel`] owns physical memory, the PTP arena, the file registry,
//! and every process's `Mm`, and exposes the system-call surface the
//! experiments drive. Each entry point applies the paper's logic in
//! exactly the place the patch hooks Linux:
//!
//! - `fork` → the one fork (`fork.rs`): per 2MB chunk, share the PTP
//!   where the chunk allows it (Section 3.1.1), copy as stock where it
//!   does not — the stock kernel being the one with nothing to share;
//! - `page_fault` → unshare on a write fault into a shared PTP
//!   (Section 3.1.2 case 1), then the stock handler;
//! - `mmap`/`munmap`/`mprotect` → eagerly unshare affected PTPs
//!   (cases 2-4), then the stock mechanics; a zygote `mmap` of library
//!   code marks the region *global* (Section 3.2.2);
//! - `exit` → drop PTP references, skipping reclamation of PTPs other
//!   processes still share (case 5);
//! - `domain_fault` → flush the TLB entries matching the faulting
//!   address (Section 3.2.3).
//!
//! The process table is a pid-indexed vector (pids are handed out
//! densely from 1 and never reused): the simulated hardware looks its
//! current process up on every access, so [`Kernel::mm`] is a bounds
//! check and a load, and [`Kernel::processes`] walks live processes in
//! ascending pid order.

use std::collections::BTreeMap;

use sat_mmu::pte::PteSlot;
use sat_mmu::{L1Entry, Mapper, PtpStore};
use sat_phys::{FileRegistry, FrameKind, PhysMem};
use sat_types::{
    AccessType, Asid, Dacr, Domain, DomainAccess, GrowGently, PageSize, Perms, Pfn, Pid, SatError,
    SatResult, VaRange, VirtAddr, VpnRange, PAGE_SIZE,
};
use sat_vm::{
    check_region_op, demote_range, handle_fault, mmap as vm_mmap, mprotect as vm_mprotect,
    munmap as vm_munmap, populate, Backing, FaultCtx, FaultKind, FaultOutcome, Mm, MmapRequest,
};

use crate::asid::AsidAllocator;
use crate::config::KernelConfig;
use crate::flush::{FlushBatch, FlushOp};
use crate::fork::{dup_mm, ForkOutcome};
use crate::registry::SharedPtpRegistry;
use crate::share::{teardown, unshare, unshare_range, UnshareTrigger};
use crate::{NoTlb, TlbMaintenance};

/// Kernel-global statistics. The five Figure-6 unshare counters are
/// twins of [`RegistryStats`](crate::RegistryStats)' fields of the same
/// names, both written by [`SharedPtpRegistry::detach`] alone.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct KernelStats {
    /// Forks performed.
    pub forks: u64,
    /// Forks that used PTP sharing.
    pub share_forks: u64,
    /// Domain faults handled (non-zygote process hit a global entry).
    pub domain_faults: u64,
    /// Processes exited.
    pub exits: u64,
    /// PTPs unshared, all causes; equals the sum of the four
    /// by-cause counters below. (Exit-time teardown dereferences
    /// shared PTPs without unsharing and is not counted.)
    pub ptp_unshares: u64,
    /// Unshares triggered by a write fault into a NEED_COPY PTP
    /// (Section 3.1.2 case 1).
    pub unshares_write_fault: u64,
    /// Unshares triggered by mapping a new region (case 3).
    pub unshares_new_region: u64,
    /// Unshares triggered by freeing a region (case 4).
    pub unshares_region_free: u64,
    /// Unshares triggered by a protection change (case 2).
    pub unshares_region_op: u64,
    /// ASID generation rollovers (8-bit space exhausted; non-global
    /// TLB entries flushed, live ASIDs reassigned lazily): always
    /// [`Kernel::asid_generation`] − 1.
    pub asid_rollovers: u64,
    /// Reclaim passes run ([`Kernel::reclaim`]).
    pub reclaims: u64,
    /// File page-cache frames evicted by reclaim.
    pub reclaim_pages: u64,
    /// PTEs torn from private PTPs by reclaim.
    pub reclaim_pte_tears: u64,
    /// PTEs torn out of *shared* PTPs by reclaim (each tear repairs
    /// every sharer at once; the PTP stays shared).
    pub reclaim_shared_tears: u64,
    /// 64KB groups collapsed by the promotion scanner
    /// ([`crate::promote`]).
    pub promotions: u64,
    /// Always 0: the kernel builds no 1MB section. The field stays only
    /// because the benchmark package adds it to `promotions`; it goes
    /// when the benchmark stops reading it.
    pub section_promotions: u64,
    /// 64KB groups split back to 4KB PTEs (partial `munmap`/
    /// `mprotect`, COW write faults, reclaim).
    pub demotions: u64,
    /// 4KB PTEs written by those splits.
    pub split_ptes: u64,
    /// Frames the promotion scanner allocated for never-faulted holes
    /// — memory *mapped* but never *touched*, the waste side of the
    /// paper's reach-vs-footprint trade (Section 2's ≈2.6× figure).
    pub waste_frames: u64,
}

/// Records the split of the 64KB group at `va`: bumps the demotion
/// counters, emits the [`sat_obs::Payload::Demote`] event, and gathers
/// the group's invalidation into `batch` — one cached wide TLB entry
/// served the whole group, so the whole group must be flushed, tagged
/// [`sat_obs::FlushReason::Demote`] for blame attribution.
pub(crate) fn note_demote(
    stats: &mut KernelStats,
    pid: Pid,
    asid: Asid,
    va: VirtAddr,
    cause: sat_obs::DemoteCause,
    batch: &mut FlushBatch,
) {
    let bytes = PageSize::Large64K.bytes();
    let pages = PageSize::Large64K.frames();
    stats.demotions += 1;
    stats.split_ptes += u64::from(pages);
    let span = VaRange::from_len(va, bytes);
    let reason = sat_obs::FlushReason::Demote;
    batch.range(asid, VpnRange::from_va_range(&span), reason);
    if sat_obs::enabled() {
        sat_obs::emit(
            sat_obs::Subsystem::Kernel,
            pid.raw(),
            asid.raw(),
            sat_obs::Payload::Demote {
                va: va.raw(),
                bytes,
                pages: u64::from(pages),
                cause,
            },
        );
    }
}

/// The fault-handling context of `mm` under `config`: with TLB sharing
/// on, a zygote-like process's PTEs are global and live in the zygote
/// domain (Section 3.2.2).
fn fault_ctx(config: &KernelConfig, mm: &Mm) -> FaultCtx {
    let shared = config.share_tlb && mm.is_zygote_like();
    FaultCtx {
        mark_global: shared,
        domain: if shared { Domain::ZYGOTE } else { Domain::USER },
    }
}

/// Emits a region operation's [`sat_obs::Payload::RegionOp`] event.
fn emit_region_op(
    pid: Pid,
    asid: Asid,
    op: sat_obs::RegionOpKind,
    va: VirtAddr,
    pages: u32,
    unshared: u64,
) {
    if sat_obs::enabled() {
        sat_obs::emit(
            sat_obs::Subsystem::Kernel,
            pid.raw(),
            asid.raw(),
            sat_obs::Payload::RegionOp {
                op,
                va: va.raw(),
                pages,
                unshared,
            },
        );
    }
}

/// What [`Kernel::change_region`] does to the range once its shared
/// PTPs are private.
enum RegionChange {
    /// `munmap(2)` (Section 3.1.2 case 4).
    Unmap,
    /// `mprotect(2)` to these permissions (case 2).
    Protect(Perms),
}

/// Combined result of [`Kernel::page_fault`].
#[derive(Clone, Copy, Debug)]
pub struct ProcFaultOutcome {
    /// The stock handler's resolution.
    pub vm: FaultOutcome,
    /// A PTP had to be unshared first (write fault in a shared PTP).
    pub unshared: bool,
    /// PTEs copied by that unshare.
    pub unshare_ptes_copied: u64,
}

/// The process table: slot `pid` holds that process's address space
/// and the ASID generation its `mm.asid` was issued in (Linux keeps the
/// generation in the `mm`) while it lives. Pids are handed out densely
/// from 1 and never reused, so the vectors are as long as the highest
/// pid created and an exited process leaves an empty slot behind (slot
/// 0 is never used). They grow by an eighth when full
/// ([`GrowGently`]), not double, so a fleet of 1,026 processes keeps
/// 1,037 slots of 672 bytes, not 2,048. Iteration is in ascending pid
/// order.
#[derive(Default)]
pub(crate) struct ProcTable {
    slots: Vec<Option<Mm>>,
    /// Slot `pid`'s ASID generation, meaningful while the slot is live.
    /// Beside the address spaces rather than in their slots: slots
    /// eight bytes wider made `serve_pressure` 3–6% slower on the host
    /// (2-core KVM guest, alternating pairs), the layout alone.
    asid_generations: Vec<u64>,
    /// Occupied slots.
    live: usize,
}

impl ProcTable {
    pub(crate) fn get(&self, pid: Pid) -> Option<&Mm> {
        self.slots.get(pid.raw() as usize)?.as_ref()
    }

    pub(crate) fn get_mut(&mut self, pid: Pid) -> Option<&mut Mm> {
        self.slots.get_mut(pid.raw() as usize)?.as_mut()
    }

    /// `pid`'s address space and its ASID generation.
    pub(crate) fn entry_mut(&mut self, pid: Pid) -> Option<(&mut Mm, &mut u64)> {
        let idx = pid.raw() as usize;
        let mm = self.slots.get_mut(idx)?.as_mut()?;
        Some((mm, &mut self.asid_generations[idx]))
    }

    fn asid_generation(&self, pid: Pid) -> Option<u64> {
        self.get(pid)?;
        Some(self.asid_generations[pid.raw() as usize])
    }

    /// Files `mm`, whose ASID was issued in `asid_generation`, under its
    /// own pid, which must not be live.
    fn insert(&mut self, mm: Mm, asid_generation: u64) {
        let idx = mm.pid.raw() as usize;
        if idx >= self.slots.len() {
            self.slots.reserve_gently(idx + 1 - self.slots.len());
            self.asid_generations
                .reserve_gently(idx + 1 - self.asid_generations.len());
            self.slots.resize_with(idx + 1, || None);
            self.asid_generations.resize(idx + 1, 0);
        }
        let old = self.slots[idx].replace(mm);
        assert!(old.is_none(), "pid {idx} is already live");
        self.asid_generations[idx] = asid_generation;
        self.live += 1;
    }

    fn remove(&mut self, pid: Pid) -> Option<Mm> {
        let mm = self.slots.get_mut(pid.raw() as usize)?.take()?;
        self.live -= 1;
        Some(mm)
    }

    fn len(&self) -> usize {
        self.live
    }

    /// Live address spaces, lowest pid first.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Mm> {
        self.slots.iter().flatten()
    }
}

/// The simulated (patched or stock) kernel.
pub struct Kernel {
    /// Active configuration.
    pub config: KernelConfig,
    /// Physical memory.
    pub phys: PhysMem,
    /// The machine-wide PTP arena.
    pub ptps: PtpStore,
    /// The refcounted registry of shared PTPs: one entry per shared
    /// table, owning the sharer count and the Figure-6 cause
    /// attribution ([`crate::registry`]).
    pub registry: SharedPtpRegistry,
    /// Registered files (libraries, binaries, data files).
    pub files: FileRegistry,
    /// Kernel-global statistics.
    pub stats: KernelStats,
    pub(crate) procs: ProcTable,
    next_pid: u32,
    /// The generational 8-bit ASID allocator (`asid.rs`); each
    /// process's generation is in `procs`.
    asids: AsidAllocator,
}

impl Kernel {
    /// Creates a kernel over `frames` 4KB frames of physical memory.
    ///
    /// # Panics
    ///
    /// Panics if `frames` exceeds [`sat_types::MAX_FRAMES`], like
    /// [`PhysMem::new`], or if `config.promote.sections` is set: the
    /// kernel builds no 1MB section (see
    /// [`PromotePolicy::sections`](crate::PromotePolicy::sections)).
    pub fn new(config: KernelConfig, frames: u32) -> Kernel {
        assert!(
            !config.promote.sections,
            "PromotePolicy::sections is refused: 1MB section promotion was removed; \
             the 64KB group is the one large page"
        );
        Kernel {
            config,
            phys: PhysMem::new(frames),
            ptps: PtpStore::new(),
            registry: SharedPtpRegistry::new(),
            files: FileRegistry::new(),
            stats: KernelStats::default(),
            procs: ProcTable::default(),
            next_pid: 1,
            asids: AsidAllocator::new(),
        }
    }

    /// Creates a kernel with the Nexus 7's 1GB of memory.
    pub fn nexus7(config: KernelConfig) -> Kernel {
        Kernel::new(config, (1u32 << 30) >> sat_types::PAGE_SHIFT)
    }

    /// Creates a new, empty process.
    pub fn create_process(&mut self) -> SatResult<Pid> {
        let pid = Pid::new(self.next_pid);
        self.next_pid += 1;
        let asid = self.alloc_asid();
        let mm = Mm::new(&mut self.phys, pid, asid)?;
        self.procs.insert(mm, self.asids.generation());
        Ok(pid)
    }

    /// Allocates an 8-bit ASID through the generational allocator
    /// (`asid.rs`), the one place the generation moves, and sets
    /// [`KernelStats::asid_rollovers`] from it.
    fn alloc_asid(&mut self) -> Asid {
        let asid = self.asids.alloc(&mut self.procs);
        self.stats.asid_rollovers = self.asids.generation() - 1;
        asid
    }

    /// Reports that `pid` is now current on `core`; the machine layer
    /// calls this on every context switch. A rollover reserves the
    /// ASIDs of the processes recorded here — they keep running (and
    /// filling TLBs) with their value without passing through the
    /// allocator, so the value must not be reissued until a flush
    /// separates the two owners.
    pub fn note_running(&mut self, core: usize, pid: Pid) {
        self.asids.running.insert(core, pid);
    }

    /// True when `pid`'s ASID predates the current generation, or
    /// `pid` is no live process. Every TLB entry tagged with a stale
    /// value predates the rollover (the owner has not run since —
    /// running processes are re-generationed in place), so the
    /// rollover flush covers them: already issued, or pending and
    /// guaranteed to fire at the next switch-in before the recycled
    /// value can be consumed.
    pub fn asid_is_stale(&self, pid: Pid) -> bool {
        self.procs.asid_generation(pid) != Some(self.asids.generation())
    }

    /// The current ASID generation (starts at 1).
    pub fn asid_generation(&self) -> u64 {
        self.asids.generation()
    }

    /// True when a rollover's deferred non-global flush has not been
    /// issued yet.
    pub fn rollover_flush_pending(&self) -> bool {
        self.asids.flush_pending
    }

    /// Switch-in hook: returns `pid`'s valid ASID for the current
    /// generation, reassigning it first when a rollover made it stale,
    /// and issues the deferred rollover flush (non-global entries
    /// only — global zygote entries survive). Call before `pid` runs
    /// on any core.
    pub fn ensure_current_asid(
        &mut self,
        pid: Pid,
        tlb: &mut dyn TlbMaintenance,
    ) -> SatResult<Asid> {
        self.mm(pid)?;
        if self.asid_is_stale(pid) {
            // No entry tagged with the old value can outlive this
            // reassignment: the pid has not run since the rollover
            // (running pids kept their generation), so its entries
            // predate the rollover flush — already issued, or issued
            // just below before the pid executes.
            let asid = self.alloc_asid();
            let generation = self.asids.generation();
            let (mm, asid_generation) = self.procs.entry_mut(pid).expect("looked up above");
            mm.asid = asid;
            *asid_generation = generation;
        }
        if std::mem::take(&mut self.asids.flush_pending) {
            tlb.flush(FlushOp::NonGlobal, sat_obs::FlushReason::AsidRecycle);
        }
        self.mm(pid).map(|mm| mm.asid)
    }

    /// Marks `pid` as the zygote (the paper's `exec`-time zygote
    /// flag) and grants it access to the zygote domain when TLB
    /// sharing is enabled.
    pub fn exec_zygote(&mut self, pid: Pid) -> SatResult<()> {
        let share_tlb = self.config.share_tlb;
        let mm = self.mm_mut(pid)?;
        mm.is_zygote = true;
        if share_tlb {
            mm.dacr = Dacr::zygote_like();
        }
        Ok(())
    }

    /// Borrows a process's address space.
    pub fn mm(&self, pid: Pid) -> SatResult<&Mm> {
        self.procs.get(pid).ok_or(SatError::NoSuchProcess)
    }

    /// Mutably borrows a process's address space.
    pub fn mm_mut(&mut self, pid: Pid) -> SatResult<&mut Mm> {
        self.procs.get_mut(pid).ok_or(SatError::NoSuchProcess)
    }

    /// Iterates over live processes in ascending pid order.
    pub fn processes(&self) -> impl Iterator<Item = (&Pid, &Mm)> {
        self.procs.iter().map(|mm| (&mm.pid, mm))
    }

    /// Number of live processes.
    pub fn process_count(&self) -> usize {
        self.procs.len()
    }

    /// Publishes kernel-owned occupancy gauges (frame allocator, PTP
    /// slab, shared-PTP registry, process table, ASID generation) to
    /// the installed recorder. Pure reads of existing bookkeeping —
    /// safe to call at any sampling point without perturbing the sim.
    pub fn publish_gauges(&self) {
        self.phys.publish_gauges();
        self.ptps.publish_gauges();
        let sharers: u64 = self
            .registry
            .iter()
            .map(|(_, e)| u64::from(e.sharers))
            .sum();
        sat_obs::gauge_set("registry.entries", self.registry.len() as u64);
        sat_obs::gauge_set("registry.sharers", sharers);
        sat_obs::gauge_set("kernel.processes", self.procs.len() as u64);
        sat_obs::gauge_set("kernel.asid.generation", self.asids.generation());
        // Page-size occupancy, counted per address space (a large
        // group in a shared PTP serves each sharer's VA range). Gated
        // so promotion-free runs publish the exact gauge set they
        // always have.
        if self.config.promote.enabled {
            let mut large_slots: u64 = 0;
            for mm in self.procs.iter() {
                for (_, frame) in mm.root.iter_ptps() {
                    if let Some(table) = self.ptps.get(frame) {
                        large_slots += table
                            .iter()
                            .filter(|(_, _, s)| s.hw.size == PageSize::Large64K)
                            .count() as u64;
                    }
                }
            }
            sat_obs::gauge_set("mmu.pages.large", large_slots / 16);
            sat_obs::gauge_set("mmu.waste.frames", self.stats.waste_frames);
        }
    }

    /// `mmap(2)`: maps a region, eagerly unsharing any shared PTP in
    /// its range (Section 3.1.2 case 3) and — for the zygote mapping
    /// library code under TLB sharing — marking the region global
    /// (Section 3.2.2).
    pub fn mmap(
        &mut self,
        pid: Pid,
        req: &MmapRequest,
        tlb: &mut dyn TlbMaintenance,
    ) -> SatResult<VirtAddr> {
        let mm = self.procs.get_mut(pid).ok_or(SatError::NoSuchProcess)?;
        let asid = mm.asid;
        let addr = vm_mmap(mm, req)?;
        let range = mm.vma_at(addr).expect("just inserted").range;
        // The allocation pressure check once the request is valid and
        // before the map materializes anything (no-op without a frame
        // budget): a refused call reclaims nothing.
        self.maybe_reclaim(tlb);
        // Gather the operation's TLB maintenance (the freshly mapped
        // pages held no translations, so only unsharing contributes)
        // and resolve it once at the end.
        let mut batch = FlushBatch::new(pid, asid);
        let unshared = self.unshare_region(pid, range, UnshareTrigger::NewRegion, &mut batch);
        let mm = self.procs.get_mut(pid).ok_or(SatError::NoSuchProcess)?;
        let unshared = match unshared {
            Ok(unshared) => unshared,
            Err(e) => {
                // A region exists only in chunks that are private (the
                // eager-unshare invariant), so the one just inserted
                // goes again. The chunks unshared before the one that
                // found no frame stay private: their flush is owed.
                mm.carve(range);
                batch.apply(tlb);
                return Err(e);
            }
        };
        if self.config.share_tlb
            && mm.is_zygote
            && matches!(req.backing, Backing::File { .. })
            && req.perms.execute()
        {
            mm.mark_global(addr);
        }
        batch.apply(tlb);
        let op = sat_obs::RegionOpKind::Mmap;
        emit_region_op(pid, asid, op, addr, range.len() / PAGE_SIZE, unshared);
        Ok(addr)
    }

    /// `munmap(2)`: unshares affected PTPs (case 4: a region in the
    /// range of a shared PTP is freed), then unmaps.
    pub fn munmap(
        &mut self,
        pid: Pid,
        range: VaRange,
        tlb: &mut dyn TlbMaintenance,
    ) -> SatResult<usize> {
        self.change_region(pid, range, RegionChange::Unmap, tlb)
    }

    /// `mprotect(2)`: unshares affected PTPs (case 2), then applies
    /// the protection change.
    pub fn mprotect(
        &mut self,
        pid: Pid,
        range: VaRange,
        perms: Perms,
        tlb: &mut dyn TlbMaintenance,
    ) -> SatResult<()> {
        self.change_region(pid, range, RegionChange::Protect(perms), tlb)
            .map(|_| ())
    }

    /// The eager unshare every region operation starts with (Section
    /// 3.1.2 cases 2-4): no PTP that `range` touches stays shared, so
    /// the operation that follows changes only `pid`'s own tables.
    /// Returns the PTPs unshared (0 without PTP sharing).
    fn unshare_region(
        &mut self,
        pid: Pid,
        range: VaRange,
        trigger: UnshareTrigger,
        batch: &mut FlushBatch,
    ) -> SatResult<u64> {
        let config = self.config;
        if !config.share_ptp {
            return Ok(0);
        }
        let mm = self.procs.get_mut(pid).ok_or(SatError::NoSuchProcess)?;
        let unshared = unshare_range(
            mm,
            &mut self.ptps,
            &mut self.phys,
            &mut self.registry,
            &mut self.stats,
            range,
            &config,
            batch,
            trigger,
        )?;
        Ok(unshared as u64)
    }

    /// The one path of `munmap` and `mprotect`: unshare, split the
    /// large mappings the range cuts through, apply the stock
    /// operation, flush. Returns the PTEs an unmap cleared (0 for a
    /// protection change).
    fn change_region(
        &mut self,
        pid: Pid,
        range: VaRange,
        change: RegionChange,
        tlb: &mut dyn TlbMaintenance,
    ) -> SatResult<usize> {
        let (trigger, cause, op) = match change {
            RegionChange::Unmap => (
                UnshareTrigger::RegionFree,
                sat_obs::DemoteCause::Munmap,
                sat_obs::RegionOpKind::Munmap,
            ),
            RegionChange::Protect(_) => (
                UnshareTrigger::RegionOp,
                sat_obs::DemoteCause::Mprotect,
                sat_obs::RegionOpKind::Mprotect,
            ),
        };
        let mm = self.mm(pid)?;
        // The arguments are checked once, here, before anything is
        // unshared or split: a refused call changes nothing.
        check_region_op(mm, range, matches!(change, RegionChange::Protect(_)))?;
        let asid = mm.asid;
        // Checked before an unmap removes the VMAs: a region carrying
        // global (zygote library) translations needs a machine-wide
        // flush — ASID-scoped maintenance cannot evict global entries.
        let any_global = mm.vmas_overlapping(range).any(|v| v.global);
        let mut batch = FlushBatch::new(pid, asid);
        let changed = self
            .unshare_region(pid, range, trigger, &mut batch)
            .and_then(|unshared| {
                let mm = self.procs.get_mut(pid).ok_or(SatError::NoSuchProcess)?;
                // An operation over *part* of a large page must split
                // it first (the vm layer repeats this
                // defensively, but splitting here attributes the event
                // and the size-tagged flush). Wholly covered large
                // mappings stay intact: an unmap releases them exactly,
                // a protection change stays uniform and keeps the wide
                // descriptor.
                for va in demote_range(mm, &mut self.ptps, &mut self.phys, range) {
                    note_demote(&mut self.stats, pid, asid, va, cause, &mut batch);
                }
                let cleared = match change {
                    RegionChange::Unmap => vm_munmap(mm, &mut self.ptps, &mut self.phys, range)?,
                    RegionChange::Protect(perms) => {
                        vm_mprotect(mm, &mut self.ptps, &mut self.phys, range, perms)?;
                        0
                    }
                };
                // The unmapped or (possibly more-permissive) old
                // translations must not survive (Linux's
                // flush_tlb_range on both paths). Eager unsharing means
                // no other address space holds a PTE that this
                // operation changed, so the flush is scoped to the
                // operating ASID — except when the region was global.
                if any_global {
                    batch.all(sat_obs::FlushReason::RegionOp);
                } else {
                    batch.range(
                        asid,
                        VpnRange::from_va_range(&range),
                        sat_obs::FlushReason::RegionOp,
                    );
                }
                Ok((unshared, cleared))
            });
        // What the steps that ran gathered is owed even when a later
        // one found no frame: the chunks unshared and the mappings
        // split so far stay that way.
        batch.apply(tlb);
        let (unshared, cleared) = changed?;
        let pages = range.page_count() as u32;
        emit_region_op(pid, asid, op, range.start, pages, unshared);
        Ok(cleared)
    }

    /// Handles a page fault. A *write* fault whose address falls in a
    /// NEED_COPY PTP first unshares it (case 1); the fault is then
    /// handled as in the stock kernel.
    pub fn page_fault(
        &mut self,
        pid: Pid,
        va: VirtAddr,
        access: AccessType,
        tlb: &mut dyn TlbMaintenance,
    ) -> SatResult<ProcFaultOutcome> {
        // The fault path is where frames are actually allocated;
        // crossing the low watermark triggers a reclaim pass first
        // (no-op without a frame budget) — for a fault the handler
        // will serve: one on a dead pid, or an access the region
        // refuses (none there, or one it does not allow), allocates
        // nothing and so reclaims nothing.
        let mm = self.mm(pid)?;
        if self.phys.below_low_watermark()
            && mm.vma_at(va).is_some_and(|vma| vma.perms.allows(access))
        {
            self.maybe_reclaim(tlb);
        }
        let config = self.config;
        let mm = self.procs.get_mut(pid).expect("looked up above");
        let mut batch = FlushBatch::new(pid, mm.asid);
        let mut unshared = false;
        let mut unshare_ptes_copied = 0;
        // A write the region refuses unshares nothing either: the
        // stock handler refuses it below, as Linux's access check does
        // before any fault handling.
        if access.is_write()
            && mm.root.entry_for(va).need_copy()
            && mm.vma_at(va).is_some_and(|vma| vma.perms.write())
        {
            // An unshare that finds no frame has changed and gathered
            // nothing: `?` drops an empty batch.
            let r = unshare(
                mm,
                &mut self.ptps,
                &mut self.phys,
                &mut self.registry,
                &mut self.stats,
                va,
                &config,
                &mut batch,
                UnshareTrigger::WriteFault,
            )?
            .expect("NEED_COPY checked above");
            unshared = true;
            unshare_ptes_copied = r.ptes_copied;
        }
        let ctx = fault_ctx(&config, mm);
        let asid = mm.asid;
        let vm = handle_fault(mm, &mut self.ptps, &mut self.phys, va, access, ctx);
        // A write-protect fault that landed on one slot of a large
        // group had to split the group before the slot could diverge
        // (COW at 4KB granularity); attribute the demotion and flush
        // the group span the stale wide entry covered.
        if let Some(group) = vm.as_ref().ok().and_then(|outcome| outcome.demoted) {
            let cause = sat_obs::DemoteCause::Cow;
            note_demote(&mut self.stats, pid, asid, group, cause, &mut batch);
        }
        // A fault that found the PTE present (COW, write-enable,
        // spurious) changed or re-checked a translation any core may
        // cache: shoot the page down where the ASID may be resident,
        // or everywhere when the entries are global. A fault over an
        // invalid PTE owes nothing: no TLB caches an invalid entry.
        if let Ok(o) = &vm {
            let reason = sat_obs::FlushReason::FaultRepair;
            match o.kind {
                FaultKind::Minor | FaultKind::Major => {}
                _ if o.global => batch.va_all_asids(va.page_base(), reason),
                _ => batch.page(asid, va.vpn(), reason),
            }
        }
        // Owed even when the handler found no frame: the unshare before
        // it may have dropped or write-stripped PTEs.
        batch.apply(tlb);
        Ok(ProcFaultOutcome {
            vm: vm?,
            unshared,
            unshare_ptes_copied,
        })
    }

    /// Pre-faults `range` in `pid` (used by the zygote preload).
    pub fn populate(&mut self, pid: Pid, range: VaRange) -> SatResult<usize> {
        let mm = self.procs.get_mut(pid).ok_or(SatError::NoSuchProcess)?;
        let ctx = fault_ctx(&self.config, mm);
        populate(mm, &mut self.ptps, &mut self.phys, range, ctx)
    }

    /// `fork(2)` for callers that model no TLB:
    /// [`Kernel::fork_with_flush`] under [`NoTlb`], with nothing to go
    /// stale.
    pub fn fork(&mut self, parent: Pid) -> SatResult<ForkOutcome> {
        self.fork_with_flush(parent, &mut NoTlb)
    }

    /// `fork(2)`: builds the child's address space (`fork.rs`) —
    /// sharing the parent's PTPs where enabled and allowed, copying per
    /// the configured policy elsewhere — and flushes from `tlb` what it
    /// made stale.
    ///
    /// The flush is exactly the spans the fork gathered, on success
    /// *and* when it ran out of frames part-way: the write protection
    /// applied up to that point stays, and the child of a later fork —
    /// which finds nothing left to protect and owes no flush — would
    /// otherwise see the parent's writes through a stale entry.
    pub fn fork_with_flush(
        &mut self,
        parent: Pid,
        tlb: &mut dyn TlbMaintenance,
    ) -> SatResult<ForkOutcome> {
        let config = self.config;
        // Looked up before anything is taken: a fork of a pid that
        // does not exist costs neither a pid nor an ASID.
        let parent_asid = self.mm(parent)?.asid;
        let child_pid = Pid::new(self.next_pid);
        self.next_pid += 1;
        let child_asid = self.alloc_asid();
        let parent_mm = self.procs.get_mut(parent).expect("looked up above");
        // Gathers only `FlushReason::Fork` ops, which never escalate.
        let mut batch = FlushBatch::new(parent, parent_asid);
        let forked = dup_mm(
            parent_mm,
            &mut self.ptps,
            &mut self.phys,
            &mut self.registry,
            child_pid,
            child_asid,
            &config,
            &mut batch,
        )
        .map(|(child_mm, outcome)| {
            // Counted once the fork has happened: one that ran out of
            // frames leaves only a skipped pid and ASID value behind.
            self.stats.forks += 1;
            self.stats.share_forks += u64::from(config.share_ptp);
            self.procs.insert(child_mm, self.asids.generation());
            if sat_obs::enabled() {
                sat_obs::emit(
                    sat_obs::Subsystem::Kernel,
                    parent.raw(),
                    parent_asid.raw(),
                    sat_obs::Payload::Fork {
                        child: child_pid.raw(),
                        ptps_shared: outcome.ptps_shared,
                        ptes_copied: outcome.ptes_copied,
                        shared: config.share_ptp,
                    },
                );
            }
            outcome
        });
        // If the parent's generation is stale (possibly rolled over by
        // the child's allocation just above), the rollover flush covers
        // its entries — flushing the raw value would only hit a
        // same-valued new-generation process.
        if !self.asid_is_stale(parent) {
            batch.apply(tlb);
        }
        forked
    }

    /// Process exit: tears down the address space. Shared PTPs are
    /// dereferenced, not reclaimed, when other sharers remain (case
    /// 5).
    pub fn exit(&mut self, pid: Pid, tlb: &mut dyn TlbMaintenance) -> SatResult<()> {
        let stale = self.asid_is_stale(pid);
        let mm = self.procs.remove(pid).ok_or(SatError::NoSuchProcess)?;
        let asid = mm.asid;
        teardown(mm, &mut self.ptps, &mut self.phys, &mut self.registry);
        if !stale {
            let mut batch = FlushBatch::new(pid, asid);
            batch.asid(asid, sat_obs::FlushReason::Exit);
            batch.apply(tlb);
        }
        // A stale generation's entries are covered by the rollover
        // flush; flushing the raw value here would only hit — and
        // charge shootdown IPIs to — a new-generation process that
        // was reissued the same value.
        self.asids.running.retain(|_, p| *p != pid);
        self.stats.exits += 1;
        if sat_obs::enabled() {
            sat_obs::emit(
                sat_obs::Subsystem::Kernel,
                pid.raw(),
                asid.raw(),
                sat_obs::Payload::Exit,
            );
        }
        Ok(())
    }

    /// The domain-fault handler (Section 3.2.3): a non-zygote process
    /// matched a global TLB entry it has no domain rights to. The
    /// handler flushes every TLB entry matching the faulting address;
    /// on return the process re-faults into a normal table walk.
    pub fn domain_fault(&mut self, va: VirtAddr, tlb: &mut dyn TlbMaintenance) {
        self.stats.domain_faults += 1;
        tlb.flush(FlushOp::VaAllAsids(va), sat_obs::FlushReason::DomainFault);
        // The faulting process is not identified by the hardware (the
        // DACR check happens before translation completes), so the
        // event carries no pid/ASID.
        if sat_obs::enabled() {
            sat_obs::emit(
                sat_obs::Subsystem::Kernel,
                0,
                0,
                sat_obs::Payload::DomainFault { va: va.raw() },
            );
        }
    }

    /// Reads the PTE slot serving `va` in `pid`, if populated.
    pub fn pte(&mut self, pid: Pid, va: VirtAddr) -> SatResult<Option<PteSlot>> {
        let mm = self.procs.get_mut(pid).ok_or(SatError::NoSuchProcess)?;
        let mapper = Mapper::new(&mut mm.root, &mut self.ptps, &mut self.phys, pid);
        Ok(mapper.get_pte(va))
    }

    /// Snapshot for the paper's Figure 12: of the PTPs currently
    /// referenced by `pid`, how many are shared with at least one
    /// other process. Returns `(shared, total)`. Answered from the
    /// registry — no mapcount scan.
    pub fn ptp_share_snapshot(&self, pid: Pid) -> SatResult<(usize, usize)> {
        let mm = self.mm(pid)?;
        let mut shared = 0;
        let mut total = 0;
        for (_, frame) in mm.root.iter_ptps() {
            total += 1;
            if self.registry.shared_with_others(frame) {
                shared += 1;
            }
        }
        Ok((shared, total))
    }

    /// Every consistency check the kernel has, in one call: the reverse
    /// map and free list against the frame table
    /// ([`PhysMem::rmap_verify`]), the share accounting
    /// ([`Kernel::verify_share_accounting`]), reverse-map ownership
    /// ([`Kernel::verify_rmap_ownership`]), the page-table arena
    /// ([`PtpStore::verify`]), COW soundness (no private writable PTE
    /// maps a frame mapped more than once), the zygote domain (only a
    /// zygote-like process is granted it, and every global mapping sits
    /// in it), and every live process's root table
    /// ([`sat_mmu::RootTable::verify`]) and region list
    /// ([`Mm::verify_regions`]), and two ledgers that nothing resets:
    /// [`KernelStats`] counts as many Figure-6 unshares as the
    /// registry's stats, and every eviction is refaulted or still
    /// evicted. Returns a description of the first violation found.
    /// Tests call it after the operations they drive; it reads and
    /// never changes anything.
    pub fn audit(&self) -> Result<(), String> {
        self.phys.rmap_verify()?;
        self.verify_share_accounting()?;
        let (stats, registry) = (self.stats.ptp_unshares, self.registry.stats.ptp_unshares);
        if stats != registry {
            return Err(format!(
                "KernelStats counts {stats} unshares, the registry {registry}"
            ));
        }
        let (phys, still) = (self.phys.stats(), self.phys.still_evicted() as u64);
        if phys.evictions != phys.refaults + still {
            let (e, r) = (phys.evictions, phys.refaults);
            return Err(format!(
                "{e} evictions but {r} refaults and {still} still evicted"
            ));
        }
        self.verify_rmap_ownership()?;
        self.ptps.verify()?;
        self.verify_cow()?;
        self.verify_zygote_domain()?;
        for mm in self.procs.iter() {
            let root = mm.root.verify();
            root.map_err(|e| format!("root of {:?}: {e}", mm.pid))?;
            let regions = mm.verify_regions();
            regions.map_err(|e| format!("regions of {:?}: {e}", mm.pid))?;
        }
        Ok(())
    }

    /// COW soundness, for [`Kernel::audit`]: no valid, writable,
    /// non-`shared` PTE maps a frame whose mapcount is above 1, each
    /// slot checked against its own frame (a 64KB page frame by frame).
    /// Private tables are read through their process, shared ones once
    /// through the registry — unless `l1_write_protect` guards them.
    fn verify_cow(&self) -> Result<(), String> {
        let private = self.procs.iter().flat_map(|mm| {
            let tables = mm.root.iter_ptps();
            tables.filter(|&(pair, _)| !mm.root.entry(pair).need_copy())
        });
        let guarded = self.config.l1_write_protect;
        let shared = self.registry.iter().filter(|_| !guarded);
        for frame in private.map(|(_, f)| f).chain(shared.map(|(f, _)| f)) {
            let table = self.ptps.get(frame).ok_or("level-1 entry names no PTP")?;
            for (_, idx, slot) in table.iter() {
                let mapcount = self.phys.mapcount(slot.hw.frame_for_slot(idx));
                if slot.hw.perms.write() && !slot.sw.shared && mapcount > 1 {
                    let what = "writable and private, its frame mapped";
                    return Err(format!("{frame:?} slot {idx}: {what} {mapcount}x"));
                }
            }
        }
        Ok(())
    }

    /// The zygote domain, for [`Kernel::audit`] (Section 3.2.3): only a
    /// zygote-like process's DACR grants [`Domain::ZYGOTE`], and every
    /// PTE with the global bit sits under a level-1 entry in that
    /// domain. Together they make a
    /// global TLB entry usable by zygote-like processes alone: any other
    /// process that matches one takes a domain fault.
    fn verify_zygote_domain(&self) -> Result<(), String> {
        for mm in self.procs.iter() {
            let granted = mm.dacr.access(Domain::ZYGOTE) != DomainAccess::NoAccess;
            if granted && !mm.is_zygote_like() {
                let what = "is not zygote-like but its DACR grants the zygote domain";
                return Err(format!("{:?} {what}", mm.pid));
            }
            let halves = mm.root.iter_ptps().flat_map(|(pair, _)| [pair, pair + 1]);
            for l1 in halves {
                let global_outside = match mm.root.entry(l1) {
                    L1Entry::Table {
                        ptp, half, domain, ..
                    } if domain != Domain::ZYGOTE => {
                        let table = self.ptps.get(ptp).ok_or("level-1 entry names no PTP")?;
                        table.iter_half(half).any(|(_, slot)| slot.hw.global)
                    }
                    _ => false,
                };
                if global_outside {
                    let what = "maps a global page outside the zygote domain";
                    return Err(format!("{:?} level-1 entry {l1} {what}", mm.pid));
                }
            }
        }
        Ok(())
    }

    /// Reconciliation check used by the property tests: every registry
    /// entry's sharer count must equal both the frame's mapcount and
    /// the number of live processes whose level-1 pair references the
    /// frame with `NEED_COPY` — and no `NEED_COPY` reference may exist
    /// outside the registry. Also checks that the four by-cause
    /// unshare counters sum to `ptp_unshares`. Returns a description
    /// of the first violation found.
    ///
    /// A `NEED_COPY` pair whose entry counts one sharer is legal — it
    /// is what the exit of every other sharer leaves, and what a fork
    /// that ran out of frames after sharing a chunk leaves in the
    /// parent, write-protected PTEs included; the lone sharer takes the
    /// last-sharer path at its next unshare.
    pub fn verify_share_accounting(&self) -> Result<(), String> {
        let mut refs: BTreeMap<Pfn, u32> = BTreeMap::new();
        for mm in self.procs.iter() {
            for (idx, frame) in mm.root.iter_ptps() {
                if mm.root.entry(idx).need_copy() {
                    *refs.entry(frame).or_insert(0) += 1;
                }
            }
        }
        for (frame, entry) in self.registry.iter() {
            let n = refs.remove(&frame).unwrap_or(0);
            if entry.sharers != n {
                return Err(format!(
                    "registry records {} sharers for {frame:?} but {n} NEED_COPY references exist",
                    entry.sharers
                ));
            }
            let mapcount = self.phys.mapcount(frame);
            if entry.sharers != mapcount {
                return Err(format!(
                    "registry records {} sharers for {frame:?} but mapcount is {mapcount}",
                    entry.sharers
                ));
            }
        }
        if let Some((frame, n)) = refs.into_iter().next() {
            return Err(format!(
                "{n} NEED_COPY references to {frame:?} with no registry entry"
            ));
        }
        let s = &self.registry.stats;
        let by_cause = s.unshares_write_fault
            + s.unshares_new_region
            + s.unshares_region_free
            + s.unshares_region_op;
        if s.ptp_unshares != by_cause {
            return Err(format!(
                "by-cause unshare counters sum to {by_cause}, ptp_unshares is {}",
                s.ptp_unshares
            ));
        }
        Ok(())
    }

    /// Checks the reverse map's ownership rule in both directions
    /// (DESIGN.md §14): the entries filed for a frame are exactly the
    /// PTEs that map it, each under the owner the rule names — the pid
    /// of a process whose level-1 entry reaches the PTE *without*
    /// `NEED_COPY`, or
    /// [`Pid::SHARED_TABLE`], with multiplicity, for a slot of a
    /// registry-listed table. Returns a description of the first frame
    /// whose entries and PTEs differ.
    pub fn verify_rmap_ownership(&self) -> Result<(), String> {
        // What the page tables say the reverse map should hold.
        let mut held: BTreeMap<Pfn, Vec<(Pid, VirtAddr)>> = BTreeMap::new();
        let mut hold = |frame: Pfn, owner: Pid, va: VirtAddr| {
            let kind = self.phys.page(frame).kind;
            if matches!(kind, FrameKind::Anon | FrameKind::File { .. }) {
                held.entry(frame).or_default().push((owner, va));
            }
        };
        for mm in self.procs.iter() {
            let halves = mm.root.iter_ptps().flat_map(|(pair, _)| [pair, pair + 1]);
            for l1 in halves {
                let L1Entry::Table {
                    ptp,
                    half,
                    need_copy,
                    ..
                } = mm.root.entry(l1)
                else {
                    continue;
                };
                if need_copy {
                    // Its slots are held once, through the registry.
                    if self.registry.entry(ptp).is_none() {
                        return Err(format!(
                            "{:?} reaches {ptp:?} with NEED_COPY but the registry does not list it",
                            mm.pid
                        ));
                    }
                    continue;
                }
                let table = self.ptps.get(ptp).ok_or("level-1 entry names no PTP")?;
                for (idx, slot) in table.iter_half(half) {
                    let va = VirtAddr::new(((l1 as u32) << 20) + idx as u32 * PAGE_SIZE);
                    hold(slot.hw.frame_for_slot(idx), mm.pid, va);
                }
            }
        }
        for (ptp, e) in self.registry.iter() {
            let table = self.ptps.get(ptp).ok_or("registry lists no PTP")?;
            for (half, idx, slot) in table.iter() {
                let va = Mapper::slot_va(e.chunk, half, idx);
                hold(slot.hw.frame_for_slot(idx), Pid::SHARED_TABLE, va);
            }
        }
        let mut ptes = 0;
        for (frame, mut ptes_of) in held {
            ptes_of.sort_unstable();
            ptes += ptes_of.len();
            let filed = self.phys.rmap_entries(frame);
            if filed != ptes_of {
                return Err(format!(
                    "{frame:?}: the rmap files {filed:?} but the PTEs mapping it are {ptes_of:?}"
                ));
            }
        }
        // Every mapped frame's entries matched, so any surplus sits on
        // a frame no PTE maps.
        if ptes != self.phys.rmap_total() {
            return Err(format!(
                "the rmap files {} entries but live tables hold {ptes} data PTEs",
                self.phys.rmap_total()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NoTlb, PromotePolicy};
    use sat_types::{RegionTag, PAGE_SIZE};

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

    #[test]
    #[should_panic(expected = "frames exceed")]
    fn a_kernel_past_the_32_bit_physical_space_is_refused() {
        Kernel::new(KernelConfig::stock(), sat_types::MAX_FRAMES + 1);
    }

    #[test]
    #[should_panic(expected = "1MB section promotion was removed")]
    fn a_kernel_asked_for_section_promotion_is_refused() {
        let policy = PromotePolicy {
            sections: true,
            ..PromotePolicy::off()
        };
        Kernel::new(KernelConfig::stock().with_promote(policy), 1024);
    }

    #[test]
    fn processes_iterate_in_pid_order_and_skip_exited() {
        let mut k = Kernel::new(KernelConfig::stock(), 1024);
        for raw in 1..=5 {
            assert_eq!(k.create_process().unwrap(), Pid::new(raw));
        }
        assert_eq!(k.process_count(), 5);
        k.exit(Pid::new(2), &mut NoTlb).unwrap();
        k.exit(Pid::new(4), &mut NoTlb).unwrap();
        let live: Vec<u32> = k
            .processes()
            .map(|(pid, mm)| {
                assert_eq!(*pid, mm.pid);
                pid.raw()
            })
            .collect();
        assert_eq!(live, [1, 3, 5]);
        assert_eq!(k.process_count(), 3);
        for gone in [0, 2, 99, u32::MAX] {
            let pid = Pid::new(gone);
            assert_eq!(k.mm(pid).err(), Some(SatError::NoSuchProcess), "{pid}");
            assert_eq!(k.mm_mut(pid).err(), Some(SatError::NoSuchProcess));
            assert_eq!(k.exit(pid, &mut NoTlb), Err(SatError::NoSuchProcess));
        }
        assert_eq!(k.process_count(), 3);
        // Pids are never reused: the next one is 6, not 2.
        assert_eq!(k.create_process().unwrap(), Pid::new(6));
        assert_eq!(k.process_count(), 4);
        assert_eq!(k.processes().last().unwrap().0.raw(), 6);
    }

    #[test]
    fn fork_of_a_pid_that_does_not_exist_takes_no_pid_and_no_asid() {
        let mut k = Kernel::new(KernelConfig::stock(), 1024);
        let parent = k.create_process().unwrap();
        let exited = k.fork(parent).unwrap().child;
        k.exit(exited, &mut NoTlb).unwrap();
        // More bad calls than there are ASIDs: were each to take one,
        // the generation would roll and owe a machine-wide flush.
        for _ in 0..300 {
            for gone in [Pid::new(9999), exited] {
                assert_eq!(k.fork(gone).err(), Some(SatError::NoSuchProcess));
            }
        }
        assert_eq!(k.asid_generation(), 1);
        assert_eq!(k.stats.asid_rollovers, 0);
        assert!(!k.rollover_flush_pending());
        assert_eq!(k.stats.forks, 1);
        // The next real child is numbered as if they never happened.
        let child = k.fork(parent).unwrap().child;
        assert_eq!(child, Pid::new(exited.raw() + 1));
        assert_eq!(
            k.mm(child).unwrap().asid.raw(),
            k.mm(parent).unwrap().asid.raw() + 2
        );
    }

    /// Boots a minimal zygote: one library (8 pages code) preloaded
    /// and touched, one heap page written.
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
        let heap = MmapRequest::anon(2 * PAGE_SIZE, Perms::RW, RegionTag::Heap, "[heap]")
            .at(VirtAddr::new(0x0900_0000));
        k.mmap(zygote, &heap, &mut NoTlb).unwrap();
        k.page_fault(
            zygote,
            VirtAddr::new(0x0900_0000),
            AccessType::Write,
            &mut NoTlb,
        )
        .unwrap();
        (k, zygote)
    }

    #[test]
    fn stock_fork_refaults_code_in_child() {
        let (mut k, zygote) = boot(KernelConfig::stock());
        let f = k.fork(zygote).unwrap();
        assert_eq!(f.ptps_shared, 0);
        assert_eq!(f.ptes_copied, 1); // the heap page only
                                      // Child faults on code: soft fault (page cache warm).
        let o = k
            .page_fault(
                f.child,
                VirtAddr::new(0x4000_0000),
                AccessType::Execute,
                &mut NoTlb,
            )
            .unwrap();
        assert_eq!(o.vm.kind, sat_vm::FaultKind::Minor);
        assert!(!o.unshared);
    }

    #[test]
    fn copied_ptes_fork_copies_code_too() {
        let (mut k, zygote) = boot(KernelConfig::copied_ptes());
        let f = k.fork(zygote).unwrap();
        assert_eq!(f.ptes_copied, 9); // 8 code + 1 heap
        assert!(k
            .pte(f.child, VirtAddr::new(0x4000_0000))
            .unwrap()
            .is_some());
    }

    #[test]
    fn shared_fork_eliminates_child_code_faults() {
        let (mut k, zygote) = boot(KernelConfig::shared_ptp());
        let f = k.fork(zygote).unwrap();
        assert!(f.ptps_shared >= 1);
        assert_eq!(f.ptes_copied, 0); // heap PTE is in a shared PTP too
                                      // The child's code PTEs are immediately present.
        assert!(k
            .pte(f.child, VirtAddr::new(0x4000_0000))
            .unwrap()
            .is_some());
    }

    /// Records the maintenance a fault gathered under `FaultRepair`.
    #[derive(Default)]
    struct Repairs(Vec<FlushOp>);

    impl TlbMaintenance for Repairs {
        fn flush(&mut self, op: FlushOp, reason: sat_obs::FlushReason) {
            if reason == sat_obs::FlushReason::FaultRepair {
                self.0.push(op);
            }
        }
    }

    #[test]
    fn a_fault_shoots_down_only_what_a_present_pte_left_cached() {
        let repairs = |k: &mut Kernel, pid, va, access| {
            let mut tlb = Repairs::default();
            k.page_fault(pid, VirtAddr::new(va), access, &mut tlb)
                .unwrap();
            tlb.0
        };
        let (mut k, zygote) = boot(KernelConfig::shared_ptp_tlb());
        // No TLB caches an invalid PTE.
        assert_eq!(repairs(&mut k, zygote, 0x0900_1000, AccessType::Read), []);
        // A copy-on-write break: the page, in the child's ASID.
        let child = k.fork(zygote).unwrap().child;
        let asid = k.mm(child).unwrap().asid;
        let vpn = 0x0900_0000 >> 12;
        let cow = repairs(&mut k, child, 0x0900_0000, AccessType::Write);
        assert_eq!(cow, [FlushOp::Page { asid, vpn }]);
        // A break of a global PTE: the page, in every ASID.
        let code = VirtAddr::new(0x4000_0000);
        let range = VaRange::from_len(code, PAGE_SIZE);
        k.mprotect(zygote, range, Perms::RWX, &mut NoTlb).unwrap();
        let global = repairs(&mut k, zygote, code.raw(), AccessType::Write);
        assert_eq!(global, [FlushOp::VaAllAsids(code)]);
    }

    #[test]
    fn write_fault_in_shared_ptp_unshares_then_cows() {
        let (mut k, zygote) = boot(KernelConfig::shared_ptp());
        let f = k.fork(zygote).unwrap();
        let heap = VirtAddr::new(0x0900_0000);
        let o = k
            .page_fault(f.child, heap, AccessType::Write, &mut NoTlb)
            .unwrap();
        assert!(o.unshared);
        assert_eq!(o.vm.kind, sat_vm::FaultKind::Cow);
        // Parent and child now map different frames.
        let p = k.pte(zygote, heap).unwrap().unwrap().hw.pfn;
        let c = k.pte(f.child, heap).unwrap().unwrap().hw.pfn;
        assert_ne!(p, c);
    }

    #[test]
    fn zygote_mmap_of_code_marks_region_global_under_tlb_sharing() {
        let (mut k, zygote) = boot(KernelConfig::shared_ptp_tlb());
        assert!(
            k.mm(zygote)
                .unwrap()
                .vma_at(VirtAddr::new(0x4000_0000))
                .unwrap()
                .global
        );
        // And the populated PTEs carry the global bit.
        let slot = k.pte(zygote, VirtAddr::new(0x4000_0000)).unwrap().unwrap();
        assert!(slot.hw.global);
    }

    #[test]
    fn stock_kernel_never_sets_global() {
        let (mut k, zygote) = boot(KernelConfig::stock());
        let slot = k.pte(zygote, VirtAddr::new(0x4000_0000)).unwrap().unwrap();
        assert!(!slot.hw.global);
        assert!(
            !k.mm(zygote)
                .unwrap()
                .vma_at(VirtAddr::new(0x4000_0000))
                .unwrap()
                .global
        );
    }

    #[test]
    fn child_inherits_global_regions_and_zygote_domain() {
        let (mut k, zygote) = boot(KernelConfig::shared_ptp_tlb());
        let f = k.fork(zygote).unwrap();
        let mm = k.mm(f.child).unwrap();
        assert!(mm.is_zygote_child);
        assert!(mm.vma_at(VirtAddr::new(0x4000_0000)).unwrap().global);
        assert_eq!(
            mm.dacr.access(Domain::ZYGOTE),
            sat_types::DomainAccess::Client
        );
        // Non-zygote process gets no zygote-domain access.
        let outsider = k.create_process().unwrap();
        assert_eq!(
            k.mm(outsider).unwrap().dacr.access(Domain::ZYGOTE),
            sat_types::DomainAccess::NoAccess
        );
    }

    #[test]
    fn mmap_into_shared_chunk_unshares_eagerly() {
        let (mut k, zygote) = boot(KernelConfig::shared_ptp());
        let f = k.fork(zygote).unwrap();
        // Child maps a new region in the code chunk's 2MB span.
        let req = MmapRequest::anon(PAGE_SIZE, Perms::RW, RegionTag::AppData, "newdata")
            .at(VirtAddr::new(0x4010_0000));
        k.mmap(f.child, &req, &mut NoTlb).unwrap();
        let child_mm = k.mm(f.child).unwrap();
        assert!(!child_mm
            .root
            .entry_for(VirtAddr::new(0x4000_0000))
            .need_copy());
        assert_eq!(child_mm.counters.unshares_by_region_op, 1);
        // The zygote still considers its PTP shared until it modifies.
        assert!(k
            .mm(zygote)
            .unwrap()
            .root
            .entry_for(VirtAddr::new(0x4000_0000))
            .need_copy());
    }

    #[test]
    fn munmap_unshares_then_frees_region() {
        let (mut k, zygote) = boot(KernelConfig::shared_ptp());
        let f = k.fork(zygote).unwrap();
        let heap_range = VaRange::from_len(VirtAddr::new(0x0900_0000), 2 * PAGE_SIZE);
        k.munmap(f.child, heap_range, &mut NoTlb).unwrap();
        assert!(k
            .mm(f.child)
            .unwrap()
            .vma_at(VirtAddr::new(0x0900_0000))
            .is_none());
        // Parent's heap PTE must be intact (the child unshared first).
        assert!(k.pte(zygote, VirtAddr::new(0x0900_0000)).unwrap().is_some());
    }

    #[test]
    fn mprotect_unshares_affected_chunks() {
        let (mut k, zygote) = boot(KernelConfig::shared_ptp());
        let f = k.fork(zygote).unwrap();
        let code = VaRange::from_len(VirtAddr::new(0x4000_0000), 8 * PAGE_SIZE);
        k.mprotect(f.child, code, Perms::R, &mut NoTlb).unwrap();
        assert!(!k
            .mm(f.child)
            .unwrap()
            .root
            .entry_for(code.start)
            .need_copy());
        // Parent keeps executable permissions.
        assert_eq!(
            k.pte(zygote, code.start).unwrap().unwrap().hw.perms,
            Perms::RX
        );
        assert_eq!(
            k.pte(f.child, code.start).unwrap().unwrap().hw.perms,
            Perms::R
        );
    }

    #[test]
    fn exit_skips_reclaiming_shared_ptps() {
        let (mut k, zygote) = boot(KernelConfig::shared_ptp());
        let f = k.fork(zygote).unwrap();
        let ptps_before = k.ptps.len();
        k.exit(f.child, &mut NoTlb).unwrap();
        // All PTPs survive (the zygote still references them).
        assert_eq!(k.ptps.len(), ptps_before);
        assert!(k.pte(zygote, VirtAddr::new(0x4000_0000)).unwrap().is_some());
        // Now the zygote exits too; everything is reclaimed.
        k.exit(zygote, &mut NoTlb).unwrap();
        assert!(k.ptps.is_empty());
    }

    #[test]
    fn many_children_share_one_set_of_ptps() {
        let (mut k, zygote) = boot(KernelConfig::shared_ptp());
        let baseline_ptps = k.ptps.len();
        let mut children = Vec::new();
        for _ in 0..8 {
            children.push(k.fork(zygote).unwrap().child);
        }
        // No new PTPs at all: everything is shared.
        assert_eq!(k.ptps.len(), baseline_ptps);
        let (shared, total) = k.ptp_share_snapshot(zygote).unwrap();
        assert_eq!(shared, total);
        for c in children {
            k.exit(c, &mut NoTlb).unwrap();
        }
        let (shared, _) = k.ptp_share_snapshot(zygote).unwrap();
        assert_eq!(shared, 0);
    }

    #[test]
    fn soft_fault_population_visible_to_later_children() {
        // Paper Section 4.2.1: "all subsequent applications can also
        // benefit from the PTEs populated by the applications launched
        // earlier".
        let (mut k, zygote) = boot(KernelConfig::shared_ptp());
        // Extend the library mapping with untouched pages.
        let lib2 = k.files.register("libextra.so", 4 * PAGE_SIZE);
        k.mmap(zygote, &code_req(lib2, 4, 0x4008_0000), &mut NoTlb)
            .unwrap();
        let f1 = k.fork(zygote).unwrap();
        // Child 1 faults a page the zygote never touched.
        let va = VirtAddr::new(0x4008_1000);
        let o = k
            .page_fault(f1.child, va, AccessType::Execute, &mut NoTlb)
            .unwrap();
        assert_eq!(o.vm.kind, sat_vm::FaultKind::Major);
        // A child forked afterwards sees the PTE without faulting.
        let f2 = k.fork(zygote).unwrap();
        assert!(k.pte(f2.child, va).unwrap().is_some());
        // So does the zygote itself.
        assert!(k.pte(zygote, va).unwrap().is_some());
    }

    // The ASID-rollover invariant tests live with the allocator in
    // `crate::asid`.

    #[test]
    fn domain_fault_counter_increments() {
        let mut k = Kernel::new(KernelConfig::shared_ptp_tlb(), 1024);
        k.domain_fault(VirtAddr::new(0x4000_0000), &mut NoTlb);
        assert_eq!(k.stats.domain_faults, 1);
    }
}
