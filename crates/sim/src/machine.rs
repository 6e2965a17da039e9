//! The machine: cores, TLBs, caches, and the full access path.

use sat_cache::{AccessKind, Cache, CacheConfig, CacheHierarchy};
use sat_core::{FlushOp, ForkOutcome, Kernel, PromoteReport, TlbMaintenance, TlbProtection};
use sat_mmu::{walk, FaultRecord, FaultStatus, Translation, WalkOutcome};
use sat_obs::{ChargeCause, FlushReason, FlushScope};
use sat_tlb::{MainTlb, MicroTlb, TlbEntry, TlbLookup};
use sat_types::{
    AccessType, Asid, Domain, DomainAccess, PageSize, Perms, Pfn, Pid, SatError, SatResult,
    VaRange, VirtAddr, VpnRange, KERNEL_SPACE_START,
};
use sat_vm::{FaultKind, Mm, MmapRequest};

use crate::model::CycleModel;

/// Physical base where the (synthetic, linearly mapped) kernel image
/// lives.
pub const KERNEL_PHYS_BASE: u32 = 0x3000_0000;

/// Kernel-text page where the page-fault handler path begins.
pub const FAULT_HANDLER_PAGE: u32 = 0x300;

/// Kernel-text page where the binder IPC path begins.
pub const BINDER_PATH_PAGE: u32 = 0x310;

/// Kernel-text page where the scheduler path begins.
pub const SCHED_PATH_PAGE: u32 = 0x320;

/// Cache lines per 4KB page.
const LINES_PER_PAGE: u32 = 128;

/// Bytes per cache line.
const LINE_BYTES: u32 = 32;

/// 4KB pages in kernel space (2³² − `KERNEL_SPACE_START` bytes).
const KERNEL_PAGES: u32 = KERNEL_SPACE_START.wrapping_neg() / 4096;

/// Per-core hardware counters (the PMU analogue).
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct CoreStats {
    /// Cycles accumulated on this core.
    pub cycles: u64,
    /// Instruction fetches performed.
    pub inst_fetches: u64,
    /// Data accesses performed.
    pub data_accesses: u64,
    /// Page faults taken.
    pub page_faults: u64,
    /// Domain faults taken.
    pub domain_faults: u64,
    /// Context switches.
    pub context_switches: u64,
    /// Stall cycles waiting on main-TLB misses for instruction
    /// fetches (the Figure 13 metric).
    pub inst_main_tlb_stall_cycles: u64,
    /// Stall cycles waiting on main-TLB misses for data accesses.
    pub data_main_tlb_stall_cycles: u64,
    /// TLB-shootdown IPIs this core received (a precise shootdown
    /// targeted it because the ASID was resident here).
    pub tlb_shootdown_ipis: u64,
}

/// One Cortex-A9-like core.
#[derive(Default)]
pub struct Core {
    /// The unified 128-entry main TLB.
    pub main_tlb: MainTlb,
    /// Instruction micro-TLB (flushed on context switch).
    pub micro_i: MicroTlb,
    /// Data micro-TLB (flushed on context switch).
    pub micro_d: MicroTlb,
    /// Private L1 caches.
    pub caches: CacheHierarchy,
    /// Currently scheduled process.
    pub current: Option<Pid>,
    /// PMU counters.
    pub stats: CoreStats,
    /// Which ASIDs have had a non-global entry inserted into this
    /// core's main TLB since the last flush that could remove them —
    /// the residency map precise shootdowns consult. One bit per
    /// 8-bit ASID value. Conservative: per-VA flushes leave bits set.
    resident_asids: [u64; 4],
}

impl Core {
    /// Marks `asid` resident on this core (a non-global entry tagged
    /// with it entered the main TLB).
    fn note_resident(&mut self, asid: Asid) {
        let a = asid.raw() as usize;
        self.resident_asids[a / 64] |= 1 << (a % 64);
    }

    /// Whether `asid` may still have non-global entries here.
    pub fn asid_resident(&self, asid: Asid) -> bool {
        let a = asid.raw() as usize;
        self.resident_asids[a / 64] & (1 << (a % 64)) != 0
    }

    /// Clears `asid`'s residency (after a per-ASID flush).
    fn clear_resident(&mut self, asid: Asid) {
        let a = asid.raw() as usize;
        self.resident_asids[a / 64] &= !(1 << (a % 64));
    }

    /// Clears every residency bit (after a full or non-global flush).
    fn clear_all_resident(&mut self) {
        self.resident_asids = [0; 4];
    }

    /// Number of ASIDs currently marked resident on this core — the
    /// population the precise-shootdown path consults.
    pub fn resident_asid_count(&self) -> u32 {
        self.resident_asids.iter().map(|w| w.count_ones()).sum()
    }

    /// Runs `op` on this core's TLBs — the main-TLB primitive, then
    /// the micro-TLB invalidation that keeps the untagged micro TLBs
    /// coherent with it — and reports each as a
    /// [`sat_obs::Payload::TlbFlush`] attributed to `reason`. A
    /// main-TLB flush is reported even when it drops nothing: event
    /// counts reconcile with `TlbStats::full_flushes`, not just entry
    /// sums. A micro-TLB flush is reported only when it drops
    /// something.
    fn flush(&mut self, op: FlushOp, reason: FlushReason) {
        let tlb = &mut self.main_tlb;
        let (scope, asid, entries) = match op {
            FlushOp::Page { asid, vpn } => {
                (FlushScope::Page, Some(asid), tlb.flush_page(asid, vpn))
            }
            FlushOp::Range { asid, range } => {
                (FlushScope::Range, Some(asid), tlb.flush_range(asid, range))
            }
            FlushOp::VaAllAsids(va) => (FlushScope::VaAllAsids, None, tlb.flush_va_all_asids(va)),
            FlushOp::Asid(asid) => (FlushScope::Asid, Some(asid), tlb.flush_asid(asid)),
            FlushOp::NonGlobal => (FlushScope::NonGlobal, None, tlb.flush_non_global()),
            FlushOp::All => (FlushScope::All, None, tlb.flush_all()),
        };
        report_flush(scope, reason, asid, entries);
        // The untagged micro TLBs honour per-VA maintenance (ARM's
        // `TLBIMVA` reaches them), so a narrow scope carries down; a
        // wider one clears them.
        for micro in [&mut self.micro_i, &mut self.micro_d] {
            let (scope, entries) = match op {
                FlushOp::Page { vpn, .. } => (
                    FlushScope::MicroVa,
                    micro.flush_range(VpnRange::single(vpn)),
                ),
                FlushOp::Range { range, .. } => (FlushScope::MicroVa, micro.flush_range(range)),
                FlushOp::VaAllAsids(va) => (FlushScope::MicroVa, micro.flush_va(va)),
                FlushOp::Asid(_) | FlushOp::NonGlobal | FlushOp::All => {
                    (FlushScope::MicroAll, micro.flush())
                }
            };
            if entries > 0 {
                report_flush(scope, reason, None, entries);
            }
        }
    }

    /// Clears both micro TLBs on a context switch. Reported only when
    /// it drops something, as every micro-TLB flush: micro TLBs fire on
    /// every switch and carry no `TlbStats`.
    fn flush_micro(&mut self, reason: FlushReason) {
        for micro in [&mut self.micro_i, &mut self.micro_d] {
            let entries = micro.flush();
            if entries > 0 {
                report_flush(FlushScope::MicroAll, reason, None, entries);
            }
        }
    }
}

/// Reports one TLB flush as a [`sat_obs::Payload::TlbFlush`].
fn report_flush(scope: FlushScope, reason: FlushReason, asid: Option<Asid>, entries: usize) {
    if sat_obs::enabled() {
        sat_obs::emit(
            sat_obs::Subsystem::Tlb,
            0,
            asid.map_or(0, |a| a.raw()),
            sat_obs::Payload::TlbFlush {
                scope,
                reason,
                entries: entries as u64,
            },
        );
    }
}

/// A [`TlbMaintenance`] view over every core's TLBs: kernel flush
/// operations behave as TLB shootdowns across the machine.
///
/// [`FlushOp::Asid`], [`FlushOp::Page`] and [`FlushOp::Range`] are
/// *precise* shootdowns: they consult each core's residency map and IPI
/// (flush + charge `ipi_cost` to) only the cores where the target
/// ASID may still hold non-global entries. Skipped cores pay nothing
/// and bump `TlbStats::avoided_flushes`. When the view carries an
/// `initiator`, that core invalidates with a local `TLBI` instead of
/// an IPI — Linux's `flush_tlb_*` issue the local invalidation
/// inline and IPI only the *other* CPUs in `mm_cpumask`.
struct MachineTlbView<'a> {
    cores: &'a mut [Core],
    /// Cycles charged to each *targeted* core (`CycleModel::ipi`).
    ipi_cost: u64,
    /// The core running the kernel operation, if known: its own
    /// invalidation is local, not an IPI.
    initiator: Option<usize>,
}

impl MachineTlbView<'_> {
    /// Resolves one precise shootdown: runs `op` on every core where
    /// `asid` may be resident, charges IPIs to all targeted cores but
    /// the initiator, and emits the
    /// [`sat_obs::Payload::TlbShootdown`] accounting event.
    /// `clear_residency` is set for full-ASID invalidations only —
    /// page/range flushes may leave other entries of the ASID behind.
    fn shootdown(
        &mut self,
        asid: Asid,
        scope: FlushScope,
        clear_residency: bool,
        op: FlushOp,
        reason: FlushReason,
    ) {
        let mut targeted = 0u32;
        let mut local = 0u32;
        let mut skipped = 0u32;
        for (i, core) in self.cores.iter_mut().enumerate() {
            if core.asid_resident(asid) {
                core.flush(op, reason);
                if clear_residency {
                    core.clear_resident(asid);
                }
                targeted += 1;
                if self.initiator == Some(i) {
                    // The initiating core invalidates its own TLB
                    // inline; no interrupt, no IPI latency.
                    local += 1;
                } else {
                    core.stats.cycles += self.ipi_cost;
                    core.stats.tlb_shootdown_ipis += 1;
                    // The interrupted core pays the IPI, so whatever
                    // request is running *there* gets the blame.
                    sat_obs::charge(i, ChargeCause::Ipi, self.ipi_cost);
                }
            } else {
                // The ASID never loaded a non-global entry here (and
                // the untagged micro TLBs only ever mirror main-TLB
                // fills): nothing to invalidate, no IPI.
                core.main_tlb.note_avoided_flush();
                skipped += 1;
            }
        }
        if sat_obs::enabled() {
            sat_obs::emit(
                sat_obs::Subsystem::Sim,
                0,
                asid.raw(),
                sat_obs::Payload::TlbShootdown {
                    asid: asid.raw(),
                    scope,
                    cores_targeted: targeted,
                    cores_local: local,
                    cores_skipped: skipped,
                },
            );
        }
    }
}

impl TlbMaintenance for MachineTlbView<'_> {
    fn flush(&mut self, op: FlushOp, reason: FlushReason) {
        match op {
            FlushOp::Asid(asid) => self.shootdown(asid, FlushScope::Asid, true, op, reason),
            FlushOp::Page { asid, .. } => self.shootdown(asid, FlushScope::Page, false, op, reason),
            FlushOp::Range { asid, .. } => {
                self.shootdown(asid, FlushScope::Range, false, op, reason)
            }
            // Global entries carry no ASID to find by residency: every
            // core flushes, with no IPI charged.
            FlushOp::VaAllAsids(_) => {
                for core in self.cores.iter_mut() {
                    core.flush(op, reason);
                }
            }
            FlushOp::NonGlobal | FlushOp::All => {
                for core in self.cores.iter_mut() {
                    core.flush(op, reason);
                    core.clear_all_resident();
                }
            }
        }
    }
}

/// Pages spanned by the fault-handler's kernel text. Different faults
/// exercise different slices of it (VMA lookup, rmap, page-cache and
/// allocator paths), so repeated faults pressure the L1 instruction
/// cache instead of staying resident — the effect behind the paper's
/// Figure 8.
pub const FAULT_PATH_PAGES: u32 = 16;

/// The simulated machine.
pub struct Machine {
    /// The kernel under test.
    pub kernel: Kernel,
    /// The cores (Tegra 3: four).
    pub cores: Vec<Core>,
    /// The shared L2 cache.
    pub l2: Cache,
    /// The cycle model.
    pub model: CycleModel,
    /// The most recent abort latched by the (simulated) FSR/FAR — what
    /// the exception handler reads to classify the fault.
    pub last_fault: Option<FaultRecord>,
    fault_seq: u64,
    /// Fetch every kernel-text run one line at a time, as before runs
    /// became one operation — the twin the differential test compares
    /// [`Machine::kernel_run`] with.
    #[cfg(test)]
    line_by_line: bool,
}

impl Machine {
    /// Builds a machine with `ncores` cores around `kernel`.
    pub fn new(kernel: Kernel, ncores: usize) -> Machine {
        Machine {
            kernel,
            cores: (0..ncores).map(|_| Core::default()).collect(),
            l2: Cache::new(CacheConfig::L2_1M),
            model: CycleModel::default(),
            last_fault: None,
            fault_seq: 0,
            #[cfg(test)]
            line_by_line: false,
        }
    }

    /// A single-core machine (the paper pins its measured workloads to
    /// one core with `cpuset`).
    pub fn single_core(kernel: Kernel) -> Machine {
        Machine::new(kernel, 1)
    }

    /// Publishes machine-wide occupancy gauges: the kernel's (frames,
    /// slab, registry, processes) plus per-core Main/Micro-TLB
    /// occupancy and ASID-residency population. Pure reads — safe at
    /// any sampling point.
    pub fn publish_gauges(&self) {
        self.kernel.publish_gauges();
        for (i, core) in self.cores.iter().enumerate() {
            sat_obs::gauge_set(
                &format!("tlb.main.occupancy.c{i}"),
                core.main_tlb.occupancy() as u64,
            );
            sat_obs::gauge_set(
                &format!("tlb.micro.occupancy.c{i}"),
                (core.micro_i.occupancy() + core.micro_d.occupancy()) as u64,
            );
            sat_obs::gauge_set(
                &format!("sim.asid.residency.c{i}"),
                u64::from(core.resident_asid_count()),
            );
        }
    }

    /// Runs `f` on the kernel with a TLB-shootdown view over this
    /// machine's cores and no initiating core, so every targeted core
    /// pays an IPI. It serves `benchmark/` and the test steps that must
    /// run beneath the machine; a kernel operation on the machine is
    /// one of the typed calls on a named core ([`Machine::fork`],
    /// [`Machine::exit`], [`Machine::mmap`], [`Machine::munmap`],
    /// [`Machine::mprotect`], [`Machine::promote_scan`]).
    pub fn syscall<R>(&mut self, f: impl FnOnce(&mut Kernel, &mut dyn TlbMaintenance) -> R) -> R {
        let mut view = MachineTlbView {
            cores: &mut self.cores,
            ipi_cost: self.model.ipi,
            initiator: None,
        };
        f(&mut self.kernel, &mut view)
    }

    /// Like [`Machine::syscall`], but the operation runs on `core`:
    /// shootdowns it triggers invalidate that core's TLB locally
    /// instead of paying an IPI there. Every kernel operation on the
    /// machine goes through here.
    fn syscall_on<R>(
        &mut self,
        core: usize,
        f: impl FnOnce(&mut Kernel, &mut dyn TlbMaintenance) -> R,
    ) -> R {
        let mut view = MachineTlbView {
            cores: &mut self.cores,
            ipi_cost: self.model.ipi,
            initiator: Some(core),
        };
        f(&mut self.kernel, &mut view)
    }

    /// `exit(2)` of `pid`, run on `core` ([`Kernel::exit`]): its ASID
    /// is shot down, and no core keeps it as its current process.
    pub fn exit(&mut self, core: usize, pid: Pid) -> SatResult<()> {
        self.syscall_on(core, |kernel, tlb| kernel.exit(pid, tlb))?;
        for c in &mut self.cores {
            if c.current == Some(pid) {
                c.current = None;
            }
        }
        Ok(())
    }

    /// `mmap(2)` into `pid`, run on `core` ([`Kernel::mmap`]).
    pub fn mmap(&mut self, core: usize, pid: Pid, req: &MmapRequest) -> SatResult<VirtAddr> {
        self.syscall_on(core, |kernel, tlb| kernel.mmap(pid, req, tlb))
    }

    /// `munmap(2)` of `range` in `pid`, run on `core`
    /// ([`Kernel::munmap`]).
    pub fn munmap(&mut self, core: usize, pid: Pid, range: VaRange) -> SatResult<usize> {
        self.syscall_on(core, |kernel, tlb| kernel.munmap(pid, range, tlb))
    }

    /// `mprotect(2)` of `range` in `pid` to `perms`, run on `core`
    /// ([`Kernel::mprotect`]).
    pub fn mprotect(
        &mut self,
        core: usize,
        pid: Pid,
        range: VaRange,
        perms: Perms,
    ) -> SatResult<()> {
        self.syscall_on(core, |kernel, tlb| kernel.mprotect(pid, range, perms, tlb))
    }

    /// One large-page promotion pass over `pid`, run on `core`
    /// ([`Kernel::promote_scan`]).
    pub fn promote_scan(&mut self, core: usize, pid: Pid) -> SatResult<PromoteReport> {
        self.syscall_on(core, |kernel, tlb| kernel.promote_scan(pid, tlb))
    }

    /// Charges `core` for the machine-wide non-global flush an ASID
    /// rollover deferred to it.
    fn charge_rollover_flush(&mut self, core: usize) {
        let cycles = self.model.asid_rollover;
        self.cores[core].stats.cycles += cycles;
        sat_obs::charge(core, ChargeCause::RolloverFlush, cycles);
    }

    /// Schedules `pid` on `core`, performing the architectural
    /// context-switch work: micro-TLB flush, DACR/ASID reload, and —
    /// per configuration — a full main-TLB flush (no ASIDs, or the
    /// flush-on-switch protection scheme for shared TLB entries).
    pub fn context_switch(&mut self, core: usize, pid: Pid) -> SatResult<()> {
        // Attribution follows the incoming pid from the first cycle of
        // switch work: charges below (rollover flush, switch cost,
        // scheduler text) land on the request bound to `pid`, or on
        // flow 0 when it carries none. Re-attributing *before* any
        // charge keeps the previous request's ledger closed at its
        // suspend stamp.
        sat_obs::flow_note_scheduled(core, pid.0);
        // Lazy ASID reassignment: if the allocator's generation rolled
        // over since `pid` last ran, it gets a fresh ASID here, and
        // the deferred machine-wide non-global flush fires before it
        // executes (global zygote entries survive). This runs even
        // when `pid` is already current — a core whose sole runnable
        // process stays current across a rollover must still validate
        // its generation and fire the pending flush before executing
        // again.
        let rollovers_before = self.kernel.stats.asid_rollovers;
        let flush_was_pending = self.kernel.rollover_flush_pending();
        self.syscall_on(core, |kernel, tlb| kernel.ensure_current_asid(pid, tlb))?;
        if flush_was_pending || self.kernel.stats.asid_rollovers > rollovers_before {
            self.charge_rollover_flush(core);
        }
        // The allocator reserves the ASIDs of on-core processes at
        // rollover time.
        self.kernel.note_running(core, pid);
        if self.cores[core].current == Some(pid) {
            // Already current: the generation check above is all the
            // re-schedule needs; skip the architectural switch work.
            return Ok(());
        }
        let prev = self.cores[core].current;
        let config = self.kernel.config;
        self.cores[core].flush_micro(FlushReason::ContextSwitch);
        let mut full_flush = !config.asid;
        if config.share_tlb && config.tlb_protection == TlbProtection::FlushOnSwitch {
            // Flush when switching from a zygote-like process to a
            // non-zygote process, so the latter cannot consume global
            // entries.
            let prev_zygote = prev
                .map(|p| {
                    self.kernel
                        .mm(p)
                        .map(|m| m.is_zygote_like())
                        .unwrap_or(false)
                })
                .unwrap_or(false);
            let next_zygote = self.kernel.mm(pid)?.is_zygote_like();
            if prev_zygote && !next_zygote {
                full_flush = true;
            }
        }
        let c = &mut self.cores[core];
        if full_flush {
            // The micro TLBs, cleared just above, drop nothing more.
            c.flush(FlushOp::All, FlushReason::ContextSwitch);
            c.clear_all_resident();
        }
        c.current = Some(pid);
        c.stats.context_switches += 1;
        c.stats.cycles += self.model.context_switch;
        sat_obs::charge(core, ChargeCause::ContextSwitch, self.model.context_switch);
        // The scheduler itself executes kernel code.
        self.kernel_lines(core, SCHED_PATH_PAGE, 80, ChargeCause::ContextSwitch)?;
        Ok(())
    }

    /// Performs one memory access (an instruction fetch, load, or
    /// store) at `va` on `core`, walking the full hardware path and
    /// invoking the kernel for page and domain faults. Returns the
    /// cycles charged.
    pub fn access(&mut self, core: usize, va: VirtAddr, access: AccessType) -> SatResult<u64> {
        let pid = self.cores[core]
            .current
            .ok_or(SatError::Internal("access with no process scheduled"))?;
        let mut cycles: u64 = 0;

        for _attempt in 0..8 {
            // Every path below that can change either (a page fault, a
            // domain fault, a faulting walk) ends in `continue`, so
            // what is read here holds for the rest of the attempt.
            let mm = self.kernel.mm(pid)?;
            let (asid, dacr) = (mm.asid, mm.dacr);
            // 1. Micro-TLB.
            let micro_hit = {
                let c = &mut self.cores[core];
                let micro = if access.is_fetch() {
                    &mut c.micro_i
                } else {
                    &mut c.micro_d
                };
                micro.lookup(va)
            };
            let entry = match micro_hit {
                Some(e) => e,
                None => {
                    // 2. Main TLB.
                    match self.cores[core].main_tlb.lookup(va, asid) {
                        TlbLookup::Hit(e) => {
                            self.fill_micro(core, access, e);
                            cycles += 1; // micro-miss, main-hit penalty
                            sat_obs::charge(core, ChargeCause::Exec, 1);
                            e
                        }
                        TlbLookup::Miss => {
                            // 3. Hardware table walk.
                            match self.walk_and_fill(core, pid, asid, va, access)? {
                                WalkFill::Entry(e, stall) => {
                                    cycles += stall;
                                    e
                                }
                                WalkFill::Faulted(fault_cycles) => {
                                    cycles += fault_cycles;
                                    continue; // retry the access
                                }
                            }
                        }
                    }
                }
            };

            // 4. Domain check against the current DACR.
            match dacr.access(entry.domain) {
                DomainAccess::NoAccess => {
                    cycles += self.domain_fault_path(core, va, access, entry.domain)?;
                    continue; // retry: the stale entries are gone
                }
                DomainAccess::Client => {
                    if !entry.perms.allows(access) {
                        // A missing descriptor is a translation fault,
                        // a present-but-insufficient one a permission
                        // fault: the tables decide, not the cached
                        // entry.
                        let mm = self.kernel.mm(pid)?;
                        let status = match walk(&mm.root, &self.kernel.ptps, va).outcome {
                            WalkOutcome::Fault(_) => FaultStatus::TranslationPage,
                            WalkOutcome::Translated(_) => FaultStatus::PermissionPage,
                        };
                        let abort = page_abort(mm, status, va, access);
                        cycles += self.page_fault_path(core, pid, access, abort)?;
                        continue; // retry with the repaired PTE
                    }
                }
                DomainAccess::Manager => {}
            }

            // 5. Cache access at the translated physical address.
            let pa = entry.translate(va);
            let kind = if access.is_fetch() {
                AccessKind::Instruction
            } else {
                AccessKind::Data
            };
            let stall = self.cores[core].caches.access(kind, pa, &mut self.l2);
            cycles += self.model.cpi + stall;
            sat_obs::charge(core, ChargeCause::Exec, self.model.cpi + stall);
            let stats = &mut self.cores[core].stats;
            if access.is_fetch() {
                stats.inst_fetches += 1;
            } else {
                stats.data_accesses += 1;
            }
            stats.cycles += cycles;
            return Ok(cycles);
        }
        Err(SatError::Internal("memory access did not converge"))
    }

    /// Forks `parent` on `core` — the kernel flushes what the fork made
    /// stale ([`Kernel::fork_with_flush`]) — charges the fork to the
    /// core and returns the kernel's outcome plus the cycles consumed
    /// (the Table 4 measurement).
    pub fn fork(&mut self, core: usize, parent: Pid) -> SatResult<(ForkOutcome, u64)> {
        let outcome = self.syscall_on(core, |kernel, tlb| kernel.fork_with_flush(parent, tlb))?;
        // The child's allocation may have exhausted the ASID space:
        // apply the deferred rollover flush now (and refresh the
        // parent's own ASID) rather than leaving it pending while the
        // parent keeps running.
        if self.kernel.rollover_flush_pending() {
            self.syscall_on(core, |kernel, tlb| kernel.ensure_current_asid(parent, tlb))?;
            self.charge_rollover_flush(core);
        }
        let anon = outcome.ptes_copied - outcome.ptes_copied_file;
        let cycles = self.model.fork_cycles(
            anon,
            outcome.ptes_copied_file,
            outcome.ptps_allocated,
            outcome.ptps_shared,
            outcome.write_protect_ops,
        );
        self.cores[core].stats.cycles += cycles;
        sat_obs::charge(core, ChargeCause::Fork, cycles);
        Ok((outcome, cycles))
    }

    /// Runs `lines` sequential kernel-text cache lines starting at
    /// kernel page `base_page` through the instruction path (TLB +
    /// caches). This is how kernel execution pollutes the L1-I cache.
    /// A run whose last line would lie beyond the end of kernel space
    /// is refused with [`SatError::InvalidArgument`] before anything
    /// is fetched.
    pub fn run_kernel_lines(&mut self, core: usize, base_page: u32, lines: u32) -> SatResult<u64> {
        self.kernel_lines(core, base_page, lines, ChargeCause::Exec)
    }

    /// [`Machine::run_kernel_lines`] with its cycles charged to
    /// `cause`: the path that issued the kernel work (a context
    /// switch, the domain-fault handler) claims it.
    fn kernel_lines(
        &mut self,
        core: usize,
        base_page: u32,
        lines: u32,
        cause: ChargeCause,
    ) -> SatResult<u64> {
        let last_page = u64::from(base_page) + u64::from(lines.saturating_sub(1) / LINES_PER_PAGE);
        if last_page >= u64::from(KERNEL_PAGES) {
            return Err(SatError::InvalidArgument);
        }
        let base = VirtAddr::new(KERNEL_SPACE_START + base_page * 4096);
        // A window of the run's own length never wraps.
        let cycles = self.kernel_run(core, base, 0, lines, lines);
        // One aggregate charge for the whole run of kernel text —
        // per-line events would drown the ring.
        sat_obs::charge(core, cause, cycles);
        Ok(cycles)
    }

    /// Fetches `lines` kernel-text lines as one operation: the `i`-th
    /// is line `(start + i) % window` of the text at `base` (page
    /// aligned, `start < window`, the whole window inside kernel
    /// space). Returns the cycles, already added to the core's.
    ///
    /// Only the first line of each piece of the run that neither wraps
    /// the window nor crosses a 1MB section takes the translation path;
    /// the rest count a micro-TLB hit, and the piece goes to the caches
    /// as one
    /// [`CacheHierarchy::access_text_run`] (an L1 line is `LINE_BYTES`, the
    /// stride of the text). That is exact: a cache access touches no
    /// TLB, so the section entry the first line hit or filled is still
    /// in the micro-TLB for every later line, and a hit there has no
    /// effect but its counter (replacement is round-robin on fills).
    fn kernel_run(
        &mut self,
        core: usize,
        base: VirtAddr,
        start: u32,
        lines: u32,
        window: u32,
    ) -> u64 {
        #[cfg(test)]
        if self.line_by_line {
            return (0..lines)
                .map(|i| {
                    let line = (start + i) % window;
                    self.kernel_fetch(core, VirtAddr::new(base.raw() + line * LINE_BYTES))
                })
                .sum();
        }
        let section_lines = PageSize::Section1M.bytes() / LINE_BYTES;
        let cpi = self.model.cpi;
        let mut cycles = 0;
        let (mut next, mut left) = (start, lines);
        while left > 0 {
            let va = VirtAddr::new(base.raw() + next * LINE_BYTES);
            let line_in_section = (va.raw() / LINE_BYTES) % section_lines;
            let n = left.min(window - next).min(section_lines - line_in_section);
            let (entry, translation) = self.kernel_translate(core, va);
            cycles += translation;
            let c = &mut self.cores[core];
            c.micro_i.note_hits(u64::from(n - 1));
            let pa = entry.translate(va);
            cycles += u64::from(n) * cpi + c.caches.access_text_run(pa, n, &mut self.l2);
            left -= n;
            next = (next + n) % window;
        }
        let stats = &mut self.cores[core].stats;
        stats.inst_fetches += u64::from(lines);
        stats.cycles += cycles;
        cycles
    }

    /// Translates one kernel-text fetch — kernel mappings are global
    /// 1MB sections present in every address space — and returns the
    /// entry with the cycles the translation cost.
    fn kernel_translate(&mut self, core: usize, va: VirtAddr) -> (TlbEntry, u64) {
        debug_assert!(va.is_kernel());
        if let Some(e) = self.cores[core].micro_i.lookup(va) {
            return (e, 0);
        }
        let asid = Asid::new(0); // kernel entries are global
        match self.cores[core].main_tlb.lookup(va, asid) {
            TlbLookup::Hit(e) => {
                self.cores[core].micro_i.insert(e);
                (e, 1)
            }
            TlbLookup::Miss => {
                let e = kernel_section_entry(va);
                let walk = self.kernel_section_walk(core, va);
                self.cores[core].main_tlb.insert_after_miss(e, asid);
                self.cores[core].micro_i.insert(e);
                (e, walk)
            }
        }
    }

    /// The one-level section walk for a kernel VA: the level-1
    /// descriptor fetch (synthetic address inside the kernel's own
    /// tables) through the caches. Returns the walk's cycles.
    fn kernel_section_walk(&mut self, core: usize, va: VirtAddr) -> u64 {
        let desc =
            sat_types::PhysAddr::new(KERNEL_PHYS_BASE + 0x0FF0_0000 + (va.l1_index() as u32) * 4);
        let stall = self.cores[core]
            .caches
            .access(AccessKind::PageWalk, desc, &mut self.l2);
        8 + stall
    }

    /// One kernel-text line the way every line was fetched before runs
    /// became one operation: the line-by-line specification
    /// [`Machine::kernel_run`] is tested against.
    #[cfg(test)]
    fn kernel_fetch(&mut self, core: usize, va: VirtAddr) -> u64 {
        let (entry, mut cycles) = self.kernel_translate(core, va);
        let pa = entry.translate(va);
        let stall = self.cores[core]
            .caches
            .access(AccessKind::Instruction, pa, &mut self.l2);
        cycles += self.model.cpi + stall;
        let stats = &mut self.cores[core].stats;
        stats.inst_fetches += 1;
        stats.cycles += cycles;
        cycles
    }

    fn fill_micro(&mut self, core: usize, access: AccessType, e: TlbEntry) {
        let c = &mut self.cores[core];
        if access.is_fetch() {
            c.micro_i.insert(e);
        } else {
            c.micro_d.insert(e);
        }
    }

    /// Walks the page table for a user access by `pid` (whose ASID is
    /// `asid`), filling the TLBs on success or invoking the kernel's
    /// fault handler. Called right after the main-TLB lookup of `va`
    /// under `asid` missed, which is what lets the fill skip its
    /// duplicate probe ([`MainTlb::insert_after_miss`]).
    fn walk_and_fill(
        &mut self,
        core: usize,
        pid: Pid,
        asid: Asid,
        va: VirtAddr,
        access: AccessType,
    ) -> SatResult<WalkFill> {
        if va.is_kernel() {
            // Kernel space: synthetic global section mapping.
            let e = kernel_section_entry(va);
            let walk = self.kernel_section_walk(core, va);
            self.cores[core].main_tlb.insert_after_miss(e, asid);
            self.fill_micro(core, access, e);
            self.charge_tlb_stall(core, access, walk);
            return Ok(WalkFill::Entry(e, walk));
        }
        let mm = self.kernel.mm(pid)?;
        let result = walk(&mm.root, &self.kernel.ptps, va);
        // Charge the descriptor fetches through the cache hierarchy —
        // this is where private page tables pollute the shared L2.
        let mut stall = 8u64;
        for pa in &result.accesses {
            stall += self.cores[core]
                .caches
                .access(AccessKind::PageWalk, *pa, &mut self.l2);
        }
        match result.outcome {
            WalkOutcome::Translated(t) => {
                let e = walked_entry(self.kernel.config.l1_write_protect, mm, asid, va, t);
                self.cores[core].main_tlb.insert_after_miss(e, asid);
                if e.asid.is_some() {
                    self.cores[core].note_resident(asid);
                }
                self.fill_micro(core, access, e);
                self.charge_tlb_stall(core, access, stall);
                Ok(WalkFill::Entry(e, stall))
            }
            WalkOutcome::Fault(_) => {
                // The walk just failed, so the abort is a translation
                // fault: no second walk to classify it.
                let abort = page_abort(mm, FaultStatus::TranslationPage, va, access);
                // The failed walk's descriptor fetches are part of the
                // fault path, not TLB-stall time: `charge_tlb_stall`
                // never sees them, so they blame the fault.
                sat_obs::charge(core, ChargeCause::Fault, stall);
                let fault_cycles = self.page_fault_path(core, pid, access, abort)?;
                Ok(WalkFill::Faulted(stall + fault_cycles))
            }
        }
    }

    fn charge_tlb_stall(&mut self, core: usize, access: AccessType, stall: u64) {
        let stats = &mut self.cores[core].stats;
        if access.is_fetch() {
            stats.inst_main_tlb_stall_cycles += stall;
        } else {
            stats.data_main_tlb_stall_cycles += stall;
        }
        sat_obs::charge(core, ChargeCause::TlbStall, stall);
    }

    /// The software page-fault path for `abort`, taken by `pid`: the
    /// kernel handler — the PTE repair and the shootdown it owes
    /// ([`Kernel::page_fault`]) — plus its instruction-cache footprint.
    fn page_fault_path(
        &mut self,
        core: usize,
        pid: Pid,
        access: AccessType,
        abort: FaultRecord,
    ) -> SatResult<u64> {
        // Latch the abort into the FSR/FAR.
        self.last_fault = Some(abort);
        let va = abort.far;
        let outcome =
            self.syscall_on(core, |kernel, tlb| kernel.page_fault(pid, va, access, tlb))?;
        let model = self.model;
        let mut cycles = match outcome.vm.kind {
            FaultKind::Minor => model.soft_fault,
            FaultKind::Major => model.hard_fault,
            FaultKind::Cow => model.soft_fault + model.cow_extra,
            FaultKind::WriteEnable => model.soft_fault,
            FaultKind::Spurious => model.exception,
        };
        sat_obs::charge(core, ChargeCause::Fault, cycles);
        if outcome.unshared {
            let unshare = model.unshare_base + outcome.unshare_ptes_copied * model.unshare_per_pte;
            cycles += unshare;
            // The unshare (break-COW-of-the-page-table) work is split
            // out from the plain fault cost: it is the price of shared
            // PTPs specifically, and the tail analysis wants it named.
            sat_obs::charge(core, ChargeCause::Unshare, unshare);
        }
        // The handler's kernel instructions run through the caches.
        // Each fault exercises a different slice of the handler's
        // 64KB of text (rotating start), so fault-heavy runs thrash
        // the L1-I exactly as the paper observes.
        let lines = match outcome.vm.kind {
            FaultKind::Major => self.model.fault_path_lines + self.model.hard_fault_extra_lines,
            _ => self.model.fault_path_lines,
        };
        let window = FAULT_PATH_PAGES * LINES_PER_PAGE;
        let start = ((self.fault_seq * 149) % window as u64) as u32;
        self.fault_seq += 1;
        let handler = VirtAddr::new(KERNEL_SPACE_START + FAULT_HANDLER_PAGE * 4096);
        let handler_cycles = self.kernel_run(core, handler, start, lines, window);
        // The handler's instruction-fetch footprint is fault time too;
        // one aggregate charge (see `run_kernel_lines`).
        sat_obs::charge(core, ChargeCause::Fault, handler_cycles);
        // `cycles` is returned to the access loop, which adds it to
        // the core's cycle count on the successful retry — do not add
        // it here too (the handler's kernel-line fetches have already
        // self-accounted).
        self.cores[core].stats.page_faults += 1;
        Ok(cycles)
    }

    /// The domain-fault path: exception entry, the handler's flush of
    /// the offending entries, and return.
    fn domain_fault_path(
        &mut self,
        core: usize,
        va: VirtAddr,
        access: AccessType,
        domain: Domain,
    ) -> SatResult<u64> {
        self.last_fault = Some(FaultRecord {
            status: FaultStatus::DomainPage,
            domain,
            write: access.is_write(),
            far: va,
        });
        // The handler "checks the FSR [and] when it finds that the
        // reason for the exception is a domain fault, it flushes all
        // TLB entries that match the faulting address" (§3.2.3).
        let record = self.last_fault.expect("just latched");
        debug_assert!(record.status.is_domain_fault());
        self.syscall_on(core, |kernel, tlb| kernel.domain_fault(record.far, tlb));
        let cycles = self.model.exception;
        sat_obs::charge(core, ChargeCause::DomainFault, cycles);
        self.kernel_lines(core, FAULT_HANDLER_PAGE + 8, 40, ChargeCause::DomainFault)?;
        // Returned to the access loop, which accounts it once.
        self.cores[core].stats.domain_faults += 1;
        Ok(cycles)
    }

    /// [`Kernel::audit`], then what each core's TLBs must agree on with
    /// the kernel's tables. Returns the first violation found.
    ///
    /// 1. On a core with a current process, every live micro-TLB entry
    ///    is the one a fresh walk of that process's tables would fill
    ///    (frame, size, permissions after the level-1 write-protect
    ///    assist, domain, global bit) or, for a kernel address, the
    ///    kernel section entry; no two live entries of one micro-TLB
    ///    overlap.
    /// 2. Every non-global main-TLB entry's ASID is resident on its
    ///    core, so a precise shootdown that skips the core skips
    ///    nothing.
    /// 3. When no rollover flush is pending, every non-global main-TLB
    ///    entry's ASID is held by a live process of the current
    ///    generation, its owner, and the entry is what a fresh walk of
    ///    the owner's tables would fill: no entry outlives its process
    ///    or its PTE, whether or not the owner runs. (Until a pending
    ///    rollover flush fires, a stale holder may share the raw value,
    ///    and its entries are the flush's.) Every global user entry
    ///    lies in [`Domain::ZYGOTE`].
    /// 4. Every main TLB passes [`MainTlb::verify`].
    ///
    /// Clause 1 lets a global entry stand over a page the walk finds
    /// unmapped, an open fault. A walk per TLB entry, plus the whole
    /// kernel's: for tests.
    pub fn audit(&self) -> Result<(), String> {
        self.kernel.audit()?;
        let owners = (!self.kernel.rollover_flush_pending()).then(|| {
            let mut owners: [Option<&Mm>; 256] = [None; 256];
            for (&pid, mm) in self.kernel.processes() {
                if !self.kernel.asid_is_stale(pid) {
                    owners[usize::from(mm.asid.raw())] = Some(mm);
                }
            }
            owners
        });
        for (i, core) in self.cores.iter().enumerate() {
            self.audit_core(core, owners.as_ref())
                .map_err(|e| format!("core {i}: {e}"))?;
        }
        Ok(())
    }

    /// The TLB clauses of [`Machine::audit`] on one core, `owners[a]`
    /// the process whose walk an entry tagged `a` must match (`None`
    /// while a rollover flush is pending).
    fn audit_core(&self, core: &Core, owners: Option<&[Option<&Mm>; 256]>) -> Result<(), String> {
        core.main_tlb
            .verify()
            .map_err(|e| format!("main TLB: {e}"))?;
        for e in core.main_tlb.entries() {
            if e.is_global() && !e.va_base.is_kernel() && e.domain != Domain::ZYGOTE {
                return Err(format!("global user entry {e:?} outside the zygote domain"));
            }
            let Some(asid) = e.asid else { continue };
            if !core.asid_resident(asid) {
                return Err(format!("main-TLB entry {e:?}: {asid:?} is not resident"));
            }
            let Some(owners) = owners else { continue };
            let Some(owner) = owners[usize::from(asid.raw())] else {
                return Err(format!(
                    "main-TLB entry {e:?}: no live process holds {asid:?}"
                ));
            };
            if let Some(err) = self.stale(owner, "main-TLB", e) {
                return Err(err);
            }
        }
        let Some(pid) = core.current else {
            return Ok(());
        };
        let mm = self
            .kernel
            .mm(pid)
            .map_err(|e| format!("current {pid:?}: {e:?}"))?;
        for (side, micro) in [("instruction", &core.micro_i), ("data", &core.micro_d)] {
            let live: Vec<&TlbEntry> = micro.entries().collect();
            for (n, e) in live.iter().enumerate() {
                if let Some(err) = self.stale(mm, &format!("{side} micro-TLB"), e) {
                    return Err(err);
                }
                if let Some(o) = live[n + 1..]
                    .iter()
                    .find(|o| e.covers(o.va_base) || o.covers(e.va_base))
                {
                    return Err(format!(
                        "{side} micro-TLB holds {e:?} and {o:?}, overlapping"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Why `e`, a `what` entry, is not what a fresh walk of `mm` (or,
    /// at a kernel address, the kernel section) fills at its base;
    /// `None` when it is. One departure is let through, and it is an
    /// open fault: a zygote child may go on using a global entry for a
    /// page its own tables do not map, even one it has munmapped.
    fn stale(&self, mm: &Mm, what: &str, e: &TlbEntry) -> Option<String> {
        let walked = if e.va_base.is_kernel() {
            Some(kernel_section_entry(e.va_base))
        } else {
            match walk(&mm.root, &self.kernel.ptps, e.va_base).outcome {
                WalkOutcome::Translated(t) => Some(walked_entry(
                    self.kernel.config.l1_write_protect,
                    mm,
                    mm.asid,
                    e.va_base,
                    t,
                )),
                WalkOutcome::Fault(_) => None,
            }
        };
        let agrees = match walked {
            Some(w) => w == *e,
            None => e.is_global(),
        };
        let pid = mm.pid;
        (!agrees).then(|| format!("{what} entry {e:?}, but {pid:?}'s tables give {walked:?}"))
    }

    /// Resets the per-core hardware statistics (counters only, not the
    /// cache/TLB contents) — the start of a measurement window.
    pub fn reset_hw_stats(&mut self) {
        for c in &mut self.cores {
            c.stats = CoreStats::default();
            c.main_tlb.reset_stats();
            c.caches.reset_stats();
        }
    }
}

enum WalkFill {
    Entry(TlbEntry, u64),
    Faulted(u64),
}

/// The entry a table walk of `mm`, under `asid`, fills for `va` on
/// translating it to `t`.
fn walked_entry(
    l1_write_protect: bool,
    mm: &Mm,
    asid: Asid,
    va: VirtAddr,
    t: Translation,
) -> TlbEntry {
    // The hypothetical level-1 write-protect assist (Section 3.1.3
    // "Hardware Support"): a NEED_COPY level-1 entry denies write
    // access to its whole range, standing in for the per-PTE
    // write-protect pass the paper performs on ARM.
    let perms = if l1_write_protect && mm.root.entry_for(va).need_copy() {
        t.perms.without_write()
    } else {
        t.perms
    };
    TlbEntry {
        va_base: VirtAddr::new(va.raw() & !(t.size.bytes() - 1)),
        size: t.size,
        asid: if t.global { None } else { Some(asid) },
        pfn: t.pfn,
        perms,
        domain: t.domain,
    }
}

/// The FSR/FAR contents for a page abort of class `status` taken by an
/// `access` to `va` in `mm`.
fn page_abort(mm: &Mm, status: FaultStatus, va: VirtAddr, access: AccessType) -> FaultRecord {
    FaultRecord {
        status,
        domain: mm.root.entry_for(va).domain().unwrap_or(Domain::USER),
        write: access.is_write(),
        far: va,
    }
}

/// Synthesizes the global kernel section mapping for a kernel VA
/// (Linux maps the kernel linearly with 1MB sections, global, in the
/// kernel domain).
fn kernel_section_entry(va: VirtAddr) -> TlbEntry {
    let section_base = va.raw() & !(PageSize::Section1M.bytes() - 1);
    let pa = KERNEL_PHYS_BASE + (section_base - KERNEL_SPACE_START);
    TlbEntry {
        va_base: VirtAddr::new(section_base),
        size: PageSize::Section1M,
        asid: None,
        pfn: Pfn::new(pa >> 12),
        perms: Perms::RX,
        domain: Domain::KERNEL,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sat_core::KernelConfig;
    use sat_types::{RegionTag, PAGE_SIZE};
    use sat_vm::MmapRequest;

    /// The run routine against the line-by-line loop it replaced, on
    /// twin machines.
    mod run_vs_line_by_line {
        use proptest::prelude::*;
        use sat_cache::{CacheStats, HierarchyStats};
        use sat_tlb::TlbStats;

        use super::*;

        const CORES: usize = 2;

        /// One randomized step: `(opcode, a, b)`, decoded in [`step`].
        type Op = (u8, u32, u32);

        /// Everything a kernel-text run may move on one core.
        #[derive(Debug, PartialEq)]
        struct CoreSnapshot {
            stats: CoreStats,
            main_tlb: TlbStats,
            micro_i: (u64, u64),
            micro_d: (u64, u64),
            l1: (CacheStats, CacheStats),
            hierarchy: HierarchyStats,
        }

        /// The machine after a step, plus what the step returned.
        #[derive(Debug, PartialEq)]
        struct Snapshot {
            returned: SatResult<u64>,
            cores: Vec<CoreSnapshot>,
            l2: CacheStats,
        }

        fn snapshot(m: &Machine, returned: SatResult<u64>) -> Snapshot {
            Snapshot {
                returned,
                cores: m
                    .cores
                    .iter()
                    .map(|c| CoreSnapshot {
                        stats: c.stats,
                        main_tlb: c.main_tlb.stats(),
                        micro_i: c.micro_i.stats(),
                        micro_d: c.micro_d.stats(),
                        l1: c.caches.l1_stats(),
                        hierarchy: c.caches.stats(),
                    })
                    .collect(),
                l2: m.l2.stats(),
            }
        }

        /// Two cores; the zygote (a 64-page library and an 8-page
        /// heap), a child of it, and an outsider with a mapping of its
        /// own over the zygote's library (under TLB sharing it takes
        /// domain faults on the global entries).
        fn twin(config: KernelConfig, line_by_line: bool) -> (Machine, [Pid; 3]) {
            let mut kernel = Kernel::new(config, 65536);
            let lib = kernel.files.register("libtest.so", 64 * PAGE_SIZE);
            let other = kernel.files.register("other.so", 16 * PAGE_SIZE);
            let zygote = kernel.create_process().unwrap();
            kernel.exec_zygote(zygote).unwrap();
            let outsider = kernel.create_process().unwrap();
            let mut m = Machine::new(kernel, CORES);
            m.line_by_line = line_by_line;
            for (pid, pages, file, tag, name) in [
                (zygote, 64, lib, RegionTag::ZygoteNativeCode, "libtest.so"),
                (outsider, 16, other, RegionTag::OtherLibCode, "other.so"),
            ] {
                let req = MmapRequest::file(pages * PAGE_SIZE, Perms::RX, file, 0, tag, name);
                m.mmap(0, pid, &req.at(VirtAddr::new(0x4000_0000))).unwrap();
            }
            let heap = MmapRequest::anon(8 * PAGE_SIZE, Perms::RW, RegionTag::Heap, "[heap]");
            m.mmap(0, zygote, &heap.at(VirtAddr::new(0x0900_0000)))
                .unwrap();
            m.context_switch(0, zygote).unwrap();
            let child = m.fork(0, zygote).unwrap().0.child;
            m.context_switch(1, child).unwrap();
            (m, [zygote, child, outsider])
        }

        fn step(m: &mut Machine, pids: &[Pid; 3], (code, a, b): Op) -> SatResult<u64> {
            let core = a as usize % CORES;
            match code {
                // User accesses: the faults behind them run the
                // handler's rotating window, wrap included.
                0..=5 => {
                    let (base, pages, access) = match code {
                        // Mostly the 16 pages the outsider maps too,
                        // so it meets the zygote's global entries.
                        0 | 1 => (0x4000_0000, 16, AccessType::Execute),
                        2 => (0x4000_0000, 64, AccessType::Execute),
                        3 => (0x4000_0000, 64, AccessType::Read),
                        4 => (0x0900_0000, 8, AccessType::Write),
                        _ => (0x0900_0000, 8, AccessType::Read),
                    };
                    let va = VirtAddr::new(base + (b % pages) * PAGE_SIZE + (b >> 8) % PAGE_SIZE);
                    // The outsider maps 16 library pages and no heap:
                    // its other accesses fail alike on both twins.
                    m.access(core, va, access)
                }
                6 | 7 => {
                    let pid = pids[b as usize % pids.len()];
                    if m.cores[1 - core].current == Some(pid) {
                        return Ok(0);
                    }
                    m.context_switch(core, pid).map(|()| 0)
                }
                // The callers' runs.
                8 => m.run_kernel_lines(core, SCHED_PATH_PAGE, 80),
                9 => m.run_kernel_lines(core, BINDER_PATH_PAGE, 100 + b % 61),
                // Runs laid across the 1MB boundaries at pages 0x100
                // and 0x200, from a few pages short of one: mostly
                // short, now and then long enough to cross both.
                10 | 11 => {
                    let base_page = 0x100 * (1 + a % 2) - 1 - b % 4;
                    let pages = if code == 10 { 8 } else { 300 };
                    m.run_kernel_lines(core, base_page, (b >> 2) % (pages * LINES_PER_PAGE))
                }
                // Refused alike.
                12 => m.run_kernel_lines(core, KERNEL_PAGES - 1, LINES_PER_PAGE + 1 + b % 500),
                // Kernel VAs through `access`: the same section
                // entries enter by `walk_and_fill`, data side too.
                13 => {
                    let va = VirtAddr::new(
                        KERNEL_SPACE_START + (b % 4) * 0x10_0000 + (b >> 2) % 0x10_0000,
                    );
                    let access = if a % 4 < 2 {
                        AccessType::Execute
                    } else {
                        AccessType::Read
                    };
                    m.access(core, va, access)
                }
                _ => {
                    m.reset_hw_stats();
                    Ok(0)
                }
            }
        }

        /// Runs `ops` on one twin with a recorder installed, auditing
        /// the machine after every step.
        fn drive(
            config: KernelConfig,
            line_by_line: bool,
            ops: &[Op],
        ) -> (Vec<Snapshot>, Vec<sat_obs::Event>) {
            let (mut m, pids) = twin(config, line_by_line);
            sat_obs::install(1 << 20);
            let snapshots = ops
                .iter()
                .map(|&op| {
                    let returned = step(&mut m, &pids, op);
                    m.audit()
                        .unwrap_or_else(|e| panic!("after {op:?} on {config:?}: {e}"));
                    snapshot(&m, returned)
                })
                .collect();
            let rec = sat_obs::uninstall().expect("recorder installed");
            assert_eq!(rec.dropped, 0);
            (snapshots, rec.events)
        }

        proptest! {
            #[test]
            fn equal_statistics_and_events_after_every_step(
                shared in any::<bool>(),
                ops in prop::collection::vec((0u8..15, 0u32..1 << 16, 0u32..1 << 24), 1..120),
            ) {
                let config = if shared {
                    KernelConfig::shared_ptp_tlb()
                } else {
                    KernelConfig::stock()
                };
                let (runs, run_events) = drive(config, false, &ops);
                let (lines, line_events) = drive(config, true, &ops);
                for (i, (run, line)) in runs.iter().zip(&lines).enumerate() {
                    prop_assert_eq!(run, line, "step {} = {:?}", i, ops[i]);
                }
                prop_assert_eq!(run_events, line_events);
            }
        }
    }
}
