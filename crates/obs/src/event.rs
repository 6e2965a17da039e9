//! The event model: what happened, in which layer, and *why*.
//!
//! Every mechanism the paper evaluates is attributed by cause, not just
//! counted: an unshare carries its [`UnshareCause`] (write fault vs
//! region op vs fork-time copy), a TLB flush carries its [`FlushScope`]
//! and the kernel-path [`FlushReason`] that triggered it. The cause
//! enums here deliberately mirror — but do not depend on — the enums in
//! the mechanism crates (`sat-core`'s `UnshareTrigger`, `sat-vm`'s
//! `FaultKind`): `sat-obs` sits below every instrumented crate in the
//! dependency graph.

/// The layer an event originated from. Becomes the Chrome-trace `cat`
/// field, so Perfetto can filter per subsystem.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Subsystem {
    /// `sat-core` kernel entry points (fork/exit/region ops/faults).
    Kernel,
    /// `sat-core` PTP share/unshare mechanism.
    Share,
    /// `sat-vm` page-fault handling.
    VmFault,
    /// `sat-tlb` flush primitives (main and micro TLBs).
    Tlb,
    /// `sat-android` launch/IPC phases.
    Android,
    /// `sat-bench` sweep cells.
    Bench,
    /// `sat-sim` modeled-cost sampling.
    Sim,
    /// `sat-sched` scheduling decisions (preemptions, migrations).
    Sched,
}

impl Subsystem {
    /// Stable lowercase name (the Chrome-trace category).
    pub fn as_str(self) -> &'static str {
        match self {
            Subsystem::Kernel => "kernel",
            Subsystem::Share => "share",
            Subsystem::VmFault => "vm-fault",
            Subsystem::Tlb => "tlb",
            Subsystem::Android => "android",
            Subsystem::Bench => "bench",
            Subsystem::Sim => "sim",
            Subsystem::Sched => "sched",
        }
    }

    /// The subsystem owning a dotted gauge key, by its first segment.
    /// The gauge taxonomy (DESIGN.md §12) is rooted at the layer that
    /// publishes the value: `phys.*` and `kernel.*` → [`Kernel`],
    /// `registry.*` → [`Share`], `tlb.*` → [`Tlb`], `sched.*` →
    /// [`Sched`], everything else → [`Sim`].
    ///
    /// [`Kernel`]: Subsystem::Kernel
    /// [`Share`]: Subsystem::Share
    /// [`Tlb`]: Subsystem::Tlb
    /// [`Sched`]: Subsystem::Sched
    /// [`Sim`]: Subsystem::Sim
    pub fn for_gauge(key: &str) -> Subsystem {
        match key.split('.').next().unwrap_or("") {
            "phys" | "kernel" => Subsystem::Kernel,
            "registry" => Subsystem::Share,
            "tlb" => Subsystem::Tlb,
            "sched" => Subsystem::Sched,
            _ => Subsystem::Sim,
        }
    }

    /// Inverse of [`Subsystem::as_str`] (trace re-ingestion).
    pub fn parse(s: &str) -> Option<Subsystem> {
        Some(match s {
            "kernel" => Subsystem::Kernel,
            "share" => Subsystem::Share,
            "vm-fault" => Subsystem::VmFault,
            "tlb" => Subsystem::Tlb,
            "android" => Subsystem::Android,
            "bench" => Subsystem::Bench,
            "sim" => Subsystem::Sim,
            "sched" => Subsystem::Sched,
            _ => return None,
        })
    }
}

/// Why a PTP was unshared. Mirrors `sat-core`'s `UnshareTrigger`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum UnshareCause {
    /// COW write fault into a shared chunk.
    WriteFault,
    /// A new region was mapped into a shared chunk.
    NewRegion,
    /// A region in the shared chunk was freed.
    RegionFree,
    /// mprotect (or similar in-place op) on a shared chunk.
    RegionOp,
    /// Address-space teardown.
    Exit,
    /// Memory-pressure reclaim tore a PTE out of the shared PTP (the
    /// table stays shared; every sharer is repaired at once and
    /// refaults through the page cache).
    Reclaim,
}

impl UnshareCause {
    pub fn as_str(self) -> &'static str {
        match self {
            UnshareCause::WriteFault => "write_fault",
            UnshareCause::NewRegion => "new_region",
            UnshareCause::RegionFree => "region_free",
            UnshareCause::RegionOp => "region_op",
            UnshareCause::Exit => "exit",
            UnshareCause::Reclaim => "reclaim",
        }
    }

    /// The per-cause counter bumped for every unshare event.
    pub fn counter_key(self) -> &'static str {
        match self {
            UnshareCause::WriteFault => "share.unshare.write_fault",
            UnshareCause::NewRegion => "share.unshare.new_region",
            UnshareCause::RegionFree => "share.unshare.region_free",
            UnshareCause::RegionOp => "share.unshare.region_op",
            UnshareCause::Exit => "share.unshare.exit",
            UnshareCause::Reclaim => "share.unshare.reclaim",
        }
    }

    /// Every live cause, in Figure-6 order.
    pub const ALL: [UnshareCause; 6] = [
        UnshareCause::WriteFault,
        UnshareCause::NewRegion,
        UnshareCause::RegionFree,
        UnshareCause::RegionOp,
        UnshareCause::Exit,
        UnshareCause::Reclaim,
    ];

    /// Inverse of [`UnshareCause::as_str`] (trace re-ingestion).
    pub fn parse(s: &str) -> Option<UnshareCause> {
        UnshareCause::ALL.into_iter().find(|c| c.as_str() == s)
    }
}

/// Which kernel path forced a large mapping back to 4KB PTEs
/// (Figure-6-style cause attribution for the demotion side).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DemoteCause {
    /// Partial `munmap` cut through a large group / section.
    Munmap,
    /// `mprotect` changed permissions over part of a large mapping.
    Mprotect,
    /// A write-protect (COW / write-enable) fault landed on one slot
    /// of a large group; the slot must diverge, so the group splits.
    Cow,
    /// PTP unshare copied a large group; the copy is split so partial
    /// copies can never leave a stale wide translation behind.
    Unshare,
    /// Memory-pressure reclaim needed to tear a single PTE inside a
    /// large group.
    Reclaim,
    /// `fork` demotes parent sections so child page tables stay
    /// two-level and the share path never sees an L1 leaf.
    Fork,
}

impl DemoteCause {
    pub fn as_str(self) -> &'static str {
        match self {
            DemoteCause::Munmap => "munmap",
            DemoteCause::Mprotect => "mprotect",
            DemoteCause::Cow => "cow",
            DemoteCause::Unshare => "unshare",
            DemoteCause::Reclaim => "reclaim",
            DemoteCause::Fork => "fork",
        }
    }

    /// Per-cause demotion counter.
    pub fn counter_key(self) -> &'static str {
        match self {
            DemoteCause::Munmap => "mmu.demote.cause.munmap",
            DemoteCause::Mprotect => "mmu.demote.cause.mprotect",
            DemoteCause::Cow => "mmu.demote.cause.cow",
            DemoteCause::Unshare => "mmu.demote.cause.unshare",
            DemoteCause::Reclaim => "mmu.demote.cause.reclaim",
            DemoteCause::Fork => "mmu.demote.cause.fork",
        }
    }

    /// Every live cause, in reporting order.
    pub const ALL: [DemoteCause; 6] = [
        DemoteCause::Munmap,
        DemoteCause::Mprotect,
        DemoteCause::Cow,
        DemoteCause::Unshare,
        DemoteCause::Reclaim,
        DemoteCause::Fork,
    ];

    /// Inverse of [`DemoteCause::as_str`] (trace re-ingestion).
    pub fn parse(s: &str) -> Option<DemoteCause> {
        DemoteCause::ALL.into_iter().find(|c| c.as_str() == s)
    }
}

/// Which kernel path issued a TLB flush. Set as a scoped thread-local
/// by the caller (see [`crate::with_flush_reason`]) and read by the
/// flush primitives, so the TLB crate needs no signature changes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FlushReason {
    /// No kernel path claimed the flush (e.g. a unit test poking the
    /// TLB directly).
    Unattributed,
    ContextSwitch,
    Fork,
    Exit,
    /// PTP unshare repair (the unshare path flushes the ASID).
    Unshare,
    /// Post-munmap/mprotect VA invalidation.
    RegionOp,
    /// Per-fault repair after the kernel rewrites a PTE.
    FaultRepair,
    DomainFault,
    AsidRecycle,
    /// Memory-pressure reclaim tore PTEs and must evict their cached
    /// translations before the frame is reused.
    Reclaim,
    /// Large-page/section promotion migrated pages to contiguous
    /// frames; stale small-page translations must go before the old
    /// frames are reused.
    Promote,
    /// A large mapping was split back to 4KB PTEs; the cached
    /// large/section entry spans every page of the group, so the whole
    /// span is invalidated.
    Demote,
}

impl FlushReason {
    pub fn as_str(self) -> &'static str {
        match self {
            FlushReason::Unattributed => "unattributed",
            FlushReason::ContextSwitch => "context_switch",
            FlushReason::Fork => "fork",
            FlushReason::Exit => "exit",
            FlushReason::Unshare => "unshare",
            FlushReason::RegionOp => "region_op",
            FlushReason::FaultRepair => "fault_repair",
            FlushReason::DomainFault => "domain_fault",
            FlushReason::AsidRecycle => "asid_recycle",
            FlushReason::Reclaim => "reclaim",
            FlushReason::Promote => "promote",
            FlushReason::Demote => "demote",
        }
    }

    /// Per-reason flush-event counter.
    pub fn counter_key(self) -> &'static str {
        match self {
            FlushReason::Unattributed => "tlb.flush.reason.unattributed",
            FlushReason::ContextSwitch => "tlb.flush.reason.context_switch",
            FlushReason::Fork => "tlb.flush.reason.fork",
            FlushReason::Exit => "tlb.flush.reason.exit",
            FlushReason::Unshare => "tlb.flush.reason.unshare",
            FlushReason::RegionOp => "tlb.flush.reason.region_op",
            FlushReason::FaultRepair => "tlb.flush.reason.fault_repair",
            FlushReason::DomainFault => "tlb.flush.reason.domain_fault",
            FlushReason::AsidRecycle => "tlb.flush.reason.asid_recycle",
            FlushReason::Reclaim => "tlb.flush.reason.reclaim",
            FlushReason::Promote => "tlb.flush.reason.promote",
            FlushReason::Demote => "tlb.flush.reason.demote",
        }
    }

    /// Every reason (reporting iterates these in a stable order).
    pub const ALL: [FlushReason; 12] = [
        FlushReason::ContextSwitch,
        FlushReason::Fork,
        FlushReason::Exit,
        FlushReason::Unshare,
        FlushReason::RegionOp,
        FlushReason::FaultRepair,
        FlushReason::DomainFault,
        FlushReason::AsidRecycle,
        FlushReason::Reclaim,
        FlushReason::Promote,
        FlushReason::Demote,
        FlushReason::Unattributed,
    ];

    /// Inverse of [`FlushReason::as_str`] (trace re-ingestion).
    pub fn parse(s: &str) -> Option<FlushReason> {
        FlushReason::ALL.into_iter().find(|r| r.as_str() == s)
    }

    /// Per-reason invalidated-entry accumulator (main TLB only).
    pub fn entries_key(self) -> &'static str {
        match self {
            FlushReason::Unattributed => "tlb.flush.reason.unattributed.entries",
            FlushReason::ContextSwitch => "tlb.flush.reason.context_switch.entries",
            FlushReason::Fork => "tlb.flush.reason.fork.entries",
            FlushReason::Exit => "tlb.flush.reason.exit.entries",
            FlushReason::Unshare => "tlb.flush.reason.unshare.entries",
            FlushReason::RegionOp => "tlb.flush.reason.region_op.entries",
            FlushReason::FaultRepair => "tlb.flush.reason.fault_repair.entries",
            FlushReason::DomainFault => "tlb.flush.reason.domain_fault.entries",
            FlushReason::AsidRecycle => "tlb.flush.reason.asid_recycle.entries",
            FlushReason::Reclaim => "tlb.flush.reason.reclaim.entries",
            FlushReason::Promote => "tlb.flush.reason.promote.entries",
            FlushReason::Demote => "tlb.flush.reason.demote.entries",
        }
    }
}

/// Which flush primitive fired.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FlushScope {
    /// `MainTlb::flush_all` — counted against `TlbStats::full_flushes`.
    All,
    /// `MainTlb::flush_asid`.
    Asid,
    /// `MainTlb::flush_va_all_asids`.
    VaAllAsids,
    /// `MainTlb::flush_va`.
    Va,
    /// `MainTlb::flush_page` — one ASID-tagged page, globals survive.
    Page,
    /// `MainTlb::flush_range` — a VPN range within one ASID, globals
    /// survive (the gather escalates to `Asid` past the ceiling).
    Range,
    /// `MainTlb::flush_non_global`.
    NonGlobal,
    /// `MicroTlb::flush` (context-switch full clear).
    MicroAll,
    /// `MicroTlb::flush_va`.
    MicroVa,
}

impl FlushScope {
    pub fn as_str(self) -> &'static str {
        match self {
            FlushScope::All => "all",
            FlushScope::Asid => "asid",
            FlushScope::VaAllAsids => "va_all_asids",
            FlushScope::Va => "va",
            FlushScope::Page => "page",
            FlushScope::Range => "range",
            FlushScope::NonGlobal => "non_global",
            FlushScope::MicroAll => "micro_all",
            FlushScope::MicroVa => "micro_va",
        }
    }

    /// True for the main (ASID-tagged, `TlbStats`-counted) TLB scopes.
    pub fn is_main(self) -> bool {
        !matches!(self, FlushScope::MicroAll | FlushScope::MicroVa)
    }

    /// Every scope, in `as_str` order.
    pub const ALL: [FlushScope; 9] = [
        FlushScope::All,
        FlushScope::Asid,
        FlushScope::VaAllAsids,
        FlushScope::Va,
        FlushScope::Page,
        FlushScope::Range,
        FlushScope::NonGlobal,
        FlushScope::MicroAll,
        FlushScope::MicroVa,
    ];

    /// Inverse of [`FlushScope::as_str`] (trace re-ingestion).
    pub fn parse(s: &str) -> Option<FlushScope> {
        FlushScope::ALL.into_iter().find(|c| c.as_str() == s)
    }

    pub fn counter_key(self) -> &'static str {
        match self {
            FlushScope::All => "tlb.flush.scope.all",
            FlushScope::Asid => "tlb.flush.scope.asid",
            FlushScope::VaAllAsids => "tlb.flush.scope.va_all_asids",
            FlushScope::Va => "tlb.flush.scope.va",
            FlushScope::Page => "tlb.flush.scope.page",
            FlushScope::Range => "tlb.flush.scope.range",
            FlushScope::NonGlobal => "tlb.flush.scope.non_global",
            FlushScope::MicroAll => "tlb.flush.scope.micro_all",
            FlushScope::MicroVa => "tlb.flush.scope.micro_va",
        }
    }
}

/// How a page fault resolved. Mirrors `sat-vm`'s `FaultKind`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultClass {
    Minor,
    Major,
    Cow,
    WriteEnable,
    Spurious,
}

impl FaultClass {
    pub fn as_str(self) -> &'static str {
        match self {
            FaultClass::Minor => "minor",
            FaultClass::Major => "major",
            FaultClass::Cow => "cow",
            FaultClass::WriteEnable => "write_enable",
            FaultClass::Spurious => "spurious",
        }
    }

    pub fn counter_key(self) -> &'static str {
        match self {
            FaultClass::Minor => "vm.fault.minor",
            FaultClass::Major => "vm.fault.major",
            FaultClass::Cow => "vm.fault.cow",
            FaultClass::WriteEnable => "vm.fault.write_enable",
            FaultClass::Spurious => "vm.fault.spurious",
        }
    }

    /// Every class, in `as_str` order.
    pub const ALL: [FaultClass; 5] = [
        FaultClass::Minor,
        FaultClass::Major,
        FaultClass::Cow,
        FaultClass::WriteEnable,
        FaultClass::Spurious,
    ];

    /// Inverse of [`FaultClass::as_str`] (trace re-ingestion).
    pub fn parse(s: &str) -> Option<FaultClass> {
        FaultClass::ALL.into_iter().find(|c| c.as_str() == s)
    }
}

/// Which region syscall ran.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RegionOpKind {
    Mmap,
    Munmap,
    Mprotect,
}

impl RegionOpKind {
    pub fn as_str(self) -> &'static str {
        match self {
            RegionOpKind::Mmap => "mmap",
            RegionOpKind::Munmap => "munmap",
            RegionOpKind::Mprotect => "mprotect",
        }
    }

    pub fn counter_key(self) -> &'static str {
        match self {
            RegionOpKind::Mmap => "kernel.mmap",
            RegionOpKind::Munmap => "kernel.munmap",
            RegionOpKind::Mprotect => "kernel.mprotect",
        }
    }

    /// Every kind, in `as_str` order.
    pub const ALL: [RegionOpKind; 3] = [
        RegionOpKind::Mmap,
        RegionOpKind::Munmap,
        RegionOpKind::Mprotect,
    ];

    /// Inverse of [`RegionOpKind::as_str`] (trace re-ingestion).
    pub fn parse(s: &str) -> Option<RegionOpKind> {
        RegionOpKind::ALL.into_iter().find(|c| c.as_str() == s)
    }
}

/// The unit a duration span's `value` is measured in.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SpanUnit {
    /// Modeled cycles (Android launch/IPC phases).
    Cycles,
    /// Wall-clock microseconds (bench cells).
    Micros,
}

impl SpanUnit {
    pub fn as_str(self) -> &'static str {
        match self {
            SpanUnit::Cycles => "cycles",
            SpanUnit::Micros => "us",
        }
    }

    /// Inverse of [`SpanUnit::as_str`] (trace re-ingestion).
    pub fn parse(s: &str) -> Option<SpanUnit> {
        match s {
            "cycles" => Some(SpanUnit::Cycles),
            "us" => Some(SpanUnit::Micros),
            _ => None,
        }
    }
}

/// Why simulated cycles were charged to a request flow. A closed
/// enum: every point where the machine adds to a core's cycle counter
/// tags the charge with exactly one cause, so a flow's critical path
/// decomposes without residue — [`crate::analyze::FlowTable`] asserts
/// that the per-cause sums reconcile exactly with the request's wall
/// ticks on lossless streams.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum ChargeCause {
    /// Useful work: instruction CPI plus cache stalls on hits.
    Exec,
    /// Main-TLB miss walk stall (the page tables were walked but no
    /// fault was taken).
    TlbStall,
    /// Page-fault handling: walk, repair, and the handler's kernel
    /// instruction fetches.
    Fault,
    /// ARM domain fault (shared-entry protection check).
    DomainFault,
    /// PTP unshare work inside a fault (base cost + per-PTE copies),
    /// split out of [`ChargeCause::Fault`].
    Unshare,
    /// Cross-core shootdown IPI receipt.
    Ipi,
    /// Pending ASID-rollover non-global flush.
    RolloverFlush,
    /// Context-switch cost (register/TTBR swap + scheduler kernel
    /// path).
    ContextSwitch,
    /// Fork cost (PTP alloc/share, PTE copies, write-protect ops).
    Fork,
    /// Run-queue wait: wall ticks a request spent preempted or queued,
    /// not executing. Charged by `sat-sched`, not the machine — it is
    /// elapsed time on the core's clock, not cycles the flow consumed.
    RunqWait,
}

impl ChargeCause {
    pub fn as_str(self) -> &'static str {
        match self {
            ChargeCause::Exec => "exec",
            ChargeCause::TlbStall => "tlb_stall",
            ChargeCause::Fault => "fault",
            ChargeCause::DomainFault => "domain_fault",
            ChargeCause::Unshare => "unshare",
            ChargeCause::Ipi => "ipi",
            ChargeCause::RolloverFlush => "rollover_flush",
            ChargeCause::ContextSwitch => "context_switch",
            ChargeCause::Fork => "fork",
            ChargeCause::RunqWait => "runq_wait",
        }
    }

    /// The per-cause charged-cycles accumulator.
    pub fn counter_key(self) -> &'static str {
        match self {
            ChargeCause::Exec => "flow.cycles.exec",
            ChargeCause::TlbStall => "flow.cycles.tlb_stall",
            ChargeCause::Fault => "flow.cycles.fault",
            ChargeCause::DomainFault => "flow.cycles.domain_fault",
            ChargeCause::Unshare => "flow.cycles.unshare",
            ChargeCause::Ipi => "flow.cycles.ipi",
            ChargeCause::RolloverFlush => "flow.cycles.rollover_flush",
            ChargeCause::ContextSwitch => "flow.cycles.context_switch",
            ChargeCause::Fork => "flow.cycles.fork",
            ChargeCause::RunqWait => "flow.cycles.runq_wait",
        }
    }

    /// Every cause, in `as_str` order (reporting iterates these).
    pub const ALL: [ChargeCause; 10] = [
        ChargeCause::Exec,
        ChargeCause::TlbStall,
        ChargeCause::Fault,
        ChargeCause::DomainFault,
        ChargeCause::Unshare,
        ChargeCause::Ipi,
        ChargeCause::RolloverFlush,
        ChargeCause::ContextSwitch,
        ChargeCause::Fork,
        ChargeCause::RunqWait,
    ];

    /// Inverse of [`ChargeCause::as_str`] (trace re-ingestion).
    pub fn parse(s: &str) -> Option<ChargeCause> {
        ChargeCause::ALL.into_iter().find(|c| c.as_str() == s)
    }
}

/// The typed body of an event. Numeric fields are the quantities the
/// paper's evaluation attributes per cause.
#[derive(Clone, PartialEq, Debug)]
pub enum Payload {
    /// `Kernel::fork` completed; `pid` is the parent.
    Fork {
        child: u32,
        ptps_shared: u64,
        ptes_copied: u64,
        /// Whether this fork took the PTP-sharing path.
        shared: bool,
    },
    /// `Kernel::exit` tore down the address space.
    Exit,
    /// A region syscall (mmap/munmap/mprotect).
    RegionOp {
        op: RegionOpKind,
        va: u32,
        pages: u32,
        /// PTPs unshared as a side effect of the op.
        unshared: u64,
    },
    /// ARM domain fault (global-entry protection check failed).
    DomainFault { va: u32 },
    /// Fork-time PTP sharing summary (one per shared fork).
    PtpShare { ptps: u64, write_protect_ops: u64 },
    /// One PTP left the shared state.
    PtpUnshare {
        cause: UnshareCause,
        ptes_copied: u64,
        /// Last-sharer fast path: no copy, only NEED_COPY cleared.
        last_sharer: bool,
        va: u32,
    },
    /// `sat-vm` resolved a page fault.
    PageFault {
        class: FaultClass,
        va: u32,
        file_backed: bool,
    },
    /// A TLB flush primitive ran and invalidated `entries` entries.
    TlbFlush {
        scope: FlushScope,
        reason: FlushReason,
        entries: u64,
    },
    /// The 8-bit ASID space was exhausted; the allocator bumped the
    /// generation. Live ASIDs are reassigned lazily at switch-in and
    /// one non-global flush follows (global entries survive).
    AsidRollover { generation: u64 },
    /// A precise shootdown was resolved against the per-core residency
    /// map. `scope` is the invalidation granularity the resident cores
    /// flushed at (`Asid`, `Range`, or `Page`); `cores_targeted` cores
    /// held the ASID and flushed, of which `cores_local` were the
    /// initiating core itself (a local TLBI, no IPI — the IPI count is
    /// `cores_targeted - cores_local`); `cores_skipped` never held the
    /// ASID and were left alone.
    TlbShootdown {
        asid: u8,
        scope: FlushScope,
        cores_targeted: u32,
        cores_local: u32,
        cores_skipped: u32,
    },
    /// A `FlushBatch` (mmu_gather analogue) resolved its accumulated
    /// invalidations: `ops` as enqueued by call sites, `coalesced`
    /// merges of adjacent/overlapping pages and ranges, `escalated`
    /// per-ASID widenings past the page-count ceiling.
    FlushBatch {
        ops: u64,
        coalesced: u64,
        escalated: u64,
    },
    /// The scheduler preempted `pid` on `core` in favour of `next`
    /// (end of timeslice).
    Preempt { core: u32, next: u32 },
    /// One gauge's value at a sample point, snapshotted by
    /// [`crate::sample_gauges`]. Exported as a Chrome counter-track
    /// point (`"ph":"C"`), so Perfetto renders the gauge as a live
    /// timeline next to the event spans. Samples are stamped (pid 0,
    /// asid 0): gauges describe whole-machine state, not one process.
    Sample { gauge: String, value: u64 },
    /// A duration span opened (an Android phase, a bench cell). Must
    /// be closed by a [`Payload::SpanEnd`] with the same name on the
    /// same (pid, asid) — `repro check` enforces the pairing.
    SpanBegin { name: String },
    /// A duration span closed, carrying the measured quantity (cycles
    /// or wall-clock µs — logical ticks only order the span against
    /// the events it contains).
    SpanEnd {
        name: String,
        value: u64,
        unit: SpanUnit,
    },
    /// Simulated cycles charged to a request flow, tagged with the
    /// cause. `flow` 0 is the unattributed bucket (work done while no
    /// request was bound to the charging core).
    CycleCharge {
        flow: u32,
        cause: ChargeCause,
        cycles: u64,
    },
    /// A request arrived at its server's queue (open-loop arrival; the
    /// flow may wait before its first instruction runs).
    FlowArrive { flow: u32 },
    /// The flow was bound at binder-request ingress and started
    /// executing.
    FlowBegin { flow: u32 },
    /// The flow's reply left; `wall` is completion minus arrival on
    /// the serving core's cycle clock — the quantity the per-cause
    /// charges must reconcile to exactly.
    FlowEnd { flow: u32, wall: u64 },
    /// One memory-pressure reclaim pass completed: `pages` file frames
    /// were evicted back to the free pool, tearing `pte_tears` PTEs,
    /// of which `shared_tears` lived in shared PTPs (torn in place —
    /// one tear repairs every sharer, who refault via the page cache).
    Reclaim {
        pages: u64,
        pte_tears: u64,
        shared_tears: u64,
    },
    /// The promotion scanner collapsed one aligned run into a wider
    /// translation: `bytes` is the new mapping size (64KB group or 1MB
    /// section), `pages` the 4KB pages it now spans, and `filled` the
    /// hole pages that had never been touched but got frames allocated
    /// so the run could go wide — the memory-waste numerator.
    Promote {
        va: u32,
        bytes: u32,
        pages: u64,
        filled: u64,
    },
    /// A large mapping at `va` split back to 4KB PTEs: `bytes` is the
    /// span invalidated (the whole group/section, since one cached
    /// wide entry serves every page in it), `pages` the PTEs restored.
    Demote {
        va: u32,
        bytes: u32,
        pages: u64,
        cause: DemoteCause,
    },
}

impl Payload {
    /// The Chrome-trace event name.
    pub fn name(&self) -> &str {
        match self {
            Payload::Fork { .. } => "fork",
            Payload::Exit => "exit",
            Payload::RegionOp { op, .. } => op.as_str(),
            Payload::DomainFault { .. } => "domain_fault",
            Payload::PtpShare { .. } => "ptp_share",
            Payload::PtpUnshare { .. } => "ptp_unshare",
            Payload::PageFault { .. } => "page_fault",
            Payload::TlbFlush { .. } => "tlb_flush",
            Payload::AsidRollover { .. } => "asid_rollover",
            Payload::TlbShootdown { .. } => "tlb_shootdown",
            Payload::FlushBatch { .. } => "flush_batch",
            Payload::Preempt { .. } => "preempt",
            Payload::Sample { gauge, .. } => gauge,
            Payload::SpanBegin { name } | Payload::SpanEnd { name, .. } => name,
            Payload::CycleCharge { .. } => "cycle_charge",
            Payload::FlowArrive { .. } => "flow_arrive",
            Payload::FlowBegin { .. } => "flow_begin",
            Payload::FlowEnd { .. } => "flow_end",
            Payload::Reclaim { .. } => "reclaim",
            Payload::Promote { .. } => "promote",
            Payload::Demote { .. } => "demote",
        }
    }
}

/// One recorded event. `tick` is a recorder-local monotonic sequence
/// number (the simulator is deterministic; logical order is the only
/// timestamp that is stable across hosts).
#[derive(Clone, PartialEq, Debug)]
pub struct Event {
    pub tick: u64,
    pub pid: u32,
    pub asid: u8,
    pub subsystem: Subsystem,
    pub payload: Payload,
}
