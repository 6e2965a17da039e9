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

/// Declares a label enum: every variant's label is written once, and
/// `as_str`, `parse`, `ALL` and any counter-key tables listed after
/// the enum (`name = "prefix";` or `name = "prefix" + "suffix";`, the
/// label goes between) all derive from that one list. Keys are
/// `concat!`ed at compile time, so they stay `&'static str` — nothing
/// allocates on the flush/fault paths.
macro_rules! label_enum {
    (
        $(#[$meta:meta])*
        pub enum $name:ident {
            $( $(#[$vmeta:meta])* $variant:ident = $label:literal ),+ $(,)?
        }
        $($keys:tt)*
    ) => {
        $(#[$meta])*
        pub enum $name {
            $( $(#[$vmeta])* $variant ),+
        }

        impl $name {
            /// Every variant, in declaration order (reporting iterates
            /// these, so the order is part of the output).
            pub const ALL: [$name; [$($label),+].len()] = [$($name::$variant),+];

            /// Stable lowercase label: the Chrome-trace spelling and
            /// the report row name.
            pub fn as_str(self) -> &'static str {
                match self {
                    $($name::$variant => $label),+
                }
            }

            /// Inverse of `as_str` (trace re-ingestion).
            pub fn parse(s: &str) -> Option<$name> {
                Self::ALL.into_iter().find(|v| v.as_str() == s)
            }
        }

        label_enum!(@keys $name [$($variant = $label),+] $($keys)*);
    };
    (@keys $name:ident $variants:tt) => {};
    (@keys $name:ident $variants:tt
        $(#[$meta:meta])* $key_fn:ident = $prefix:literal; $($rest:tt)*
    ) => {
        label_enum!(@keys $name $variants $(#[$meta])* $key_fn = $prefix + ""; $($rest)*);
    };
    (@keys $name:ident [$($variant:ident = $label:literal),+]
        $(#[$meta:meta])* $key_fn:ident = $prefix:literal + $suffix:literal; $($rest:tt)*
    ) => {
        impl $name {
            $(#[$meta])*
            pub fn $key_fn(self) -> &'static str {
                match self {
                    $($name::$variant => concat!($prefix, $label, $suffix)),+
                }
            }
        }

        label_enum!(@keys $name [$($variant = $label),+] $($rest)*);
    };
}

label_enum! {
    /// The layer an event originated from. Becomes the Chrome-trace `cat`
    /// field, so Perfetto can filter per subsystem.
    #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
    pub enum Subsystem {
        /// `sat-core` kernel entry points (fork/exit/region ops/faults).
        Kernel = "kernel",
        /// `sat-core` PTP share/unshare mechanism.
        Share = "share",
        /// `sat-vm` page-fault handling.
        VmFault = "vm-fault",
        /// `sat-tlb` flush primitives (main and micro TLBs).
        Tlb = "tlb",
        /// `sat-android` launch/IPC phases.
        Android = "android",
        /// `sat-bench` sweep cells.
        Bench = "bench",
        /// `sat-sim` modeled-cost sampling.
        Sim = "sim",
        /// `sat-sched` scheduling decisions (preemptions, migrations).
        Sched = "sched",
    }
}

impl Subsystem {
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
}

label_enum! {
    /// Why a PTP was unshared, in Figure-6 order. Mirrors `sat-core`'s
    /// `UnshareTrigger`.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub enum UnshareCause {
        /// COW write fault into a shared chunk.
        WriteFault = "write_fault",
        /// A new region was mapped into a shared chunk.
        NewRegion = "new_region",
        /// A region in the shared chunk was freed.
        RegionFree = "region_free",
        /// mprotect (or similar in-place op) on a shared chunk.
        RegionOp = "region_op",
        /// Address-space teardown.
        Exit = "exit",
        /// Memory-pressure reclaim tore a PTE out of the shared PTP (the
        /// table stays shared; every sharer is repaired at once and
        /// refaults through the page cache).
        Reclaim = "reclaim",
    }
    /// The per-cause counter bumped for every unshare event.
    counter_key = "share.unshare.";
}

label_enum! {
    /// Which kernel path forced a large mapping back to 4KB PTEs
    /// (Figure-6-style cause attribution for the demotion side).
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub enum DemoteCause {
        /// Partial `munmap` cut through a large group / section.
        Munmap = "munmap",
        /// `mprotect` changed permissions over part of a large mapping.
        Mprotect = "mprotect",
        /// A write-protect (COW / write-enable) fault landed on one slot
        /// of a large group; the slot must diverge, so the group splits.
        Cow = "cow",
        /// PTP unshare copied a large group; the copy is split so partial
        /// copies can never leave a stale wide translation behind.
        Unshare = "unshare",
        /// Memory-pressure reclaim needed to tear a single PTE inside a
        /// large group.
        Reclaim = "reclaim",
        /// `fork` demotes parent sections so child page tables stay
        /// two-level and the share path never sees an L1 leaf.
        Fork = "fork",
    }
    /// Per-cause demotion counter.
    counter_key = "mmu.demote.cause.";
}

label_enum! {
    /// Which kernel path issued a TLB flush. Set as a scoped thread-local
    /// by the caller (see [`crate::with_flush_reason`]) and read by the
    /// flush primitives, so the TLB crate needs no signature changes.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub enum FlushReason {
        ContextSwitch = "context_switch",
        Fork = "fork",
        Exit = "exit",
        /// PTP unshare repair (the unshare path flushes the ASID).
        Unshare = "unshare",
        /// Post-munmap/mprotect VA invalidation.
        RegionOp = "region_op",
        /// Per-fault repair after the kernel rewrites a PTE.
        FaultRepair = "fault_repair",
        DomainFault = "domain_fault",
        AsidRecycle = "asid_recycle",
        /// Memory-pressure reclaim tore PTEs and must evict their cached
        /// translations before the frame is reused.
        Reclaim = "reclaim",
        /// Large-page/section promotion migrated pages to contiguous
        /// frames; stale small-page translations must go before the old
        /// frames are reused.
        Promote = "promote",
        /// A large mapping was split back to 4KB PTEs; the cached
        /// large/section entry spans every page of the group, so the whole
        /// span is invalidated.
        Demote = "demote",
        /// No kernel path claimed the flush (e.g. a unit test poking the
        /// TLB directly).
        Unattributed = "unattributed",
    }
    /// Per-reason flush-event counter.
    counter_key = "tlb.flush.reason.";
    /// Per-reason invalidated-entry accumulator (main TLB only).
    entries_key = "tlb.flush.reason." + ".entries";
}

label_enum! {
    /// Which flush primitive fired.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub enum FlushScope {
        /// `MainTlb::flush_all` — counted against `TlbStats::full_flushes`.
        All = "all",
        /// `MainTlb::flush_asid`.
        Asid = "asid",
        /// `MainTlb::flush_va_all_asids`.
        VaAllAsids = "va_all_asids",
        /// `MainTlb::flush_va`.
        Va = "va",
        /// `MainTlb::flush_page` — one ASID-tagged page, globals survive.
        Page = "page",
        /// `MainTlb::flush_range` — a VPN range within one ASID, globals
        /// survive (the gather escalates to `Asid` past the ceiling).
        Range = "range",
        /// `MainTlb::flush_non_global`.
        NonGlobal = "non_global",
        /// `MicroTlb::flush` (context-switch full clear).
        MicroAll = "micro_all",
        /// `MicroTlb::flush_va`.
        MicroVa = "micro_va",
    }
    /// Per-scope flush-event counter.
    counter_key = "tlb.flush.scope.";
}

impl FlushScope {
    /// True for the main (ASID-tagged, `TlbStats`-counted) TLB scopes.
    pub fn is_main(self) -> bool {
        !matches!(self, FlushScope::MicroAll | FlushScope::MicroVa)
    }
}

label_enum! {
    /// How a page fault resolved. Mirrors `sat-vm`'s `FaultKind`.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub enum FaultClass {
        Minor = "minor",
        Major = "major",
        Cow = "cow",
        WriteEnable = "write_enable",
        Spurious = "spurious",
    }
    /// Per-class fault counter.
    counter_key = "vm.fault.";
}

label_enum! {
    /// Which region syscall ran.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub enum RegionOpKind {
        Mmap = "mmap",
        Munmap = "munmap",
        Mprotect = "mprotect",
    }
    /// Per-syscall counter.
    counter_key = "kernel.";
}

label_enum! {
    /// The unit a duration span's `value` is measured in.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub enum SpanUnit {
        /// Modeled cycles (Android launch/IPC phases).
        Cycles = "cycles",
        /// Wall-clock microseconds (bench cells).
        Micros = "us",
    }
}

label_enum! {
    /// Why simulated cycles were charged to a request flow. A closed
    /// enum: every point where the machine adds to a core's cycle counter
    /// tags the charge with exactly one cause, so a flow's critical path
    /// decomposes without residue — [`crate::analyze::FlowTable`] asserts
    /// that the per-cause sums reconcile exactly with the request's wall
    /// ticks on lossless streams.
    #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
    pub enum ChargeCause {
        /// Useful work: instruction CPI plus cache stalls on hits.
        Exec = "exec",
        /// Main-TLB miss walk stall (the page tables were walked but no
        /// fault was taken).
        TlbStall = "tlb_stall",
        /// Page-fault handling: walk, repair, and the handler's kernel
        /// instruction fetches.
        Fault = "fault",
        /// ARM domain fault (shared-entry protection check).
        DomainFault = "domain_fault",
        /// PTP unshare work inside a fault (base cost + per-PTE copies),
        /// split out of [`ChargeCause::Fault`].
        Unshare = "unshare",
        /// Cross-core shootdown IPI receipt.
        Ipi = "ipi",
        /// Pending ASID-rollover non-global flush.
        RolloverFlush = "rollover_flush",
        /// Context-switch cost (register/TTBR swap + scheduler kernel
        /// path).
        ContextSwitch = "context_switch",
        /// Fork cost (PTP alloc/share, PTE copies, write-protect ops).
        Fork = "fork",
        /// Run-queue wait: wall ticks a request spent preempted or queued,
        /// not executing. Charged by `sat-sched`, not the machine — it is
        /// elapsed time on the core's clock, not cycles the flow consumed.
        RunqWait = "runq_wait",
    }
    /// The per-cause charged-cycles accumulator.
    counter_key = "flow.cycles.";
}

/// Declares [`Payload`] together with its wire schema, one line per
/// fact: `Variant = "<phase>" <name> { field: Type, .. }`. The phase is
/// the Chrome-trace `ph`; the name is either the event-name literal or
/// `field: Type`, meaning the event is named by that field's `as_str()`
/// (a free-form `String`, or a label enum whose labels are the names).
/// Every other field travels in `args` under its own identifier, coded
/// by its type — so [`Payload::name`], the exporter
/// ([`Payload::write_args`]) and the re-ingester
/// ([`Payload::from_wire`]) cannot drift apart.
macro_rules! payloads {
    ($(
        $(#[$meta:meta])*
        $variant:ident = $ph:literal $($lit:literal)? $($named_by:ident : $name_ty:ident)?
        $({ $( $(#[$fmeta:meta])* $field:ident : $ty:ident ),+ $(,)? })?
    ),+ $(,)?) => {
        /// The typed body of an event. Numeric fields are the quantities the
        /// paper's evaluation attributes per cause.
        #[derive(Clone, PartialEq, Debug)]
        pub enum Payload {
            $( $(#[$meta])* $variant $({ $( $(#[$fmeta])* $field: $ty ),+ })? ),+
        }

        impl Payload {
            /// The Chrome-trace event name.
            pub fn name(&self) -> &str {
                match self {
                    $( Payload::$variant { $($named_by,)? .. } => {
                        $($lit)? $($named_by.as_str())?
                    } )+
                }
            }

            /// The Chrome-trace phase (`ph`): `i` instant, `B`/`E` span
            /// begin/end, `C` counter-track point.
            pub(crate) fn phase(&self) -> &'static str {
                match self {
                    $( Payload::$variant { .. } => $ph ),+
                }
            }

            /// Appends this payload's `"key": value` pairs to an `args`
            /// object under construction.
            pub(crate) fn write_args(&self, out: &mut String) {
                match self {
                    $( Payload::$variant { $($($field),+)? } => {
                        $($( payloads!(@put out, $field: $ty); )+)?
                    } )+
                }
            }

            /// Rebuilds the payload an exported event carried; `Ok(None)`
            /// when no variant is written under (`ph`, `name`).
            pub(crate) fn from_wire(
                ph: &str,
                name: &str,
                args: &crate::json::Json,
                ctx: &str,
            ) -> Result<Option<Payload>, String> {
                $(
                    if ph == $ph
                        $(&& name == $lit)?
                        $(&& payloads!(@names $name_ty, name))?
                    {
                        return Ok(Some(Payload::$variant {
                            $($( $field: payloads!(@get $field: $ty, name, args, ctx), )+)?
                        }));
                    }
                )+
                Ok(None)
            }
        }
    };
    // Field codecs, picked by the field's declared type. A `String` is
    // the event name itself, never an arg.
    (@put $out:ident, $v:ident: String) => { let _ = $v; };
    (@put $out:ident, $v:ident: bool) => { crate::chrome::put_bool($out, stringify!($v), *$v) };
    (@put $out:ident, $v:ident: u8) => { crate::chrome::put_num($out, stringify!($v), *$v) };
    (@put $out:ident, $v:ident: u32) => { crate::chrome::put_num($out, stringify!($v), *$v) };
    (@put $out:ident, $v:ident: u64) => { crate::chrome::put_num($out, stringify!($v), *$v) };
    (@put $out:ident, $v:ident: $label:ident) => {
        crate::chrome::put_str($out, stringify!($v), $v.as_str())
    };
    (@get $v:ident: String, $name:ident, $args:ident, $ctx:ident) => { $name.to_string() };
    (@get $v:ident: bool, $name:ident, $args:ident, $ctx:ident) => {
        crate::chrome::get_bool($args, stringify!($v), $ctx)?
    };
    (@get $v:ident: u8, $name:ident, $args:ident, $ctx:ident) => {
        crate::chrome::get_num($args, stringify!($v), $ctx)?
    };
    (@get $v:ident: u32, $name:ident, $args:ident, $ctx:ident) => {
        crate::chrome::get_num($args, stringify!($v), $ctx)?
    };
    (@get $v:ident: u64, $name:ident, $args:ident, $ctx:ident) => {
        crate::chrome::get_num($args, stringify!($v), $ctx)?
    };
    (@get $v:ident: $label:ident, $name:ident, $args:ident, $ctx:ident) => {
        crate::chrome::get_label($args, stringify!($v), $ctx, $label::parse)?
    };
    // Whether an event name can name this variant.
    (@names String, $name:ident) => { true };
    (@names $label:ident, $name:ident) => { $label::parse($name).is_some() };
}

payloads! {
    /// `Kernel::fork` completed; `pid` is the parent.
    Fork = "i" "fork" {
        child: u32,
        ptps_shared: u64,
        ptes_copied: u64,
        /// Whether this fork took the PTP-sharing path.
        shared: bool,
    },
    /// `Kernel::exit` tore down the address space.
    Exit = "i" "exit",
    /// A region syscall (mmap/munmap/mprotect); the event is named
    /// after the syscall.
    RegionOp = "i" op: RegionOpKind {
        op: RegionOpKind,
        va: u32,
        pages: u32,
        /// PTPs unshared as a side effect of the op.
        unshared: u64,
    },
    /// ARM domain fault (global-entry protection check failed).
    DomainFault = "i" "domain_fault" { va: u32 },
    /// Fork-time PTP sharing summary (one per shared fork).
    PtpShare = "i" "ptp_share" { ptps: u64, write_protect_ops: u64 },
    /// One PTP left the shared state.
    PtpUnshare = "i" "ptp_unshare" {
        cause: UnshareCause,
        ptes_copied: u64,
        /// Last-sharer fast path: no copy, only NEED_COPY cleared.
        last_sharer: bool,
        va: u32,
    },
    /// `sat-vm` resolved a page fault.
    PageFault = "i" "page_fault" {
        class: FaultClass,
        va: u32,
        file_backed: bool,
    },
    /// A TLB flush primitive ran and invalidated `entries` entries.
    TlbFlush = "i" "tlb_flush" {
        scope: FlushScope,
        reason: FlushReason,
        entries: u64,
    },
    /// The 8-bit ASID space was exhausted; the allocator bumped the
    /// generation. Live ASIDs are reassigned lazily at switch-in and
    /// one non-global flush follows (global entries survive).
    AsidRollover = "i" "asid_rollover" { generation: u64 },
    /// A precise shootdown was resolved against the per-core residency
    /// map. `scope` is the invalidation granularity the resident cores
    /// flushed at (`Asid`, `Range`, or `Page`); `cores_targeted` cores
    /// held the ASID and flushed, of which `cores_local` were the
    /// initiating core itself (a local TLBI, no IPI — the IPI count is
    /// `cores_targeted - cores_local`); `cores_skipped` never held the
    /// ASID and were left alone.
    TlbShootdown = "i" "tlb_shootdown" {
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
    FlushBatch = "i" "flush_batch" {
        ops: u64,
        coalesced: u64,
        escalated: u64,
    },
    /// The scheduler preempted `pid` on `core` in favour of `next`
    /// (end of timeslice).
    Preempt = "i" "preempt" { core: u32, next: u32 },
    /// One gauge's value at a sample point, snapshotted by
    /// [`crate::sample_gauges`]. Exported as a Chrome counter-track
    /// point named after the gauge, so Perfetto renders the gauge as a
    /// live timeline (it plots `args.value`) next to the event spans.
    /// Samples are stamped (pid 0, asid 0): gauges describe
    /// whole-machine state, not one process.
    Sample = "C" gauge: String { gauge: String, value: u64 },
    /// A duration span opened (an Android phase, a bench cell). Must
    /// be closed by a [`Payload::SpanEnd`] with the same name on the
    /// same (pid, asid) — `repro check` enforces the pairing. The
    /// viewer nests the events a span encloses under it.
    SpanBegin = "B" name: String { name: String },
    /// A duration span closed, carrying the measured quantity (cycles
    /// or wall-clock µs — logical ticks only order the span against
    /// the events it contains).
    SpanEnd = "E" name: String {
        name: String,
        value: u64,
        unit: SpanUnit,
    },
    /// Simulated cycles charged to a request flow, tagged with the
    /// cause. `flow` 0 is the unattributed bucket (work done while no
    /// request was bound to the charging core).
    CycleCharge = "i" "cycle_charge" {
        flow: u32,
        cause: ChargeCause,
        cycles: u64,
    },
    /// A request arrived at its server's queue (open-loop arrival; the
    /// flow may wait before its first instruction runs).
    FlowArrive = "i" "flow_arrive" { flow: u32 },
    /// The flow was bound at binder-request ingress and started
    /// executing.
    FlowBegin = "i" "flow_begin" { flow: u32 },
    /// The flow's reply left; `wall` is completion minus arrival on
    /// the serving core's cycle clock — the quantity the per-cause
    /// charges must reconcile to exactly.
    FlowEnd = "i" "flow_end" { flow: u32, wall: u64 },
    /// One memory-pressure reclaim pass completed: `pages` file frames
    /// were evicted back to the free pool, tearing `pte_tears` PTEs,
    /// of which `shared_tears` lived in shared PTPs (torn in place —
    /// one tear repairs every sharer, who refault via the page cache).
    Reclaim = "i" "reclaim" {
        pages: u64,
        pte_tears: u64,
        shared_tears: u64,
    },
    /// The promotion scanner collapsed one aligned run into a wider
    /// translation: `bytes` is the new mapping size (64KB group or 1MB
    /// section), `pages` the 4KB pages it now spans, and `filled` the
    /// hole pages that had never been touched but got frames allocated
    /// so the run could go wide — the memory-waste numerator.
    Promote = "i" "promote" {
        va: u32,
        bytes: u32,
        pages: u64,
        filled: u64,
    },
    /// A large mapping at `va` split back to 4KB PTEs: `bytes` is the
    /// span invalidated (the whole group/section, since one cached
    /// wide entry serves every page in it), `pages` the PTEs restored.
    Demote = "i" "demote" {
        va: u32,
        bytes: u32,
        pages: u64,
        cause: DemoteCause,
    },
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
