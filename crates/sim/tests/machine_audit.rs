//! `Machine::audit` after every step of a random two-core workload.
//!
//! The harness's ops (`common/mod.rs`) reach the kernel through the
//! machine — so its flushes go through the shootdown view, the
//! initiating core invalidating locally — and run processes on both
//! cores: forks, faults, maps, unmaps, protection changes, reclaim,
//! promotion scans and exits, accesses that walk, fill and take page
//! and domain faults, context switches, and squeezes that leave a few
//! frames free, so that forks, unshares and faults run out of them.
//! After each one the kernel passes its own audit and every core's TLBs
//! agree with the tables (`Machine::audit`'s TLB clauses), on each of
//! five kernels.
//!
//! Two rows pin the fault repair's reach on every kernel configuration:
//! a copy-on-write break or a write-enable on one core leaves no stale
//! entry of the page on the core the process ran on before. Two more
//! pin the fork's: a page it write-protects, in a chunk it copies or
//! one it shares, keeps no writable entry, and a fork that runs out of
//! frames flushes what it protected like one that does not.

mod common;

use common::{op_strategy, squeezed_op_strategy, Op, Sim, CODE, HEAP, STACK};
use proptest::prelude::*;
use sat_core::KernelConfig;
use sat_sim::Machine;
use sat_types::{AccessType, Asid, Pfn, SatError, VirtAddr};

/// The kernels run: stock, both sharing presets, sharing with the
/// level-1 write-protect assist, and stock without ASIDs.
fn config(n: u8) -> KernelConfig {
    match n % 5 {
        0 => KernelConfig::stock(),
        1 => KernelConfig::shared_ptp(),
        2 => KernelConfig::shared_ptp_tlb(),
        3 => KernelConfig {
            l1_write_protect: true,
            ..KernelConfig::shared_ptp_tlb()
        },
        _ => KernelConfig::stock().without_asid(),
    }
}

proptest! {
    /// Every clause of `Machine::audit` holds after every op, on every
    /// kernel configuration. Runs go up to 240 ops: at 120, 2048 cases
    /// of the harness's grammar miss a copy-on-write fault that gathers
    /// no repair (`ci/mutants/004-cow-fault-gathers-no-repair.patch`).
    /// Up to 24 squeezed ops follow, so that forks, unshares and faults
    /// run out of frames; the audit reads every page the ballast holds,
    /// which bounds them.
    #[test]
    fn tlbs_agree_with_the_tables_after_every_op(
        preset in any::<u8>(),
        ops in prop::collection::vec(op_strategy(), 1..240),
        squeezed in prop::collection::vec(squeezed_op_strategy(), 0..24),
    ) {
        let mut s = Sim::boot(config(preset));
        s.m.audit().unwrap();
        for op in ops.iter().chain(&squeezed) {
            let _ = s.apply(op);
        }
        s.teardown();
    }
}

/// The frames `core`'s main TLB holds for `asid` at `va`.
fn frames_at(m: &Machine, core: usize, asid: Asid, va: VirtAddr) -> Vec<Pfn> {
    let entries = m.cores[core].main_tlb.entries();
    entries
        .filter(|e| e.asid == Some(asid) && e.covers(va))
        .map(|e| e.pfn)
        .collect()
}

/// Runs a write of `va` on `core` and returns the page faults it took.
fn write_faults(m: &mut Machine, core: usize, va: VirtAddr) -> u64 {
    let before = m.cores[core].stats.page_faults;
    m.access(core, va, AccessType::Write).unwrap();
    m.cores[core].stats.page_faults - before
}

/// A zygote child reads a written heap page on core 0, then writes it
/// on core 1. The copy-on-write break gives the child a new frame, and
/// core 0 — where the child read the old one — must not keep it. The
/// repair reaches core 1 too: the write takes one fault, not a second,
/// spurious one on its own stale entry (whose repair would mask a
/// missing one).
#[test]
fn cow_break_on_one_core_leaves_no_stale_entry_on_another() {
    let heap = VirtAddr::new(HEAP);
    for preset in 0..5 {
        let mut w = Sim::boot(config(preset));
        let [zygote, outsider] = [w.live[0], w.live[1]];
        let m = &mut w.m;
        let child = m.fork(0, zygote).unwrap().0.child;
        let asid = m.kernel.mm(child).unwrap().asid;
        m.context_switch(0, child).unwrap();
        m.access(0, heap, AccessType::Read).unwrap();
        m.context_switch(0, zygote).unwrap();
        m.context_switch(1, child).unwrap();
        assert_eq!(write_faults(m, 1, heap), 1, "{:?}", config(preset));
        let new = frames_at(m, 1, asid, heap);
        assert_eq!(
            new.len(),
            1,
            "{:?}: core 1 caches the write",
            config(preset)
        );
        let stale = frames_at(m, 0, asid, heap);
        assert!(
            stale.iter().all(|pfn| *pfn == new[0]),
            "{:?}: core 0 keeps {stale:?}, the child's frame is {:?}",
            config(preset),
            new[0]
        );
        m.context_switch(1, outsider).unwrap();
        m.context_switch(0, child).unwrap();
        m.audit().unwrap();
    }
}

/// The zygote reads a heap page on core 0 after a fork made it
/// read-only, and the child exits. The zygote, the page's sole mapper
/// again, write-enables it on core 1 in one fault; back on core 0 a
/// write must not fault on the read-only entry left there. (Under the
/// level-1 write-protect assist the fork left the PTE writable, so the
/// fault on core 1 is spurious; it owes the same repair.)
#[test]
fn write_enable_on_one_core_leaves_no_read_only_entry_on_another() {
    let heap = VirtAddr::new(HEAP);
    for preset in 0..5 {
        let mut w = Sim::boot(config(preset));
        let [zygote, outsider] = [w.live[0], w.live[1]];
        let m = &mut w.m;
        let child = m.fork(0, zygote).unwrap().0.child;
        m.access(0, heap, AccessType::Read).unwrap();
        m.exit(0, child).unwrap();
        // A process of the outsider's parks core 0 while the zygote
        // runs on core 1.
        let parked = m.fork(1, outsider).unwrap().0.child;
        m.context_switch(0, parked).unwrap();
        m.context_switch(1, zygote).unwrap();
        let enables = |m: &Machine| {
            let c = m.kernel.mm(zygote).unwrap().counters;
            c.faults_write_enable + c.faults_spurious
        };
        let before = enables(m);
        assert_eq!(write_faults(m, 1, heap), 1, "{:?}", config(preset));
        assert_eq!(enables(m), before + 1, "{:?}", config(preset));
        m.context_switch(1, outsider).unwrap();
        m.context_switch(0, zygote).unwrap();
        assert_eq!(
            write_faults(m, 0, heap),
            0,
            "{:?}: the write on core 0 faulted on a stale read-only entry",
            config(preset)
        );
        m.audit().unwrap();
    }
}

/// The zygote writes a heap page on core 0 — in a chunk the sharing
/// kernels share, so their first-share pass protects it — and a stack
/// page, in a chunk every kernel copies, and forks there. The fork
/// write-protects both for copy-on-write, and the writable entries core
/// 0 cached for them must go: the zygote's next write to each faults
/// once and takes a frame of its own, the child keeping the one it was
/// forked with.
#[test]
fn fork_flushes_stale_writable_parent_entries() {
    let (heap, stack) = (VirtAddr::new(HEAP), VirtAddr::new(STACK));
    for preset in 0..5 {
        let mut w = Sim::boot(config(preset));
        let zygote = w.live[0];
        w.m.access(0, stack, AccessType::Write).unwrap();
        w.m.access(0, heap, AccessType::Write).unwrap();
        let child = w.fork(0, zygote).unwrap().child;
        w.m.audit()
            .unwrap_or_else(|e| panic!("{:?}: {e}", config(preset)));
        for va in [heap, stack] {
            let forked = w.pfn(child, va);
            let faults = write_faults(&mut w.m, 0, va);
            assert_eq!(faults, 1, "{:?}: {va:?}", config(preset));
            assert_eq!(w.pfn(child, va), forked, "{:?}", config(preset));
            assert_ne!(w.pfn(zygote, va), forked, "{:?}", config(preset));
        }
        w.teardown();
    }
}

/// A fork that runs out of frames after it has write-protected the
/// zygote's heap leaves that protection in place, and no frame behind
/// ([`Sim::fork`] checks). The writable entry cached before it must go
/// too: the next fork finds nothing left to protect, reports no span to
/// flush, and its child would see every write the parent makes through
/// the stale entry. A squeeze leaves free just the frames the fork gets
/// through.
#[test]
fn failed_fork_flushes_the_parent_like_a_successful_one() {
    let (heap, code) = (VirtAddr::new(HEAP), VirtAddr::new(CODE));
    for (config, frames_that_fit) in [
        // Root and the heap's table fit; the stack's table does not.
        (KernelConfig::stock(), 5),
        // Root fits and the heap's table is shared; the stack's, which
        // is never shared, does not fit.
        (KernelConfig::shared_ptp(), 4),
    ] {
        let mut w = Sim::boot(config);
        let zygote = w.live[0];
        w.m.access(0, code, AccessType::Execute).unwrap(); // a warm read-only entry
        w.m.access(0, heap, AccessType::Write).unwrap(); // a writable entry
        w.apply(&Op::Squeeze(frames_that_fit)).unwrap();
        let asid = w.m.kernel.mm(zygote).unwrap().asid;
        assert!(w.m.cores[0].main_tlb.probe(heap, asid).is_some());

        assert_eq!(w.fork(0, zygote).err(), Some(SatError::OutOfMemory));
        let parent_pte = w.m.kernel.pte(zygote, heap).unwrap().unwrap();
        assert!(!parent_pte.hw.perms.write(), "the fork got as far as COW");
        // The flush is the spans the fork write-protected, not the
        // parent's ASID: the stale writable entry is gone, the code
        // entry stays warm.
        assert!(w.m.cores[0].main_tlb.probe(heap, asid).is_none());
        assert!(w.m.cores[0].main_tlb.probe(code, asid).is_some());
        w.m.audit().unwrap_or_else(|e| panic!("{config:?}: {e}"));

        w.apply(&Op::Squeeze(12)).unwrap();
        let child = w.fork(0, zygote).unwrap().child;
        let forked = w.pfn(child, heap);
        assert_eq!(forked, parent_pte.hw.pfn);
        assert_eq!(write_faults(&mut w.m, 0, heap), 1, "{config:?}");
        assert_eq!(w.pfn(child, heap), forked);
        assert_ne!(w.pfn(zygote, heap), forked, "COW isolation broken");
        w.teardown();
    }
}
