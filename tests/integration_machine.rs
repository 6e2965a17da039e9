//! Machine-level integration: TLB coherence, domain protection, and
//! determinism through the full hardware/kernel stack.

use sat_android::{launch_app_seq, AndroidSystem, BootOptions, LaunchOptions, LibraryLayout};
use sat_core::{Kernel, KernelConfig};
use sat_sim::Machine;
use sat_types::{AccessType, Perms, Pid, RegionTag, SatError, VirtAddr, PAGE_SIZE};
use sat_vm::MmapRequest;

fn machine(config: KernelConfig) -> (Machine, Pid) {
    let mut kernel = Kernel::new(config, 65_536);
    let zygote = kernel.create_process().unwrap();
    kernel.exec_zygote(zygote).unwrap();
    let lib = kernel.files.register("lib.so", 32 * PAGE_SIZE);
    let mut m = Machine::single_core(kernel);
    m.mmap(
        0,
        zygote,
        &MmapRequest::file(
            32 * PAGE_SIZE,
            Perms::RX,
            lib,
            0,
            RegionTag::ZygoteNativeCode,
            "lib.so",
        )
        .at(VirtAddr::new(0x4000_0000)),
    )
    .unwrap();
    m.mmap(
        0,
        zygote,
        &MmapRequest::anon(8 * PAGE_SIZE, Perms::RW, RegionTag::Heap, "[heap]")
            .at(VirtAddr::new(0x0800_0000)),
    )
    .unwrap();
    m.context_switch(0, zygote).unwrap();
    (m, zygote)
}

#[test]
fn tlb_never_serves_stale_translation_after_cow() {
    // Writes after fork must never observe the pre-COW frame via a
    // stale TLB entry.
    let (mut m, zygote) = machine(KernelConfig::shared_ptp_tlb());
    let heap = VirtAddr::new(0x0800_0000);
    m.access(0, heap, AccessType::Write).unwrap();
    let (fork, _) = m.fork(0, zygote).unwrap();
    let child = fork.child;

    // Parent re-reads (loads a TLB entry for the shared frame).
    m.access(0, heap, AccessType::Read).unwrap();
    // Child writes: unshare + COW. The TLB must be repaired so the
    // child's subsequent access translates to its own frame.
    m.context_switch(0, child).unwrap();
    m.access(0, heap, AccessType::Write).unwrap();
    let child_frame = m.kernel.pte(child, heap).unwrap().unwrap().hw.pfn;
    let child_asid = m.kernel.mm(child).unwrap().asid;
    let entry = m.cores[0].main_tlb.probe(heap, child_asid).unwrap();
    assert_eq!(entry.pfn, child_frame, "TLB serves the COW frame");
    // And the parent still translates to the original.
    m.context_switch(0, zygote).unwrap();
    m.access(0, heap, AccessType::Read).unwrap();
    let parent_frame = m.kernel.pte(zygote, heap).unwrap().unwrap().hw.pfn;
    let parent_asid = m.kernel.mm(zygote).unwrap().asid;
    assert_eq!(
        m.cores[0].main_tlb.probe(heap, parent_asid).unwrap().pfn,
        parent_frame
    );
    assert_ne!(parent_frame, child_frame);
}

#[test]
fn domain_protection_isolates_non_zygote_processes() {
    // A non-zygote process mapping different code at the same VA must
    // never read through the zygote's global entry.
    let (mut m, zygote) = machine(KernelConfig::shared_ptp_tlb());
    let va = VirtAddr::new(0x4000_0000);
    m.access(0, va, AccessType::Execute).unwrap();
    let zygote_frame = m.kernel.pte(zygote, va).unwrap().unwrap().hw.pfn;
    // The global entry is in the TLB.
    assert!(m.cores[0].main_tlb.global_occupancy() > 0);

    let daemon = m.kernel.create_process().unwrap();
    let other = m.kernel.files.register("other.so", 4 * PAGE_SIZE);
    m.mmap(
        0,
        daemon,
        &MmapRequest::file(
            4 * PAGE_SIZE,
            Perms::RX,
            other,
            0,
            RegionTag::OtherLibCode,
            "other.so",
        )
        .at(va),
    )
    .unwrap();
    m.context_switch(0, daemon).unwrap();
    m.access(0, va, AccessType::Execute).unwrap();
    assert_eq!(m.cores[0].stats.domain_faults, 1);
    let daemon_frame = m.kernel.pte(daemon, va).unwrap().unwrap().hw.pfn;
    assert_ne!(daemon_frame, zygote_frame);
    let daemon_asid = m.kernel.mm(daemon).unwrap().asid;
    assert_eq!(
        m.cores[0].main_tlb.probe(va, daemon_asid).unwrap().pfn,
        daemon_frame,
        "daemon's TLB entry must translate to its own library"
    );
}

#[test]
fn access_stream_is_deterministic() {
    let run = || {
        let (mut m, zygote) = machine(KernelConfig::shared_ptp_tlb());
        let (fork, _) = m.fork(0, zygote).unwrap();
        let mut total = 0u64;
        for i in 0..2_000u32 {
            let pid = if i % 3 == 0 { zygote } else { fork.child };
            m.context_switch(0, pid).unwrap();
            let va = VirtAddr::new(0x4000_0000 + (i % 32) * PAGE_SIZE);
            total += m.access(0, va, AccessType::Execute).unwrap();
        }
        (total, m.cores[0].stats, m.cores[0].main_tlb.stats())
    };
    let a = run();
    let b = run();
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1);
    assert_eq!(a.2, b.2);
}

#[test]
fn full_launch_is_reproducible_per_config() {
    for config in [KernelConfig::stock(), KernelConfig::shared_ptp_tlb()] {
        let run = || {
            let mut sys =
                AndroidSystem::boot(config, LibraryLayout::Original, 7, 1, BootOptions::small())
                    .unwrap();
            let (_pid, report) = launch_app_seq(&mut sys, &LaunchOptions::small(), 0).unwrap();
            (
                report.window_cycles,
                report.file_faults,
                report.ptps_allocated,
            )
        };
        assert_eq!(run(), run(), "nondeterministic launch under {config:?}");
    }
}

/// An app just launched on a booted system exits through the machine
/// while it runs on core 0: no core keeps the dead pid as current, and
/// no TLB entry outlives it (`Machine::audit`).
#[test]
fn exit_of_a_running_app_leaves_nothing_behind() {
    for config in [KernelConfig::stock(), KernelConfig::shared_ptp_tlb()] {
        let mut sys =
            AndroidSystem::boot(config, LibraryLayout::Original, 7, 1, BootOptions::small())
                .unwrap();
        let (pid, _) = launch_app_seq(&mut sys, &LaunchOptions::small(), 0).unwrap();
        assert_eq!(sys.machine.cores[0].current, Some(pid));
        sys.machine.exit(0, pid).unwrap();
        assert_eq!(sys.machine.cores[0].current, None);
        sys.machine
            .audit()
            .unwrap_or_else(|e| panic!("{config:?}: {e}"));
    }
}

#[test]
fn shared_tlb_requires_both_flags() {
    // share_tlb without the zygote path produces no global entries;
    // global entries appear only for zygote-like processes under the
    // full configuration.
    // (Kernel-text entries are always global; the check below probes
    // the *user* library translation specifically, using a foreign
    // ASID: only a global entry can match it.)
    let va = VirtAddr::new(0x4000_0000);
    let foreign = sat_types::Asid::new(200);

    let (mut m, _zygote) = machine(KernelConfig::shared_ptp());
    m.access(0, va, AccessType::Execute).unwrap();
    assert!(m.cores[0].main_tlb.probe(va, foreign).is_none());

    let (mut m2, _z2) = machine(KernelConfig::shared_ptp_tlb());
    m2.access(0, va, AccessType::Execute).unwrap();
    assert!(m2.cores[0].main_tlb.probe(va, foreign).is_some());
}

#[test]
fn cycles_accumulate_monotonically_across_workload() {
    let (mut m, zygote) = machine(KernelConfig::stock());
    let mut last = 0;
    for i in 0..500u32 {
        let _ = zygote;
        m.access(
            0,
            VirtAddr::new(0x4000_0000 + (i % 32) * PAGE_SIZE),
            AccessType::Execute,
        )
        .unwrap();
        let now = m.cores[0].stats.cycles;
        assert!(now > last);
        last = now;
    }
}

#[test]
fn two_cores_private_tlbs_shared_l2() {
    let mut kernel = Kernel::new(KernelConfig::shared_ptp_tlb(), 65_536);
    let zygote = kernel.create_process().unwrap();
    kernel.exec_zygote(zygote).unwrap();
    let lib = kernel.files.register("lib.so", 16 * PAGE_SIZE);
    let mut m = Machine::new(kernel, 2);
    m.mmap(
        0,
        zygote,
        &MmapRequest::file(
            16 * PAGE_SIZE,
            Perms::RX,
            lib,
            0,
            RegionTag::ZygoteNativeCode,
            "lib.so",
        )
        .at(VirtAddr::new(0x4000_0000)),
    )
    .unwrap();
    // The zygote pre-faults the code, so the fork shares a populated
    // PTP with the child.
    m.syscall(|k, _| {
        k.populate(
            zygote,
            sat_types::VaRange::from_len(VirtAddr::new(0x4000_0000), 16 * PAGE_SIZE),
        )
    })
    .unwrap();
    let child = m.syscall(|k, _| k.fork(zygote)).unwrap().child;

    // Zygote runs on core 0, the child on core 1.
    m.context_switch(0, zygote).unwrap();
    m.context_switch(1, child).unwrap();
    let va = VirtAddr::new(0x4000_0000);
    m.access(0, va, AccessType::Execute).unwrap();
    // Core 1's TLB is empty for this page (TLBs are per-core)...
    let asid = m.kernel.mm(child).unwrap().asid;
    assert!(m.cores[1].main_tlb.probe(va, asid).is_none());
    // ...but no fault: the shared PTP already holds the PTE, and the
    // instruction line itself hits the shared L2 (core 0 loaded it).
    // The cost is the walk (core 1's private root descriptor misses
    // to memory; the shared PTE line and the code line hit L2) — far
    // below the all-miss worst case.
    let faults_before = m.cores[1].stats.page_faults;
    let cost = m.access(1, va, AccessType::Execute).unwrap();
    assert_eq!(
        m.cores[1].stats.page_faults, faults_before,
        "no fault on core 1"
    );
    assert!(
        cost < 400,
        "core 1 paid {cost} cycles; expected L2 hits on the shared lines"
    );
    // And the global entry is now in core 1's TLB too.
    assert!(m.cores[1].main_tlb.probe(va, asid).is_some());
}

#[test]
fn tlb_shootdown_reaches_all_cores() {
    let mut kernel = Kernel::new(KernelConfig::shared_ptp(), 65_536);
    let zygote = kernel.create_process().unwrap();
    kernel.exec_zygote(zygote).unwrap();
    let mut m = Machine::new(kernel, 2);
    m.mmap(
        0,
        zygote,
        &MmapRequest::anon(8 * PAGE_SIZE, Perms::RW, RegionTag::Heap, "[heap]")
            .at(VirtAddr::new(0x0800_0000)),
    )
    .unwrap();
    m.context_switch(0, zygote).unwrap();
    m.context_switch(1, zygote).unwrap();
    let va = VirtAddr::new(0x0800_0000);
    // Both cores load the translation.
    m.access(0, va, AccessType::Write).unwrap();
    m.access(1, va, AccessType::Read).unwrap();
    let asid = m.kernel.mm(zygote).unwrap().asid;
    assert!(m.cores[0].main_tlb.probe(va, asid).is_some());
    assert!(m.cores[1].main_tlb.probe(va, asid).is_some());
    // A munmap through the kernel flushes the ASID on EVERY core
    // (shootdown semantics) — here via the unshare-free stock path,
    // exercised through exit which flushes by ASID.
    m.munmap(0, zygote, sat_types::VaRange::from_len(va, 8 * PAGE_SIZE))
        .unwrap();
    // The mapping is gone; a fresh access on either core must fault,
    // not silently hit a stale entry.
    assert!(m.access(0, va, AccessType::Read).is_err());
    assert!(m.access(1, va, AccessType::Read).is_err());
}

#[test]
fn fork_flushes_stale_writable_parent_entries() {
    // Regression: fork write-protects parent PTEs (COW / PTP sharing);
    // a writable TLB entry cached before the fork must not let the
    // parent write the still-shared frame without faulting.
    let (mut m, zygote) = machine(KernelConfig::shared_ptp());
    let heap = VirtAddr::new(0x0800_0000);
    m.access(0, heap, AccessType::Write).unwrap(); // caches a writable entry
    let (fork, _) = m.fork(0, zygote).unwrap();
    let child_frame_before = {
        // The child shares the PTP; same PTE, same frame.
        m.kernel.pte(fork.child, heap).unwrap().unwrap().hw.pfn
    };
    // Parent writes again: must fault (unshare + COW/write-enable),
    // not silently reuse the stale writable entry.
    let faults_before = m.cores[0].stats.page_faults;
    m.access(0, heap, AccessType::Write).unwrap();
    assert!(
        m.cores[0].stats.page_faults > faults_before,
        "parent write after fork bypassed the fault path"
    );
    // And the child still maps the original frame, isolated from the
    // parent's post-fork write.
    let parent_frame = m.kernel.pte(zygote, heap).unwrap().unwrap().hw.pfn;
    let child_frame = m.kernel.pte(fork.child, heap).unwrap().unwrap().hw.pfn;
    assert_eq!(child_frame, child_frame_before);
    assert_ne!(parent_frame, child_frame, "COW isolation broken");
}

#[test]
fn failed_fork_flushes_the_parent_like_a_successful_one() {
    // A fork that runs out of frames after it has write-protected the
    // parent's heap leaves that protection in place. The writable TLB
    // entry cached before it must go too: the next fork finds nothing
    // left to protect, reports no span to flush, and its child would
    // see every write the parent makes through the stale entry.
    for (config, frames_that_fit) in [
        // Root and the heap's table fit; the stack's table does not.
        (KernelConfig::stock(), 5),
        // Root fits and the heap's table is shared; the stack's, which
        // is never shared, does not fit.
        (KernelConfig::shared_ptp(), 4),
    ] {
        let heap = VirtAddr::new(0x0800_0000);
        let stack = VirtAddr::new(0x0900_0000);
        let code = VirtAddr::new(0x4000_0000);
        // The zygote (root, three tables, three pages) and a second
        // process whose exit makes room (root, one table, four pages).
        let mut kernel = Kernel::new(config, 10 + 9 + frames_that_fit);
        let zygote = kernel.create_process().unwrap();
        kernel.exec_zygote(zygote).unwrap();
        let filler = kernel.create_process().unwrap();
        let lib = kernel.files.register("libc.so", PAGE_SIZE);
        let mut m = Machine::single_core(kernel);
        let text = MmapRequest::file(
            PAGE_SIZE,
            Perms::RX,
            lib,
            0,
            RegionTag::ZygoteNativeCode,
            "libc.so",
        )
        .at(code);
        m.mmap(0, zygote, &text).unwrap();
        for (pid, pages, tag, at) in [
            (zygote, 1, RegionTag::Heap, heap),
            (zygote, 1, RegionTag::Stack, stack),
            (filler, 4, RegionTag::Heap, heap),
        ] {
            let req = MmapRequest::anon(pages * PAGE_SIZE, Perms::RW, tag, "[anon]").at(at);
            m.mmap(0, pid, &req).unwrap();
        }
        m.context_switch(0, filler).unwrap();
        for page in 0..4 {
            let va = VirtAddr::new(heap.raw() + page * PAGE_SIZE);
            m.access(0, va, AccessType::Write).unwrap();
        }
        m.context_switch(0, zygote).unwrap();
        m.access(0, code, AccessType::Execute).unwrap(); // a warm read-only entry
        m.access(0, stack, AccessType::Write).unwrap();
        m.access(0, heap, AccessType::Write).unwrap(); // caches a writable entry
        let in_use = m.kernel.phys.frames_in_use();
        assert_eq!(in_use, 10 + 9);
        let asid = m.kernel.mm(zygote).unwrap().asid;
        assert!(m.cores[0].main_tlb.probe(heap, asid).is_some());

        assert_eq!(m.fork(0, zygote).err(), Some(SatError::OutOfMemory));
        assert_eq!(m.kernel.phys.frames_in_use(), in_use);
        let parent_pte = m.kernel.pte(zygote, heap).unwrap().unwrap();
        assert!(!parent_pte.hw.perms.write(), "the fork got as far as COW");
        // The flush is the spans the fork write-protected, not the
        // parent's ASID: the stale writable entry is gone, the code
        // entry stays warm.
        assert!(m.cores[0].main_tlb.probe(heap, asid).is_none());
        assert!(m.cores[0].main_tlb.probe(code, asid).is_some());

        m.exit(0, filler).unwrap();
        let (fork, _) = m.fork(0, zygote).unwrap();
        let child_frame_before = m.kernel.pte(fork.child, heap).unwrap().unwrap().hw.pfn;
        assert_eq!(child_frame_before, parent_pte.hw.pfn);
        let faults_before = m.cores[0].stats.page_faults;
        m.access(0, heap, AccessType::Write).unwrap();
        assert!(
            m.cores[0].stats.page_faults > faults_before,
            "parent write after the failed fork bypassed the fault path"
        );
        let parent_frame = m.kernel.pte(zygote, heap).unwrap().unwrap().hw.pfn;
        let child_frame = m.kernel.pte(fork.child, heap).unwrap().unwrap().hw.pfn;
        assert_eq!(child_frame, child_frame_before);
        assert_ne!(parent_frame, child_frame, "COW isolation broken");
    }
}

/// Conservation (observability): every `TlbStats` flush increment has
/// a matching `TlbFlush` event. Zero-entry full flushes are reported
/// too, so event *counts* reconcile with `full_flushes` and event
/// entry *sums* with `entries_flushed`, across every core.
#[test]
fn obs_flush_events_reconcile_with_tlb_stats() {
    sat_obs::install(1 << 16);
    let (mut m, zygote) = machine(KernelConfig::shared_ptp().without_asid());
    // A workload touching every flush site: faults (repair flushes),
    // context switches (full flushes: ASIDs disabled), fork (parent
    // ASID shootdown), region ops, domain setup, and exit.
    let heap = VirtAddr::new(0x0800_0000);
    for i in 0..8u32 {
        m.access(
            0,
            VirtAddr::new(0x4000_0000 + i * PAGE_SIZE),
            AccessType::Execute,
        )
        .unwrap();
        m.access(
            0,
            VirtAddr::new(heap.raw() + i * PAGE_SIZE),
            AccessType::Write,
        )
        .unwrap();
    }
    let (fork, _) = m.fork(0, zygote).unwrap();
    let child = fork.child;
    m.context_switch(0, child).unwrap();
    m.access(0, heap, AccessType::Write).unwrap();
    m.mprotect(
        0,
        child,
        sat_types::VaRange::from_len(VirtAddr::new(0x4000_0000), 32 * PAGE_SIZE),
        Perms::R,
    )
    .unwrap();
    m.munmap(0, child, sat_types::VaRange::from_len(heap, 8 * PAGE_SIZE))
        .unwrap();
    m.context_switch(0, zygote).unwrap();
    m.exit(0, child).unwrap();
    let rec = sat_obs::uninstall().expect("recorder installed above");
    assert_eq!(rec.dropped, 0, "scenario fits the ring");

    let mut full_flush_events = 0u64;
    let mut main_entries = 0u64;
    for event in &rec.events {
        if let sat_obs::Payload::TlbFlush { scope, entries, .. } = &event.payload {
            if scope.is_main() {
                main_entries += entries;
                if *scope == sat_obs::FlushScope::All {
                    full_flush_events += 1;
                }
            }
        }
    }
    let stats_full: u64 = m
        .cores
        .iter()
        .map(|c| c.main_tlb.stats().full_flushes)
        .sum();
    let stats_entries: u64 = m
        .cores
        .iter()
        .map(|c| c.main_tlb.stats().entries_flushed)
        .sum();
    assert!(stats_full > 0, "workload performed full flushes");
    assert!(stats_entries > 0, "workload invalidated entries");
    assert_eq!(full_flush_events, stats_full);
    assert_eq!(main_entries, stats_entries);

    // The registry agrees with the event stream (metrics are applied
    // before ring admission, so this holds even under overflow).
    assert_eq!(rec.metrics.counter("tlb.flush.main.full"), stats_full);
    assert_eq!(rec.metrics.counter("tlb.flush.main.entries"), stats_entries);
}

/// Conservation for the page-size paths: promotion and demotion emit
/// size-tagged flushes (`FlushReason::Promote` / `Demote`) that
/// reconcile with `TlbStats` exactly like every other site, and the
/// TLB never serves a stale translation across a collapse or a split.
#[test]
fn obs_promote_demote_flushes_reconcile_and_stay_attributed() {
    sat_obs::install(1 << 16);
    let policy = sat_core::PromotePolicy {
        enabled: true,
        min_populated: 1,
        ..sat_core::PromotePolicy::off()
    };
    let (mut m, zygote) = machine(KernelConfig::shared_ptp().with_promote(policy));
    // A full 64KB anon group: touch half the pages, promote, then
    // demote by unmapping one page.
    let group = VirtAddr::new(0x0900_0000);
    m.mmap(
        0,
        zygote,
        &MmapRequest::anon(16 * PAGE_SIZE, Perms::RW, RegionTag::Heap, "[anon:big]").at(group),
    )
    .unwrap();
    for i in 0..8u32 {
        m.access(
            0,
            VirtAddr::new(group.raw() + i * PAGE_SIZE),
            AccessType::Write,
        )
        .unwrap();
    }
    let report = m.promote_scan(0, zygote).unwrap();
    assert_eq!(report.promoted, 1, "the touched group collapses");
    // Accesses after the collapse translate through the large entry —
    // including a hole the scan filled (page 12 was never touched).
    m.access(
        0,
        VirtAddr::new(group.raw() + 12 * PAGE_SIZE),
        AccessType::Write,
    )
    .unwrap();
    // Partial munmap splits the group; the demote flush must evict
    // the wide entry so later accesses fault precisely.
    m.munmap(0, zygote, sat_types::VaRange::from_len(group, PAGE_SIZE))
        .unwrap();
    assert!(
        m.access(0, group, AccessType::Read).is_err(),
        "unmapped page still translates: stale wide TLB entry"
    );
    m.access(0, VirtAddr::new(group.raw() + PAGE_SIZE), AccessType::Read)
        .unwrap();
    assert_eq!(m.kernel.stats.promotions, 1);
    assert_eq!(m.kernel.stats.demotions, 1);

    let rec = sat_obs::uninstall().expect("recorder installed above");
    assert_eq!(rec.dropped, 0, "scenario fits the ring");
    let mut promote_entries = 0u64;
    let mut demote_entries = 0u64;
    let mut main_entries = 0u64;
    for event in &rec.events {
        if let sat_obs::Payload::TlbFlush {
            scope,
            reason,
            entries,
        } = &event.payload
        {
            if scope.is_main() {
                main_entries += entries;
                match reason {
                    sat_obs::FlushReason::Promote => promote_entries += entries,
                    sat_obs::FlushReason::Demote => demote_entries += entries,
                    _ => {}
                }
            }
        }
    }
    let stats_entries: u64 = m
        .cores
        .iter()
        .map(|c| c.main_tlb.stats().entries_flushed)
        .sum();
    assert_eq!(main_entries, stats_entries, "flush events reconcile");
    // The promote flush invalidated the sixteen small entries the
    // faults loaded; the demote flush invalidated the wide entry.
    assert!(promote_entries > 0, "collapse evicted the 4KB entries");
    assert!(demote_entries > 0, "split evicted the wide entry");
    assert_eq!(
        rec.metrics.counter("tlb.flush.reason.promote.entries"),
        promote_entries
    );
    assert_eq!(
        rec.metrics.counter("tlb.flush.reason.demote.entries"),
        demote_entries
    );
}
