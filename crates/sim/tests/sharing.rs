//! End-to-end kernel semantics on the harness's machine: the PTP
//! sharing lifecycle, COW correctness under many processes, memory
//! accounting, event conservation, and large pages in shared chunks.
//! Kernel calls go through the machine's typed calls; page faults run
//! beneath it ([`Sim::fault`]).

mod common;

use common::{transparent, Op, Sim, CODE, CODE_PAGES, HEAP};
use sat_core::{KernelConfig, PromotePolicy};
use sat_types::{PageSize, Perms, Pid, RegionTag, VaRange, VirtAddr, PAGE_SIZE};
use sat_vm::MmapRequest;

use sat_types::AccessType::{Execute, Write};
use Op::{Exit, Fault, Fork};

fn va(raw: u32) -> VirtAddr {
    VirtAddr::new(raw)
}

/// Five zygote children write the same heap page — each unshares the
/// chunk and takes a frame of its own — and fetch the library page they
/// all share, then exit: a generation.
const GENERATION: &[Op] = &[
    Fork(0, 0),
    Fork(0, 0),
    Fork(0, 0),
    Fork(0, 0),
    Fork(0, 0),
    Fault(2, 8, Write),
    Fault(3, 8, Write),
    Fault(4, 8, Write),
    Fault(5, 8, Write),
    Fault(6, 8, Write),
    Fault(2, 0, Execute),
    Fault(3, 0, Execute),
    Fault(4, 0, Execute),
    Fault(5, 0, Execute),
    Fault(6, 0, Execute),
    Exit(0, 0),
    Exit(0, 0),
    Exit(0, 0),
    Exit(0, 0),
    Exit(0, 0),
];

#[test]
fn ten_generations_of_sharing_and_exit_leak_nothing() {
    transparent(&[KernelConfig::shared_ptp()], &GENERATION.repeat(10));
}

#[test]
fn cow_isolation_across_five_sharers() {
    // A generation up to its exits.
    transparent(&[KernelConfig::shared_ptp()], &GENERATION[..15]);
}

/// Two zygote children and the zygote each write a different heap page
/// and fetch library page 3.
const THREE_WRITERS: &[Op] = &[
    Fork(0, 0),
    Fork(0, 0),
    Fault(2, 8, Write),
    Fault(3, 9, Write),
    Fault(0, 10, Write),
    Fault(0, 3, Execute),
    Fault(2, 3, Execute),
    Fault(3, 3, Execute),
];

#[test]
fn stock_and_shared_kernels_agree_on_final_frame_topology() {
    transparent(&[KernelConfig::shared_ptp()], THREE_WRITERS);
}

#[test]
fn mprotect_and_munmap_under_sharing_do_not_disturb_siblings() {
    let mut s = Sim::boot(KernelConfig::shared_ptp());
    let zygote = s.live[0];
    let a = s.fork(0, zygote).unwrap().child;
    let b = s.fork(0, zygote).unwrap().child;
    let code = VaRange::from_len(va(CODE), CODE_PAGES * PAGE_SIZE);
    // a drops execute permission on its code; b and zygote unaffected.
    s.m.mprotect(0, a, code, Perms::R).unwrap();
    assert!(s.fault(a, va(CODE), Execute).is_err());
    s.fault(b, va(CODE), Execute).unwrap();
    s.fault(zygote, va(CODE), Execute).unwrap();
    // b unmaps its heap's written pages; a's and the zygote's survive.
    let written = VaRange::from_len(va(HEAP), 4 * PAGE_SIZE);
    s.m.munmap(0, b, written).unwrap();
    assert!(s.m.kernel.pte(b, va(HEAP)).unwrap().is_none());
    assert!(s.m.kernel.pte(zygote, va(HEAP)).unwrap().is_some());
    s.fault(a, va(HEAP + 3 * PAGE_SIZE), Write).unwrap();
    s.teardown();
}

#[test]
fn deep_fork_chain_shares_transitively() {
    // zygote -> a -> b -> c: grandchildren share the zygote's PTPs.
    let mut s = Sim::boot(KernelConfig::shared_ptp());
    let zygote = s.live[0];
    let a = s.fork(0, zygote).unwrap().child;
    let b = s.fork(0, a).unwrap().child;
    let fc = s.fork(0, b).unwrap();
    assert!(fc.ptps_shared > 0);
    let k = &s.m.kernel;
    let code_ptp = k.mm(zygote).unwrap().root.entry_for(va(CODE)).ptp();
    let child_ptp = k.mm(fc.child).unwrap().root.entry_for(va(CODE)).ptp();
    assert_eq!(child_ptp, code_ptp);
    let code_ptp = code_ptp.unwrap();
    assert_eq!(k.phys.mapcount(code_ptp), 4);
    // Tear down inside-out; the PTP survives until the last sharer.
    for pid in [zygote, a, b] {
        s.exit(0, pid).unwrap();
        assert!(s.m.kernel.ptps.get(code_ptp).is_some());
    }
    s.exit(0, fc.child).unwrap();
    assert!(s.m.kernel.ptps.get(code_ptp).is_none());
    s.teardown();
}

#[test]
fn fork_storm_scales_without_new_page_tables() {
    let mut s = Sim::boot(KernelConfig::shared_ptp());
    let zygote = s.live[0];
    let ptps_before = s.m.kernel.ptps.len();
    let frames_before = s.m.kernel.phys.frames_in_use();
    let children: Vec<Pid> = (0..64).map(|_| s.fork(0, zygote).unwrap().child).collect();
    // 64 processes, and no new PTP but each one's copy of the stack's
    // (the scalability claim).
    assert_eq!(s.m.kernel.ptps.len(), ptps_before + 64);
    // Each child costs its root table (4 frames) and that copy.
    assert_eq!(s.m.kernel.phys.frames_in_use(), frames_before + 64 * 5);
    for c in children {
        s.exit(0, c).unwrap();
    }
    assert_eq!(s.m.kernel.phys.frames_in_use(), frames_before);
    s.teardown();
}

/// Drives every live unshare cause at least once under a recorder:
/// WriteFault (COW write), NewRegion (mmap into a shared chunk),
/// RegionOp (mprotect), RegionFree (munmap), plus forks and exits.
/// Returns the harvested recording and the kernel's own stats.
fn drive_unshare_scenario() -> (sat_obs::Recording, sat_core::KernelStats) {
    sat_obs::install(1 << 16);
    let mut s = Sim::boot(KernelConfig::shared_ptp());
    let zygote = s.live[0];
    let children: Vec<Pid> = (0..4).map(|_| s.fork(0, zygote).unwrap().child).collect();
    // WriteFault (case 1): child 0 writes a shared heap page.
    s.fault(children[0], va(HEAP), Write).unwrap();
    // NewRegion (case 3): child 0 maps into the shared code chunk's
    // 2MB span (its code chunk is still NEED_COPY).
    let req = MmapRequest::anon(PAGE_SIZE, Perms::RW, RegionTag::AppData, "newdata");
    s.m.mmap(0, children[0], &req.at(va(CODE + 0x0010_0000)))
        .unwrap();
    // RegionOp (case 2): child 1 changes the code protection.
    let code = VaRange::from_len(va(CODE), CODE_PAGES * PAGE_SIZE);
    s.m.mprotect(0, children[1], code, Perms::R).unwrap();
    // RegionFree (case 4): child 2 frees the heap's written pages.
    let written = VaRange::from_len(va(HEAP), 4 * PAGE_SIZE);
    s.m.munmap(0, children[2], written).unwrap();
    for c in children {
        s.exit(0, c).unwrap();
    }
    let rec = sat_obs::uninstall().expect("recorder installed above");
    assert_eq!(rec.dropped, 0, "scenario fits the ring");
    let stats = s.m.kernel.stats;
    s.teardown();
    (rec, stats)
}

/// Conservation (observability): with a recorder installed, the event
/// stream and the counter registry reconcile *exactly* with
/// [`sat_core::KernelStats`] — every unshare the kernel counted shows
/// up as exactly one `PtpUnshare` event with the matching cause, and
/// fork/exit events match their stats counters. The scenario drives
/// all four live unshare causes at least once.
#[test]
fn obs_events_reconcile_with_kernel_stats() {
    let (rec, stats) = drive_unshare_scenario();
    // Every cause fired, and the by-cause counters partition the total.
    assert!(stats.unshares_write_fault > 0);
    assert!(stats.unshares_new_region > 0);
    assert!(stats.unshares_region_op > 0);
    assert!(stats.unshares_region_free > 0);
    assert_eq!(
        stats.ptp_unshares,
        stats.unshares_write_fault
            + stats.unshares_new_region
            + stats.unshares_region_op
            + stats.unshares_region_free
    );

    // Counter registry ⇔ KernelStats, exactly.
    let counter = |key: &str| rec.metrics.counter(key);
    assert_eq!(counter("share.unshare"), stats.ptp_unshares);
    assert_eq!(
        counter("share.unshare.write_fault"),
        stats.unshares_write_fault
    );
    assert_eq!(
        counter("share.unshare.new_region"),
        stats.unshares_new_region
    );
    assert_eq!(counter("share.unshare.region_op"), stats.unshares_region_op);
    assert_eq!(
        counter("share.unshare.region_free"),
        stats.unshares_region_free
    );
    assert_eq!(counter("kernel.fork"), stats.forks);
    assert_eq!(counter("kernel.fork.shared"), stats.share_forks);
    assert_eq!(counter("kernel.exit"), stats.exits);

    // Event stream ⇔ KernelStats: one PtpUnshare event per counted
    // unshare, with the matching cause; one Fork/Exit event per fork
    // and exit.
    let mut by_cause = std::collections::BTreeMap::<&str, u64>::new();
    let mut forks = 0u64;
    let mut exits = 0u64;
    for event in &rec.events {
        match &event.payload {
            sat_obs::Payload::PtpUnshare { cause, .. } => {
                *by_cause.entry(cause.as_str()).or_default() += 1;
            }
            sat_obs::Payload::Fork { .. } => forks += 1,
            sat_obs::Payload::Exit => exits += 1,
            _ => {}
        }
    }
    let cause_count = |c: &str| by_cause.get(c).copied().unwrap_or(0);
    assert_eq!(cause_count("write_fault"), stats.unshares_write_fault);
    assert_eq!(cause_count("new_region"), stats.unshares_new_region);
    assert_eq!(cause_count("region_op"), stats.unshares_region_op);
    assert_eq!(cause_count("region_free"), stats.unshares_region_free);
    assert_eq!(by_cause.values().sum::<u64>(), stats.ptp_unshares);
    assert_eq!(forks, stats.forks);
    assert_eq!(exits, stats.exits);
}

/// The full analytics pipeline reconstructs Figure 6 from the trace
/// file alone: recording → Chrome trace JSON → re-ingest → rollup,
/// and the per-cause breakdown equals [`sat_core::KernelStats`]
/// exactly. This is the `repro report` code path end to end.
#[test]
fn repro_report_rollup_reconstructs_fig6_from_events_alone() {
    let (rec, stats) = drive_unshare_scenario();

    let doc = sat_obs::json::Json::parse(&sat_obs::chrome_trace_json(&rec))
        .expect("exporter emits valid JSON");
    let parsed = sat_obs::parse_chrome_trace(&doc).expect("trace re-ingests");
    assert_eq!(parsed.dropped, 0);
    sat_obs::analyze::validate_events(&parsed.events).expect("stream invariants hold");

    let rollup = sat_obs::analyze::Rollup::from_events(&parsed.events, parsed.dropped);
    let by_cause: std::collections::BTreeMap<&str, u64> = rollup
        .fig6_breakdown()
        .into_iter()
        .map(|(cause, n, _)| (cause, n))
        .collect();
    assert_eq!(by_cause["write_fault"], stats.unshares_write_fault);
    assert_eq!(by_cause["new_region"], stats.unshares_new_region);
    assert_eq!(by_cause["region_op"], stats.unshares_region_op);
    assert_eq!(by_cause["region_free"], stats.unshares_region_free);
    // Exit teardown dereferences without unsharing, so Figure 6's
    // exit row stays zero and the four live causes partition the
    // kernel's total.
    assert_eq!(by_cause["exit"], 0);
    assert_eq!(by_cause.values().sum::<u64>(), stats.ptp_unshares);
    assert_eq!(rollup.metrics.counter("kernel.fork"), stats.forks);
    assert_eq!(
        rollup.metrics.counter("kernel.fork.shared"),
        stats.share_forks
    );
    assert_eq!(rollup.metrics.counter("kernel.exit"), stats.exits);
    // The replayed metrics registry matches the live one the recorder
    // kept — the rollup is lossless for an un-dropped stream.
    assert_eq!(
        rollup.metrics.counter("share.unshare"),
        rec.metrics.counter("share.unshare")
    );

    // Rendered reports carry the same numbers.
    let text = sat_obs::report::render(&rollup, sat_obs::report::ReportFormat::Text);
    assert!(text.contains("Unshare causes (Figure 6)"));
    let json = sat_obs::report::render(&rollup, sat_obs::report::ReportFormat::Json);
    let v = sat_obs::json::Json::parse(&json).expect("report JSON parses");
    assert_eq!(
        v.get("unshare_causes")
            .and_then(|c| c.get("write_fault"))
            .and_then(|c| c.get("count"))
            .and_then(sat_obs::json::Json::as_u64),
        Some(stats.unshares_write_fault)
    );
}

/// Kernel config `base` with the promotion scanner on (any populated
/// group collapses).
fn promoting(base: KernelConfig) -> KernelConfig {
    base.with_promote(PromotePolicy {
        enabled: true,
        min_populated: 1,
        ..PromotePolicy::off()
    })
}

/// Maps an anonymous RW heap of `groups` 64KB groups at `at` in `pid`,
/// write-faults every page, and runs the promotion scanner over the
/// process: map, fault, promote — every group must end up large.
fn promoted_heap(s: &mut Sim, pid: Pid, at: u32, groups: u32) {
    let len = groups * 64 * 1024;
    let req = MmapRequest::anon(len, Perms::RW, RegionTag::Heap, "huge");
    s.m.mmap(0, pid, &req.at(va(at))).unwrap();
    for page in 0..len / PAGE_SIZE {
        s.fault(pid, va(at + page * PAGE_SIZE), Write).unwrap();
    }
    s.m.promote_scan(0, pid).unwrap();
    for group in 0..groups {
        let slot = s.m.kernel.pte(pid, va(at + group * 64 * 1024)).unwrap();
        assert_eq!(slot.unwrap().hw.size, PageSize::Large64K);
    }
}

#[test]
fn promotion_in_a_shared_chunk_unshares_before_installing_ptes() {
    // Regression: large-page installs must not land in a PTP still
    // shared with other processes.
    let mut s = Sim::boot(promoting(KernelConfig::shared_ptp()));
    let child = s.fork(0, s.live[0]).unwrap().child;
    let need_copy = |s: &Sim| {
        s.m.kernel
            .mm(child)
            .unwrap()
            .root
            .entry_for(va(HEAP))
            .need_copy()
    };
    assert!(need_copy(&s));
    // Child maps, touches and promotes a 64KB large page in a free hole
    // of the shared heap chunk.
    let hole = HEAP + 0x0010_0000;
    promoted_heap(&mut s, child, hole, 1);
    // The chunk was unshared first: the zygote must NOT see the PTEs.
    assert!(s.m.kernel.pte(s.live[0], va(hole)).unwrap().is_none());
    assert!(!need_copy(&s));
    s.teardown();
}

#[test]
fn unshare_of_large_page_chunk_balances_refcounts() {
    // Regression: unshare's PTE-copy pass must reference each 64KB
    // slot's own 4KB frame, matching teardown accounting.
    let mut s = Sim::boot(promoting(KernelConfig::shared_ptp()));
    let zygote = s.live[0];
    let huge = 0x0A00_0000;
    promoted_heap(&mut s, zygote, huge, 2);
    let baseline = s.m.kernel.phys.frames_in_use();
    let child = s.fork(0, zygote).unwrap().child;
    let root = &s.m.kernel.mm(child).unwrap().root;
    assert!(root.entry_for(va(huge)).need_copy());
    // The child's write fault unshares the chunk (copying the 32
    // large-page slots into a private PTP).
    s.fault(child, va(huge), Write).unwrap();
    // Every frame the child took must come back.
    s.exit(0, child).unwrap();
    let frames = s.m.kernel.phys.frames_in_use();
    assert_eq!(frames, baseline, "refcount imbalance");
    s.teardown();
}

#[test]
fn partial_large_page_operations_demote_instead_of_failing() {
    // On the outsider, a process like any other (not the zygote).
    let mut s = Sim::boot(promoting(KernelConfig::stock()));
    let pid = s.live[1];
    let huge = 0x0A00_0000;
    promoted_heap(&mut s, pid, huge, 1);
    // Partial munmap (16KB of a 64KB page) splits the page back to
    // sixteen 4KB PTEs first (Linux's split-before-zap)...
    let partial = VaRange::from_len(va(huge), 4 * PAGE_SIZE);
    s.m.munmap(0, pid, partial).unwrap();
    let k = &mut s.m.kernel;
    assert_eq!(k.stats.demotions, 1);
    assert_eq!(k.stats.split_ptes, 16);
    assert!(k.pte(pid, va(huge)).unwrap().is_none());
    // ...leaving the tail resident at 4KB granularity.
    assert!(k.pte(pid, va(huge + 4 * PAGE_SIZE)).unwrap().is_some());
    // Partial mprotect demotes symmetrically.
    promoted_heap(&mut s, pid, huge + 0x0010_0000, 1);
    let cut = VaRange::from_len(va(huge + 0x0010_0000), 4 * PAGE_SIZE);
    s.m.mprotect(0, pid, cut, Perms::R).unwrap();
    assert_eq!(s.m.kernel.stats.demotions, 2);
    // Whole-page operations never split.
    promoted_heap(&mut s, pid, huge + 0x0020_0000, 1);
    let whole = VaRange::from_len(va(huge + 0x0020_0000), 64 * 1024);
    s.m.munmap(0, pid, whole).unwrap();
    assert_eq!(s.m.kernel.stats.demotions, 2);
    assert!(s
        .m
        .kernel
        .pte(pid, va(huge + 0x0020_0000))
        .unwrap()
        .is_none());
    s.teardown();
}
