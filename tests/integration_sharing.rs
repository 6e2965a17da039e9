//! End-to-end kernel semantics across crates: PTP sharing lifecycle,
//! COW correctness under many processes, and memory accounting.

use sat_core::{Kernel, KernelConfig, NoTlb};
use sat_types::{AccessType, Perms, Pid, RegionTag, VaRange, VirtAddr, PAGE_SIZE};
use sat_vm::MmapRequest;

const CODE: u32 = 0x4000_0000;
const HEAP: u32 = 0x0800_0000;

/// Boots a zygote with 8 pages of touched library code and 4 heap
/// pages written.
fn boot(config: KernelConfig) -> (Kernel, Pid) {
    let mut k = Kernel::new(config, 32_768);
    let zygote = k.create_process().unwrap();
    k.exec_zygote(zygote).unwrap();
    let lib = k.files.register("lib.so", 8 * PAGE_SIZE);
    k.mmap(
        zygote,
        &MmapRequest::file(
            8 * PAGE_SIZE,
            Perms::RX,
            lib,
            0,
            RegionTag::ZygoteNativeCode,
            "lib.so",
        )
        .at(VirtAddr::new(CODE)),
        &mut NoTlb,
    )
    .unwrap();
    k.populate(
        zygote,
        VaRange::from_len(VirtAddr::new(CODE), 8 * PAGE_SIZE),
    )
    .unwrap();
    k.mmap(
        zygote,
        &MmapRequest::anon(4 * PAGE_SIZE, Perms::RW, RegionTag::Heap, "[heap]")
            .at(VirtAddr::new(HEAP)),
        &mut NoTlb,
    )
    .unwrap();
    for i in 0..4 {
        k.page_fault(
            zygote,
            VirtAddr::new(HEAP + i * PAGE_SIZE),
            AccessType::Write,
            &mut NoTlb,
        )
        .unwrap();
    }
    (k, zygote)
}

#[test]
fn ten_generations_of_sharing_and_exit_leak_nothing() {
    let (mut k, zygote) = boot(KernelConfig::shared_ptp());
    let baseline = k.phys.frames_in_use();
    for round in 0..10 {
        let mut children = Vec::new();
        for _ in 0..5 {
            children.push(k.fork(zygote).unwrap().child);
        }
        // Each child writes one heap page (unshare + COW) and reads
        // code.
        for (i, &c) in children.iter().enumerate() {
            let heap_page = VirtAddr::new(HEAP + ((i as u32) % 4) * PAGE_SIZE);
            k.page_fault(c, heap_page, AccessType::Write, &mut NoTlb)
                .unwrap();
            k.page_fault(c, VirtAddr::new(CODE), AccessType::Execute, &mut NoTlb)
                .unwrap_or_else(|e| panic!("round {round}: {e}"));
        }
        for c in children {
            k.exit(c, &mut NoTlb).unwrap();
        }
        assert_eq!(
            k.phys.frames_in_use(),
            baseline,
            "frame leak after round {round}"
        );
    }
}

#[test]
fn cow_isolation_across_five_sharers() {
    let (mut k, zygote) = boot(KernelConfig::shared_ptp());
    let page = VirtAddr::new(HEAP);
    let original = k.pte(zygote, page).unwrap().unwrap().hw.pfn;
    let children: Vec<Pid> = (0..5).map(|_| k.fork(zygote).unwrap().child).collect();
    // Each child writes the same heap page; every one must get its own
    // frame, and the zygote must keep the original.
    let mut frames = std::collections::BTreeSet::new();
    for &c in &children {
        k.page_fault(c, page, AccessType::Write, &mut NoTlb)
            .unwrap();
        let f = k.pte(c, page).unwrap().unwrap().hw.pfn;
        assert!(frames.insert(f), "duplicate COW frame {f:?}");
    }
    assert!(!frames.contains(&original));
    assert_eq!(k.pte(zygote, page).unwrap().unwrap().hw.pfn, original);
    // All children still share the untouched code frame.
    let code_frame = k.pte(zygote, VirtAddr::new(CODE)).unwrap().unwrap().hw.pfn;
    for &c in &children {
        assert_eq!(
            k.pte(c, VirtAddr::new(CODE)).unwrap().unwrap().hw.pfn,
            code_frame
        );
    }
}

#[test]
fn stock_and_shared_kernels_agree_on_final_frame_topology() {
    // The same scenario on both kernels must end with identical
    // sharing structure: who shares a frame with whom, per page.
    let scenario = |config: KernelConfig| {
        let (mut k, zygote) = boot(config);
        let a = k.fork(zygote).unwrap().child;
        let b = k.fork(zygote).unwrap().child;
        // a writes page 0; b writes page 1; zygote writes page 2.
        k.page_fault(a, VirtAddr::new(HEAP), AccessType::Write, &mut NoTlb)
            .unwrap();
        k.page_fault(
            b,
            VirtAddr::new(HEAP + PAGE_SIZE),
            AccessType::Write,
            &mut NoTlb,
        )
        .unwrap();
        k.page_fault(
            zygote,
            VirtAddr::new(HEAP + 2 * PAGE_SIZE),
            AccessType::Write,
            &mut NoTlb,
        )
        .unwrap();
        // Everyone reads code page 3.
        for p in [zygote, a, b] {
            k.page_fault(
                p,
                VirtAddr::new(CODE + 3 * PAGE_SIZE),
                AccessType::Execute,
                &mut NoTlb,
            )
            .unwrap();
        }
        // Build the sharing topology over the pages each process
        // actually *touched*. (PTE presence for untouched pages
        // legitimately differs between the kernels — inheriting PTEs
        // without faulting is the mechanism's entire point — but the
        // frame relations of touched pages must be identical.)
        let touched: &[(Pid, u32)] = &[
            (zygote, HEAP),
            (zygote, HEAP + PAGE_SIZE),
            (zygote, HEAP + 2 * PAGE_SIZE),
            (zygote, HEAP + 3 * PAGE_SIZE),
            (zygote, CODE + 3 * PAGE_SIZE),
            (a, HEAP),
            (a, CODE + 3 * PAGE_SIZE),
            (b, HEAP + PAGE_SIZE),
            (b, CODE + 3 * PAGE_SIZE),
        ];
        let mut topo = Vec::new();
        for &(p1, va1) in touched {
            for &(p2, va2) in touched {
                let f1 = k.pte(p1, VirtAddr::new(va1)).unwrap().map(|s| s.hw.pfn);
                let f2 = k.pte(p2, VirtAddr::new(va2)).unwrap().map(|s| s.hw.pfn);
                assert!(f1.is_some() && f2.is_some(), "touched page unmapped");
                topo.push(va1 == va2 && f1 == f2);
            }
        }
        topo
    };
    assert_eq!(
        scenario(KernelConfig::stock()),
        scenario(KernelConfig::shared_ptp()),
        "sharing topology must be config-independent"
    );
}

#[test]
fn mprotect_and_munmap_under_sharing_do_not_disturb_siblings() {
    let (mut k, zygote) = boot(KernelConfig::shared_ptp());
    let a = k.fork(zygote).unwrap().child;
    let b = k.fork(zygote).unwrap().child;
    let code = VaRange::from_len(VirtAddr::new(CODE), 8 * PAGE_SIZE);
    // a drops execute permission on its code; b and zygote unaffected.
    k.mprotect(a, code, Perms::R, &mut NoTlb).unwrap();
    assert!(k
        .page_fault(a, VirtAddr::new(CODE), AccessType::Execute, &mut NoTlb)
        .is_err());
    k.page_fault(b, VirtAddr::new(CODE), AccessType::Execute, &mut NoTlb)
        .unwrap();
    k.page_fault(zygote, VirtAddr::new(CODE), AccessType::Execute, &mut NoTlb)
        .unwrap();
    // b unmaps its heap; a's and the zygote's heaps survive.
    k.munmap(
        b,
        VaRange::from_len(VirtAddr::new(HEAP), 4 * PAGE_SIZE),
        &mut NoTlb,
    )
    .unwrap();
    assert!(k.pte(b, VirtAddr::new(HEAP)).unwrap().is_none());
    assert!(k.pte(zygote, VirtAddr::new(HEAP)).unwrap().is_some());
    k.page_fault(
        a,
        VirtAddr::new(HEAP + 3 * PAGE_SIZE),
        AccessType::Write,
        &mut NoTlb,
    )
    .unwrap();
}

#[test]
fn deep_fork_chain_shares_transitively() {
    // zygote -> a -> b -> c: grandchildren share the zygote's PTPs.
    let (mut k, zygote) = boot(KernelConfig::shared_ptp());
    let a = k.fork(zygote).unwrap().child;
    let b = k.fork(a).unwrap().child;
    let fc = k.fork(b).unwrap();
    assert!(fc.ptps_shared > 0);
    let code_ptp = k
        .mm(zygote)
        .unwrap()
        .root
        .entry_for(VirtAddr::new(CODE))
        .ptp();
    assert_eq!(
        k.mm(fc.child)
            .unwrap()
            .root
            .entry_for(VirtAddr::new(CODE))
            .ptp(),
        code_ptp
    );
    assert_eq!(k.phys.mapcount(code_ptp.unwrap()), 4);
    // Tear down inside-out; the PTP survives until the last sharer.
    for pid in [zygote, a, b] {
        k.exit(pid, &mut NoTlb).unwrap();
        assert!(k.ptps.get(code_ptp.unwrap()).is_some());
    }
    k.exit(fc.child, &mut NoTlb).unwrap();
    assert!(k.ptps.get(code_ptp.unwrap()).is_none());
    // Only the page cache's file pages remain resident.
    assert_eq!(k.phys.frames_in_use(), k.phys.page_cache_len() as u64);
}

#[test]
fn fork_storm_scales_without_new_page_tables() {
    let (mut k, zygote) = boot(KernelConfig::shared_ptp());
    let ptps_before = k.ptps.len();
    let frames_before = k.phys.frames_in_use();
    let children: Vec<Pid> = (0..64).map(|_| k.fork(zygote).unwrap().child).collect();
    // 64 processes, zero new PTPs (the scalability claim).
    assert_eq!(k.ptps.len(), ptps_before);
    // Each child costs only its root table (4 frames).
    assert_eq!(k.phys.frames_in_use(), frames_before + 64 * 4);
    for c in children {
        k.exit(c, &mut NoTlb).unwrap();
    }
    assert_eq!(k.phys.frames_in_use(), frames_before);
}

/// Conservation (observability): with a recorder installed, the event
/// stream and the counter registry reconcile *exactly* with
/// [`sat_core::KernelStats`] — every unshare the kernel counted shows
/// up as exactly one `PtpUnshare` event with the matching cause, and
/// fork/exit events match their stats counters. The scenario drives
/// all four live unshare causes at least once.
/// Drives every live unshare cause at least once under a recorder:
/// WriteFault (COW write), NewRegion (mmap into a shared chunk),
/// RegionOp (mprotect), RegionFree (munmap), plus forks and exits.
/// Returns the harvested recording and the kernel's own stats.
fn drive_unshare_scenario() -> (sat_obs::Recording, sat_core::KernelStats) {
    sat_obs::install(1 << 16);
    let (mut k, zygote) = boot(KernelConfig::shared_ptp());
    let children: Vec<Pid> = (0..4).map(|_| k.fork(zygote).unwrap().child).collect();
    // WriteFault (case 1): child 0 writes a shared heap page.
    k.page_fault(
        children[0],
        VirtAddr::new(HEAP),
        AccessType::Write,
        &mut NoTlb,
    )
    .unwrap();
    // NewRegion (case 3): child 0 maps into the shared code chunk's
    // 2MB span (its code chunk is still NEED_COPY).
    k.mmap(
        children[0],
        &MmapRequest::anon(PAGE_SIZE, Perms::RW, RegionTag::AppData, "newdata")
            .at(VirtAddr::new(CODE + 0x0010_0000)),
        &mut NoTlb,
    )
    .unwrap();
    // RegionOp (case 2): child 1 changes the code protection.
    k.mprotect(
        children[1],
        VaRange::from_len(VirtAddr::new(CODE), 8 * PAGE_SIZE),
        Perms::R,
        &mut NoTlb,
    )
    .unwrap();
    // RegionFree (case 4): child 2 frees the heap region.
    k.munmap(
        children[2],
        VaRange::from_len(VirtAddr::new(HEAP), 4 * PAGE_SIZE),
        &mut NoTlb,
    )
    .unwrap();
    for c in children {
        k.exit(c, &mut NoTlb).unwrap();
    }
    let rec = sat_obs::uninstall().expect("recorder installed above");
    assert_eq!(rec.dropped, 0, "scenario fits the ring");
    (rec, k.stats)
}

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
