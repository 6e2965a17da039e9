//! The machine's hardware paths on the harness's two cores: faults and
//! hits, kernel fetches, context switches with and without ASIDs,
//! global and duplicated TLB entries, domain protection, copy-on-write
//! through the TLB, shootdowns, ASID rollover, kernel-text runs, stall
//! accounting, and the flush events against the TLBs' own counts. The
//! zygote runs on core 0 and the outsider on core 1 ([`Sim::boot`]);
//! every row ends in [`Machine::audit`] or [`Sim::teardown`].

mod common;

use common::{lockstep, Op, Sim, CODE, CODE_PAGES, HEAP};
use sat_core::{FlushOp, KernelConfig, PromotePolicy};
use sat_obs::{FlushReason, FlushScope, Payload};
use sat_sim::{Core, Machine};
use sat_types::{
    AccessType, Asid, Domain, Perms, RegionTag, SatError, VaRange, VirtAddr, KERNEL_SPACE_START,
    PAGE_SIZE,
};
use sat_vm::MmapRequest;

use AccessType::{Execute, Read, Write};

fn va(raw: u32) -> VirtAddr {
    VirtAddr::new(raw)
}

/// A zygote mapping of a fresh 16-page library at 0x5000_0000 on core
/// 0, none of it in the page cache: its first fetches take major
/// faults, where the harness's library is pre-faulted. The pages it
/// faults stay in the page cache, above the floor [`Sim::teardown`]
/// checks, so a row that maps it ends in [`Machine::audit`].
fn fresh_lib(s: &mut Sim) -> VirtAddr {
    let lib = s.m.kernel.files.register("fresh.so", 16 * PAGE_SIZE);
    let (tag, at) = (RegionTag::ZygoteNativeCode, va(0x5000_0000));
    let req = MmapRequest::file(16 * PAGE_SIZE, Perms::RX, lib, 0, tag, "fresh.so");
    s.m.mmap(0, s.live[0], &req.at(at)).unwrap()
}

/// Every main-TLB flush event's entries, and the `FlushScope::All` ones
/// counted, both against the TLBs' own counters summed over the cores;
/// returns the two totals.
fn flushes_reconcile(m: &Machine, events: &[sat_obs::Event]) -> (u64, u64) {
    let (mut full, mut entries) = (0, 0);
    for e in events {
        if let Payload::TlbFlush {
            scope, entries: n, ..
        } = e.payload
        {
            if scope.is_main() {
                entries += n;
                full += u64::from(scope == FlushScope::All);
            }
        }
    }
    let stats = m.cores.iter().map(|c| c.main_tlb.stats());
    let (f, n) = stats.fold((0, 0), |(f, n), s| {
        (f + s.full_flushes, n + s.entries_flushed)
    });
    assert_eq!((full, entries), (f, n), "flush events against TlbStats");
    (full, entries)
}

#[test]
fn first_access_faults_then_hits() {
    let mut s = Sim::boot(KernelConfig::stock());
    let lib = fresh_lib(&mut s);
    s.m.reset_hw_stats();
    let cold = s.m.access(0, lib, Execute).unwrap();
    assert!(cold > s.m.model.hard_fault, "cold access {cold}");
    assert_eq!(s.m.cores[0].stats.page_faults, 1);
    let warm = s.m.access(0, lib, Execute).unwrap();
    assert!(warm <= 2, "warm access {warm} cycles");
    s.m.audit().unwrap();
}

#[test]
fn anon_write_then_read_no_extra_fault() {
    let mut s = Sim::boot(KernelConfig::stock());
    // The boot wrote heap pages 0..4; page 4 is fresh.
    let page = va(HEAP + 4 * PAGE_SIZE);
    s.m.access(0, page, Write).unwrap();
    let faults = s.m.cores[0].stats.page_faults;
    s.m.access(0, page, Read).unwrap();
    s.m.access(0, page, Write).unwrap();
    assert_eq!(s.m.cores[0].stats.page_faults, faults);
    s.teardown();
}

#[test]
fn kernel_fetches_do_not_fault() {
    let mut s = Sim::boot(KernelConfig::stock());
    s.m.reset_hw_stats();
    let c = s.m.access(0, va(KERNEL_SPACE_START + 0x0001_2340), Execute);
    assert!(c.unwrap() < 1000, "kernel fetch cost {c:?}");
    assert_eq!(s.m.cores[0].stats.page_faults, 0);
    s.teardown();
}

#[test]
fn context_switch_flushes_micro_but_keeps_main_with_asid() {
    let mut s = Sim::boot(KernelConfig::stock());
    let zygote = s.live[0];
    let other = s.fork(0, zygote).unwrap().child;
    let m = &mut s.m;
    m.access(0, va(CODE), Execute).unwrap();
    let occupancy = m.cores[0].main_tlb.occupancy();
    assert!(occupancy > 0);
    m.context_switch(0, other).unwrap();
    // Main TLB content survives (ASIDs enabled).
    assert!(m.cores[0].main_tlb.occupancy() >= occupancy);
    m.context_switch(0, zygote).unwrap();
    let misses_before = m.cores[0].main_tlb.stats().misses;
    m.access(0, va(CODE), Execute).unwrap();
    // Micro missed but main hit: no new main-TLB miss.
    assert_eq!(m.cores[0].main_tlb.stats().misses, misses_before);
    s.teardown();
}

#[test]
fn disabled_asid_flushes_main_tlb_on_switch() {
    let mut s = Sim::boot(KernelConfig::stock().without_asid());
    let zygote = s.live[0];
    let other = s.fork(0, zygote).unwrap().child;
    let m = &mut s.m;
    m.access(0, va(CODE), Execute).unwrap();
    let asid = m.kernel.mm(zygote).unwrap().asid;
    assert!(m.cores[0].main_tlb.probe(va(CODE), asid).is_some());
    let full_flushes = m.cores[0].main_tlb.stats().full_flushes;
    m.context_switch(0, other).unwrap();
    // The switch flushed everything; only the scheduler's kernel
    // entry may have been reloaded afterwards.
    assert!(m.cores[0].main_tlb.probe(va(CODE), asid).is_none());
    assert_eq!(m.cores[0].main_tlb.stats().full_flushes, full_flushes + 1);
    s.teardown();
}

#[test]
fn global_entries_shared_across_zygote_children() {
    let mut s = Sim::boot(KernelConfig::shared_ptp_tlb());
    s.m.access(0, va(CODE), Execute).unwrap();
    let child = s.fork(0, s.live[0]).unwrap().child;
    s.m.context_switch(0, child).unwrap();
    s.m.cores[0].main_tlb.reset_stats();
    s.m.access(0, va(CODE), Execute).unwrap();
    let stats = s.m.cores[0].main_tlb.stats();
    assert_eq!(stats.misses, 0, "child reused the global entry");
    assert_eq!(stats.cross_asid_hits, 1);
    s.teardown();
}

#[test]
fn stock_kernel_duplicates_tlb_entries_per_process() {
    let mut s = Sim::boot(KernelConfig::stock());
    let zygote = s.live[0];
    let code = va(CODE);
    s.m.access(0, code, Execute).unwrap();
    let child = s.fork(0, zygote).unwrap().child;
    let m = &mut s.m;
    m.context_switch(0, child).unwrap();
    m.cores[0].main_tlb.reset_stats();
    let faults_before = m.cores[0].stats.page_faults;
    m.access(0, code, Execute).unwrap();
    // The child missed (its ASID does not match the parent's
    // non-global entry), faulted its own PTE in, and walked again.
    let stats = m.cores[0].main_tlb.stats();
    assert!(stats.misses >= 1);
    assert_eq!(stats.cross_asid_hits, 0);
    assert_eq!(m.cores[0].stats.page_faults, faults_before + 1);
    // The parent's RX entry survived the fork (the ranged fork flush
    // touches only write-protected spans): both processes hold
    // separate entries for the same page — the duplication the paper
    // eliminates.
    m.context_switch(0, zygote).unwrap();
    m.access(0, code, Execute).unwrap();
    for pid in [child, zygote] {
        let asid = m.kernel.mm(pid).unwrap().asid;
        assert!(m.cores[0].main_tlb.probe(code, asid).is_some(), "{pid:?}");
    }
    s.teardown();
}

/// The outsider maps `other.so` over the zygote's library. A zygote
/// child loads the library's global entry on the outsider's core, and
/// the outsider then fetches there.
fn outsider_fetch_over_global_entry() -> Sim {
    let mut s = Sim::boot(KernelConfig::shared_ptp_tlb());
    let [zygote, outsider] = [s.live[0], s.live[1]];
    let child = s.fork(0, zygote).unwrap().child;
    let m = &mut s.m;
    m.context_switch(1, child).unwrap();
    m.access(1, va(CODE), Execute).unwrap();
    assert!(m.cores[1].main_tlb.global_occupancy() > 0);
    m.context_switch(1, outsider).unwrap();
    m.access(1, va(CODE), Execute).unwrap();
    s
}

/// A process outside the zygote, mapping different code at the same
/// VA, never reads through the zygote's global entry: it translates to
/// its own library's frame.
#[test]
fn domain_protection_isolates_non_zygote_processes() {
    let mut s = outsider_fetch_over_global_entry();
    let [zygote, outsider] = [s.live[0], s.live[1]];
    let (m, code) = (&mut s.m, va(CODE));
    assert_eq!(m.cores[1].stats.domain_faults, 1);
    let frame = m.kernel.pte(outsider, code).unwrap().unwrap().hw.pfn;
    let zygote_frame = m.kernel.pte(zygote, code).unwrap().unwrap().hw.pfn;
    assert_ne!(frame, zygote_frame);
    let asid = m.kernel.mm(outsider).unwrap().asid;
    assert_eq!(
        m.cores[1].main_tlb.probe(code, asid).unwrap().pfn,
        frame,
        "the outsider translates to its own library"
    );
    s.teardown();
}

/// The outsider's first fetch over the global entry takes one domain
/// fault, which leaves it an entry of its own PTE in the user domain:
/// its next fetch takes none.
#[test]
fn non_zygote_process_takes_domain_fault_on_global_entry() {
    let mut s = outsider_fetch_over_global_entry();
    let outsider = s.live[1];
    let (m, code) = (&mut s.m, va(CODE));
    assert_eq!(m.cores[1].stats.domain_faults, 1);
    assert_eq!(m.kernel.stats.domain_faults, 1);
    let pte = m.kernel.pte(outsider, code).unwrap().unwrap();
    let asid = m.kernel.mm(outsider).unwrap().asid;
    let entry = m.cores[1].main_tlb.probe(code, asid).unwrap();
    assert_eq!(entry.pfn, pte.hw.pfn);
    assert_eq!(entry.domain, Domain::USER);
    m.access(1, code, Execute).unwrap();
    assert_eq!(m.cores[1].stats.domain_faults, 1);
    s.teardown();
}

#[test]
fn fork_cycles_differ_by_config() {
    // The zygote writes heap pages 4..8 (the boot wrote 0..4), then
    // forks; the fork's cycles are what core 0 is charged for it.
    let fork_cycles = |config| {
        let mut s = Sim::boot(config);
        for page in 4..8 {
            s.m.access(0, va(HEAP + page * PAGE_SIZE), Write).unwrap();
        }
        let before = s.m.cores[0].stats.cycles;
        s.fork(0, s.live[0]).unwrap();
        let cycles = s.m.cores[0].stats.cycles - before;
        s.teardown();
        cycles
    };
    let (stock, share) = (
        fork_cycles(KernelConfig::stock()),
        fork_cycles(KernelConfig::shared_ptp()),
    );
    assert!(share < stock, "{share} vs {stock}");
}

#[test]
fn fsr_far_latch_fault_classes() {
    let mut s = Sim::boot(KernelConfig::stock());
    // Demand-paging fault on a fresh heap page: translation class,
    // FAR = address.
    let page = va(HEAP + 5 * PAGE_SIZE);
    s.m.access(0, page, Read).unwrap();
    let rec = s.m.last_fault.expect("fault latched");
    assert!(rec.status.is_translation_fault());
    assert_eq!(rec.far, page);
    assert!(!rec.write);
    // The register encoding round-trips.
    assert_eq!(sat_mmu::FaultRecord::decode(rec.fsr(), rec.far), Some(rec));
    s.teardown();
}

#[test]
fn page_fault_pollutes_icache() {
    let mut s = Sim::boot(KernelConfig::stock());
    let lib = fresh_lib(&mut s);
    let before = s.m.cores[0].stats.inst_fetches;
    s.m.access(0, lib, Execute).unwrap();
    // The fault handler executed hundreds of kernel lines.
    assert!(s.m.cores[0].stats.inst_fetches > before + 100);
    s.m.audit().unwrap();
}

#[test]
fn walks_put_pte_lines_in_the_l2() {
    let mut s = Sim::boot(KernelConfig::stock());
    s.m.reset_hw_stats();
    s.m.access(0, va(CODE), Execute).unwrap();
    // The walker allocated into L1-D (PageWalk routes there).
    let (_, l1d) = s.m.cores[0].caches.l1_stats();
    assert!(l1d.misses > 0);
    s.teardown();
}

#[test]
fn precise_shootdown_ipis_only_resident_cores() {
    let mut s = Sim::boot(KernelConfig::stock());
    let zygote = s.live[0];
    let m = &mut s.m;
    m.cores.extend([Core::default(), Core::default()]);
    // The zygote runs — and loads non-global entries — on core 0 only.
    let heap = va(HEAP);
    m.access(0, heap, Write).unwrap();
    let asid = m.kernel.mm(zygote).unwrap().asid;
    assert!(m.cores[0].asid_resident(asid));
    assert!(!m.cores[1].asid_resident(asid));
    let ipi = m.model.ipi;
    let cycles_before: Vec<u64> = m.cores.iter().map(|c| c.stats.cycles).collect();
    let flushed_before = m.cores[0].main_tlb.stats().entries_flushed;
    let micro = [
        m.cores[0].micro_i.occupancy(),
        m.cores[0].micro_d.occupancy(),
    ];
    sat_obs::install(64);
    m.syscall(|_, tlb| tlb.flush(FlushOp::Asid(asid), FlushReason::Exit));
    let rec = sat_obs::uninstall().expect("recorder installed above");
    // The targeted core's main flush under the given reason (its ASID
    // on the event), then that core's non-empty micro flushes, then
    // one shootdown event.
    let main = m.cores[0].main_tlb.stats().entries_flushed - flushed_before;
    assert!(main >= 1, "the resident entries went");
    let flush = |scope, entries| Payload::TlbFlush {
        scope,
        reason: FlushReason::Exit,
        entries,
    };
    let mut expected = vec![(asid.raw(), flush(FlushScope::Asid, main))];
    for n in micro.into_iter().filter(|&n| n > 0) {
        expected.push((0, flush(FlushScope::MicroAll, n as u64)));
    }
    expected.push((
        asid.raw(),
        Payload::TlbShootdown {
            asid: asid.raw(),
            scope: FlushScope::Asid,
            cores_targeted: 1,
            cores_local: 0,
            cores_skipped: 3,
        },
    ));
    let events: Vec<_> = rec
        .events
        .into_iter()
        .map(|e| (e.asid, e.payload))
        .collect();
    assert_eq!(events, expected);
    // Core 0 took the IPI and lost the entry...
    assert!(m.cores[0].main_tlb.probe(heap, asid).is_none());
    assert!(!m.cores[0].asid_resident(asid));
    assert_eq!(m.cores[0].stats.cycles, cycles_before[0] + ipi);
    assert_eq!(m.cores[0].main_tlb.stats().avoided_flushes, 0);
    // ...while the cores that never held it were left alone: no flush
    // work, no IPI cost, one avoided flush each.
    for (core, &before) in m.cores.iter().zip(&cycles_before).skip(1) {
        assert_eq!(core.stats.cycles, before);
        assert_eq!(core.main_tlb.stats().avoided_flushes, 1);
        assert_eq!(core.main_tlb.stats().entries_flushed, 0);
    }
    s.teardown();
}

/// The rollover-aliasing regression: a process left current on a core
/// across a generation rollover keeps running with its ASID, so that
/// value must be reserved (never reissued), and re-scheduling the same
/// pid must still fire the deferred flush.
#[test]
fn current_process_survives_rollover_without_aliasing() {
    let mut s = Sim::boot(KernelConfig::stock());
    let zygote = s.live[0];
    let m = &mut s.m;
    // The zygote is current on core 0 and holds a non-global heap
    // entry there.
    m.access(0, va(HEAP), Write).unwrap();
    let asid_before = m.kernel.mm(zygote).unwrap().asid;
    // Burn through the ASID space behind its back (a fork beneath the
    // machine never passes through context_switch).
    for _ in 0..300 {
        let child = m.syscall(|k, _| k.fork(zygote)).unwrap().child;
        if m.kernel.asid_generation() > 1 {
            assert_ne!(
                m.kernel.mm(child).unwrap().asid,
                asid_before,
                "recycled value collided with the on-core zygote"
            );
        }
        m.exit(0, child).unwrap();
    }
    assert!(m.kernel.stats.asid_rollovers >= 1);
    // Running at the rollover: value kept, generation current.
    assert_eq!(m.kernel.mm(zygote).unwrap().asid, asid_before);
    assert!(!m.kernel.asid_is_stale(zygote));
    // Re-scheduling the already-current pid fires the pending flush
    // (the early-return path must not skip it).
    assert!(m.kernel.rollover_flush_pending());
    m.context_switch(0, zygote).unwrap();
    assert!(!m.kernel.rollover_flush_pending());
    // And a fresh process can never be issued the reserved value.
    let fresh = m.syscall(|k, _| k.create_process()).unwrap();
    assert_ne!(m.kernel.mm(fresh).unwrap().asid, asid_before);
    s.live.push(fresh);
    s.teardown();
}

#[test]
fn kernel_run_past_the_end_of_kernel_space_is_refused() {
    // Kernel space's pages, and a page's 32-byte lines.
    const KERNEL_PAGES: u32 = KERNEL_SPACE_START.wrapping_neg() / PAGE_SIZE;
    const LINES_PER_PAGE: u32 = PAGE_SIZE / 32;
    let mut s = Sim::boot(KernelConfig::stock());
    let m = &mut s.m;
    let before = m.cores[0].stats;
    // The last page of kernel space holds 128 lines; one more would
    // wrap the 32-bit VA into user space.
    for (base_page, lines) in [
        (KERNEL_PAGES - 1, LINES_PER_PAGE + 1),
        (KERNEL_PAGES - 2, 3 * LINES_PER_PAGE),
        (KERNEL_PAGES, 1),
        (KERNEL_PAGES, 0),
        (u32::MAX, 80),
        (0, u32::MAX),
    ] {
        assert_eq!(
            m.run_kernel_lines(0, base_page, lines),
            Err(SatError::InvalidArgument),
            "{base_page:#x} + {lines} lines"
        );
    }
    assert_eq!(m.cores[0].stats, before, "nothing was fetched");
    // Right up to the end is fine.
    m.run_kernel_lines(0, KERNEL_PAGES - 1, LINES_PER_PAGE)
        .unwrap();
    let fetched = m.cores[0].stats.inst_fetches - before.inst_fetches;
    assert_eq!(fetched, u64::from(LINES_PER_PAGE));
    s.teardown();
}

#[test]
fn main_tlb_stall_cycles_accumulate_on_fetch_misses() {
    let mut s = Sim::boot(KernelConfig::stock());
    s.m.reset_hw_stats();
    for page in 0..CODE_PAGES {
        s.m.access(0, va(CODE + page * PAGE_SIZE), Execute).unwrap();
    }
    assert!(s.m.cores[0].stats.inst_main_tlb_stall_cycles > 0);
    assert_eq!(s.m.cores[0].stats.data_main_tlb_stall_cycles, 0);
    s.teardown();
}

/// The same access stream on two machines: the same cycles and the same
/// TLB statistics on every core.
#[test]
fn access_stream_is_deterministic() {
    let config = KernelConfig::shared_ptp_tlb();
    let (mut a, mut b) = (Sim::boot(config), Sim::boot(config));
    lockstep(&mut a, &mut b, &Op::Fork(0, 0));
    // The zygote and its child (the 0th and 2nd live processes) take
    // turns on core 0 over the library's pages and a kernel page.
    for i in 0..2_000u32 {
        let n = if i % 3 == 0 { 0 } else { 2 };
        lockstep(&mut a, &mut b, &Op::Access(0, n, (i % 8) as u8, Execute));
    }
    for (x, y) in a.m.cores.iter().zip(&b.m.cores) {
        assert_eq!(x.stats, y.stats);
        assert_eq!(x.main_tlb.stats(), y.main_tlb.stats());
    }
    a.teardown();
    b.teardown();
}

/// `share_tlb` without the zygote path produces no global entries.
/// (Kernel-text entries are always global; the probe is of the user
/// library's translation under a foreign ASID, which only a global
/// entry matches.)
#[test]
fn shared_tlb_requires_both_flags() {
    for (config, global) in [
        (KernelConfig::shared_ptp(), false),
        (KernelConfig::shared_ptp_tlb(), true),
    ] {
        let mut s = Sim::boot(config);
        s.m.access(0, va(CODE), Execute).unwrap();
        let probe = s.m.cores[0].main_tlb.probe(va(CODE), Asid::new(200));
        assert_eq!(probe.is_some(), global, "{config:?}");
        s.teardown();
    }
}

#[test]
fn cycles_accumulate_monotonically_across_workload() {
    let mut s = Sim::boot(KernelConfig::stock());
    let mut last = s.m.cores[0].stats.cycles;
    for i in 0..500u32 {
        let page = va(CODE + (i % CODE_PAGES) * PAGE_SIZE);
        s.m.access(0, page, Execute).unwrap();
        let now = s.m.cores[0].stats.cycles;
        assert!(now > last);
        last = now;
    }
    s.teardown();
}

/// The zygote on core 0 and its child on core 1 share the library's
/// populated PTP but not their TLBs; the lines core 0 loads serve core
/// 1 from the shared L2.
#[test]
fn two_cores_private_tlbs_shared_l2() {
    let mut s = Sim::boot(KernelConfig::shared_ptp_tlb());
    let child = s.fork(0, s.live[0]).unwrap().child;
    let m = &mut s.m;
    m.context_switch(1, child).unwrap();
    let code = va(CODE);
    m.access(0, code, Execute).unwrap();
    // Core 1's TLB is empty for this page (TLBs are per-core)...
    let asid = m.kernel.mm(child).unwrap().asid;
    assert!(m.cores[1].main_tlb.probe(code, asid).is_none());
    // ...but no fault: the shared PTP already holds the PTE, and the
    // instruction line itself hits the shared L2 (core 0 loaded it).
    // The cost is the walk (core 1's private root descriptor misses to
    // memory; the shared PTE line and the code line hit L2) — far
    // below the all-miss worst case.
    let faults_before = m.cores[1].stats.page_faults;
    let cost = m.access(1, code, Execute).unwrap();
    assert_eq!(
        m.cores[1].stats.page_faults, faults_before,
        "fault on core 1"
    );
    assert!(cost < 400, "core 1 paid {cost} cycles, not L2 hits");
    // And the global entry is now in core 1's TLB too.
    assert!(m.cores[1].main_tlb.probe(code, asid).is_some());
    s.teardown();
}

/// The zygote runs on both cores and both load a heap translation; a
/// munmap on core 0 shoots it down on core 1 as well, so a fresh
/// access on either core faults instead of hitting a stale entry.
#[test]
fn tlb_shootdown_reaches_all_cores() {
    let mut s = Sim::boot(KernelConfig::shared_ptp());
    let zygote = s.live[0];
    let m = &mut s.m;
    m.context_switch(1, zygote).unwrap();
    let heap = va(HEAP);
    m.access(0, heap, Write).unwrap();
    m.access(1, heap, Read).unwrap();
    let asid = m.kernel.mm(zygote).unwrap().asid;
    assert!(m
        .cores
        .iter()
        .all(|c| c.main_tlb.probe(heap, asid).is_some()));
    m.munmap(0, zygote, VaRange::from_len(heap, 8 * PAGE_SIZE))
        .unwrap();
    assert!(m
        .cores
        .iter()
        .all(|c| c.main_tlb.probe(heap, asid).is_none()));
    for core in 0..2 {
        assert!(m.access(core, heap, Read).is_err(), "core {core}");
    }
    s.teardown();
}

/// Conservation (observability): every `TlbStats` flush increment has a
/// matching `TlbFlush` event. Zero-entry full flushes are reported too,
/// so event counts reconcile with `full_flushes` and event entry sums
/// with `entries_flushed`, across every core.
#[test]
fn obs_flush_events_reconcile_with_tlb_stats() {
    sat_obs::install(1 << 16);
    let mut s = Sim::boot(KernelConfig::shared_ptp().without_asid());
    let zygote = s.live[0];
    // A workload touching every flush site: faults (repair flushes),
    // context switches (full flushes: ASIDs disabled), fork (the
    // parent's write-protected spans), region ops, domain setup and
    // exit.
    for i in 0..8u32 {
        s.m.access(0, va(CODE + i * PAGE_SIZE), Execute).unwrap();
        s.m.access(0, va(HEAP + i * PAGE_SIZE), Write).unwrap();
    }
    let child = s.fork(0, zygote).unwrap().child;
    s.m.context_switch(0, child).unwrap();
    s.m.access(0, va(HEAP), Write).unwrap();
    let code = VaRange::from_len(va(CODE), CODE_PAGES * PAGE_SIZE);
    s.m.mprotect(0, child, code, Perms::R).unwrap();
    s.m.munmap(0, child, VaRange::from_len(va(HEAP), 8 * PAGE_SIZE))
        .unwrap();
    s.m.context_switch(0, zygote).unwrap();
    s.exit(0, child).unwrap();
    let rec = sat_obs::uninstall().expect("recorder installed above");
    assert_eq!(rec.dropped, 0, "scenario fits the ring");
    let (full, entries) = flushes_reconcile(&s.m, &rec.events);
    assert!(full > 0, "workload performed full flushes");
    assert!(entries > 0, "workload invalidated entries");
    // The registry agrees with the event stream (metrics are applied
    // before ring admission, so this holds even under overflow).
    assert_eq!(rec.metrics.counter("tlb.flush.main.full"), full);
    assert_eq!(rec.metrics.counter("tlb.flush.main.entries"), entries);
    s.teardown();
}

/// Conservation for the page-size paths: promotion and demotion emit
/// size-tagged flushes (`FlushReason::Promote` / `Demote`) that
/// reconcile with `TlbStats` exactly like every other site, and the TLB
/// never serves a stale translation across a collapse or a split.
#[test]
fn obs_promote_demote_flushes_reconcile_and_stay_attributed() {
    sat_obs::install(1 << 16);
    let policy = PromotePolicy {
        enabled: true,
        min_populated: 1,
        ..PromotePolicy::off()
    };
    let mut s = Sim::boot(KernelConfig::shared_ptp().with_promote(policy));
    let zygote = s.live[0];
    // The heap's first 64KB group, half written, collapses; the second,
    // never touched, does not.
    for i in 4..8u32 {
        s.m.access(0, va(HEAP + i * PAGE_SIZE), Write).unwrap();
    }
    let report = s.m.promote_scan(0, zygote).unwrap();
    assert_eq!(report.promoted, 1, "the touched group collapses");
    // Accesses after the collapse translate through the large entry —
    // including a hole the scan filled (page 12 was never touched).
    s.m.access(0, va(HEAP + 12 * PAGE_SIZE), Write).unwrap();
    // A partial munmap splits the group; the demote flush must evict
    // the wide entry so later accesses fault precisely.
    s.m.munmap(0, zygote, VaRange::from_len(va(HEAP), PAGE_SIZE))
        .unwrap();
    let stale = s.m.access(0, va(HEAP), Read);
    assert!(
        stale.is_err(),
        "unmapped page still translates: stale wide TLB entry"
    );
    s.m.access(0, va(HEAP + PAGE_SIZE), Read).unwrap();
    assert_eq!(s.m.kernel.stats.promotions, 1);
    assert_eq!(s.m.kernel.stats.demotions, 1);
    let rec = sat_obs::uninstall().expect("recorder installed above");
    assert_eq!(rec.dropped, 0, "scenario fits the ring");
    flushes_reconcile(&s.m, &rec.events);
    // The promote flush invalidated the small entries the faults loaded;
    // the demote flush invalidated the wide entry.
    for (reason, name) in [
        (FlushReason::Promote, "promote"),
        (FlushReason::Demote, "demote"),
    ] {
        let entries: u64 = rec
            .events
            .iter()
            .filter_map(|e| match e.payload {
                Payload::TlbFlush {
                    scope,
                    reason: r,
                    entries,
                } if scope.is_main() && r == reason => Some(entries),
                _ => None,
            })
            .sum();
        assert!(entries > 0, "no {name} flush evicted an entry");
        let counter = format!("tlb.flush.reason.{name}.entries");
        assert_eq!(rec.metrics.counter(&counter), entries);
    }
    s.teardown();
}
