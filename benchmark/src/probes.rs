//! `probe.*`: best-of ns/op of one public function on fixed state.
//! They fold the four Criterion suites (`tlb_hot_path`, `ptp_alloc`,
//! `kernel_ops`, `hw_model`; those files stay) into the ledger, one
//! number per layer cost the interaction table names. None of them
//! depends on the seed.

use std::hint::black_box;
use std::time::Instant;

use sat_cache::{Cache, CacheConfig};
use sat_core::{Kernel, KernelConfig, NoTlb, PromotePolicy};
use sat_mmu::{walk, HwPte, Mapper, PtpStore, RootTable, SwPte};
use sat_phys::{FrameKind, PhysMem};
use sat_sim::Machine;
use sat_tlb::{MainTlb, MicroTlb, TlbEntry};
use sat_types::{
    AccessType, Asid, Domain, PageSize, Perms, Pfn, PhysAddr, Pid, RegionTag, VaRange, VirtAddr,
    VpnRange, PAGE_SIZE,
};
use sat_vm::MmapRequest;

use crate::ledger::Ledger;

/// Batches per probe; the best one is reported.
const BATCHES: usize = 7;

/// Times `ops` calls of `op` on one state, `BATCHES` times over, and
/// returns the best batch's ns per call. The state persists across
/// batches: for functions that leave it as they found it.
fn steady<S>(mut state: S, ops: u32, mut op: impl FnMut(&mut S, u32)) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..BATCHES {
        let t = Instant::now();
        for i in 0..ops {
            op(&mut state, i);
        }
        best = best.min(t.elapsed().as_nanos() as f64 / f64::from(ops));
    }
    black_box(&state);
    best
}

/// Like [`steady`] for functions that consume their state: every
/// batch builds a fresh one (untimed) and `run` reports how many ops
/// it made of it.
fn fresh<S>(mut build: impl FnMut() -> S, mut run: impl FnMut(&mut S) -> u64) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..BATCHES {
        let mut state = build();
        let t = Instant::now();
        let ops = run(&mut state);
        let ns = t.elapsed().as_nanos() as f64;
        black_box(&state);
        best = best.min(ns / ops.max(1) as f64);
    }
    best
}

const TLB_BASE: u32 = 0x4000_0000;

fn entry(i: u32, asid: Option<u8>) -> TlbEntry {
    TlbEntry {
        va_base: VirtAddr::new(TLB_BASE + i * PAGE_SIZE),
        size: PageSize::Small4K,
        asid: asid.map(Asid::new),
        pfn: Pfn::new(0x100 + i),
        perms: Perms::RX,
        domain: Domain::USER,
    }
}

/// A full main TLB: 128 entries over seven ASIDs, every fourth global
/// — the warm multi-process shape the simulator runs with.
fn filled_tlb() -> MainTlb {
    let mut tlb = MainTlb::default();
    for i in 0..128u32 {
        let asid = (i % 4 != 0).then_some((i % 7 + 1) as u8);
        tlb.insert(entry(i, asid), Asid::new(1));
    }
    tlb
}

fn tlb(out: &mut Ledger) {
    out.insert(
        "probe.tlb.lookup_hit_ns",
        steady(filled_tlb(), 100_000, |t, i| {
            let i = (i * 13) % 128;
            black_box(t.lookup(entry(i, None).va_base, Asid::new((i % 7 + 1) as u8)));
        }),
    );
    out.insert(
        "probe.tlb.lookup_miss_ns",
        steady(filled_tlb(), 100_000, |t, _| {
            black_box(t.lookup(VirtAddr::new(0x9000_0000), Asid::new(1)));
        }),
    );
    // Refill after a miss: a new page each time, so every insert
    // evicts.
    out.insert(
        "probe.tlb.insert_ns",
        steady(filled_tlb(), 100_000, |t, i| {
            t.insert(entry(128 + i % 4096, Some(1)), Asid::new(1));
        }),
    );
    let warm = filled_tlb();
    out.insert(
        "probe.tlb.flush_asid_ns",
        fresh(
            || vec![warm.clone(); 256],
            |tlbs| {
                for t in tlbs.iter_mut() {
                    black_box(t.flush_asid(Asid::new(3)));
                }
                tlbs.len() as u64
            },
        ),
    );
    out.insert(
        "probe.tlb.flush_range_ns",
        fresh(
            || vec![warm.clone(); 256],
            |tlbs| {
                let range = VpnRange::new(TLB_BASE >> 12, (TLB_BASE >> 12) + 16);
                for t in tlbs.iter_mut() {
                    black_box(t.flush_range(Asid::new(3), range));
                }
                tlbs.len() as u64
            },
        ),
    );
    let mut micro = MicroTlb::default();
    micro.insert(entry(0, Some(1)));
    out.insert(
        "probe.tlb.micro_hit_ns",
        steady(micro, 100_000, |m, _| {
            black_box(m.lookup(black_box(VirtAddr::new(TLB_BASE))));
        }),
    );
}

fn cache(out: &mut Ledger) {
    let mut l1 = Cache::new(CacheConfig::L1_32K);
    l1.access(PhysAddr::new(0x1000));
    out.insert(
        "probe.cache.l1_hit_ns",
        steady(l1, 100_000, |c, _| {
            black_box(c.access(black_box(PhysAddr::new(0x1000))));
        }),
    );
    // A page stride through the 1MB L2: every access misses and,
    // once warm, evicts.
    out.insert(
        "probe.cache.miss_ns",
        steady(Cache::new(CacheConfig::L2_1M), 100_000, |c, i| {
            black_box(c.access(PhysAddr::new(i.wrapping_mul(4096))));
        }),
    );
}

fn mmu(out: &mut Ledger) {
    let mut phys = PhysMem::new(4096);
    let mut root = RootTable::alloc(&mut phys).expect("4096 frames hold a root table");
    let mut ptps = PtpStore::new();
    {
        let mut mapper = Mapper::new(&mut root, &mut ptps, &mut phys, Pid::new(1));
        for i in 0..256u32 {
            let frame = mapper
                .phys
                .alloc(FrameKind::Anon)
                .expect("4096 frames hold 256 pages");
            mapper
                .set_pte(
                    VirtAddr::new(TLB_BASE + i * PAGE_SIZE),
                    HwPte::small(frame, Perms::RX, false),
                    SwPte::file(false, false),
                    Domain::USER,
                )
                .expect("mapping a fresh page succeeds");
        }
    }
    out.insert(
        "probe.mmu.walk_ns",
        steady((), 100_000, |_, i| {
            let va = VirtAddr::new(TLB_BASE + (i * 7 % 256) * PAGE_SIZE);
            black_box(walk(&root, &ptps, va));
        }),
    );
    out.insert(
        "probe.mmu.walk_fault_ns",
        steady((), 100_000, |_, _| {
            black_box(walk(&root, &ptps, black_box(VirtAddr::new(0x9000_0000))));
        }),
    );
    // One wave = a stock fork of the zygote image's worth of tables.
    const WAVE: u32 = 32;
    out.insert(
        "probe.mmu.ptp_alloc_ns",
        fresh(PtpStore::new, |store| {
            for f in 0..WAVE * 16 {
                store.insert(Pfn::new(0x1000 + f));
            }
            u64::from(WAVE * 16)
        }),
    );
    out.insert(
        "probe.mmu.ptp_free_ns",
        fresh(
            || {
                let mut store = PtpStore::new();
                for f in 0..WAVE * 16 {
                    store.insert(Pfn::new(0x1000 + f));
                }
                store
            },
            |store| {
                for f in 0..WAVE * 16 {
                    black_box(store.remove(Pfn::new(0x1000 + f)));
                }
                u64::from(WAVE * 16)
            },
        ),
    );
}

fn phys(out: &mut Ledger) {
    const FRAMES: u32 = 8192;
    out.insert(
        "probe.phys.alloc_ns",
        fresh(
            || PhysMem::new(65_536),
            |p| {
                for _ in 0..FRAMES {
                    black_box(p.alloc(FrameKind::Anon).expect("frames remain"));
                }
                u64::from(FRAMES)
            },
        ),
    );
    out.insert(
        "probe.phys.free_ns",
        fresh(
            || {
                let mut p = PhysMem::new(65_536);
                let frames: Vec<Pfn> = (0..FRAMES)
                    .map(|_| p.alloc(FrameKind::Anon).expect("frames remain"))
                    .collect();
                (p, frames)
            },
            |(p, frames)| {
                for &f in frames.iter() {
                    black_box(p.put_page(f));
                }
                u64::from(FRAMES)
            },
        ),
    );
    // The allocator as `reach_promote` uses it: 16-frame runs out of
    // a 2^18-frame machine.
    out.insert(
        "probe.phys.alloc_run16_ns",
        fresh(
            || PhysMem::new(1 << 18),
            |p| {
                for _ in 0..4 {
                    black_box(p.alloc_run(FrameKind::Anon, 16).expect("runs remain"));
                }
                4
            },
        ),
    );
    let mut p = PhysMem::new(4096);
    let frame = p.alloc(FrameKind::Anon).expect("a frame remains");
    out.insert(
        "probe.phys.rmap_add_remove_ns",
        steady(p, 100_000, |p, i| {
            let va = VirtAddr::new(TLB_BASE + (i % 64) * PAGE_SIZE);
            p.rmap_add(frame, Pid::new(1), va);
            p.rmap_remove(frame, Pid::new(1), va);
        }),
    );
}

const CODE_BASE: u32 = 0x4000_0000;
const HEAP_BASE: u32 = 0x0800_0000;
const CODE_PAGES: u32 = 64;
const HEAP_PAGES: u32 = 32;

fn code_request(k: &mut Kernel, pages: u32) -> MmapRequest {
    let lib = k
        .files
        .find("lib.so")
        .unwrap_or_else(|| k.files.register("lib.so", pages * PAGE_SIZE));
    MmapRequest::file(
        pages * PAGE_SIZE,
        Perms::RX,
        lib,
        0,
        RegionTag::ZygoteNativeCode,
        "lib.so",
    )
    .at(VirtAddr::new(CODE_BASE))
}

/// A zygote-like parent: `code_pages` of touched code, 32 pages of
/// written heap (the `kernel_ops` Criterion fixture).
fn boot(config: KernelConfig, frames: u32, code_pages: u32) -> (Kernel, Pid) {
    let mut k = Kernel::new(config, frames);
    let z = k.create_process().expect("a fresh kernel has pids");
    k.exec_zygote(z).expect("the zygote execs once");
    let req = code_request(&mut k, code_pages);
    k.mmap(z, &req, &mut NoTlb).expect("the code range is free");
    k.populate(
        z,
        VaRange::from_len(VirtAddr::new(CODE_BASE), code_pages * PAGE_SIZE),
    )
    .expect("the code range is mapped");
    let heap = MmapRequest::anon(HEAP_PAGES * PAGE_SIZE, Perms::RW, RegionTag::Heap, "[heap]")
        .at(VirtAddr::new(HEAP_BASE));
    k.mmap(z, &heap, &mut NoTlb)
        .expect("the heap range is free");
    for i in 0..HEAP_PAGES {
        let va = VirtAddr::new(HEAP_BASE + i * PAGE_SIZE);
        k.page_fault(z, va, AccessType::Write, &mut NoTlb)
            .expect("a heap write fault resolves");
    }
    (k, z)
}

fn small_boot(config: KernelConfig) -> (Kernel, Pid) {
    boot(config, 65_536, CODE_PAGES)
}

fn vm(out: &mut Ledger) {
    // Soft fault: PTE fill from a warm page cache.
    out.insert(
        "probe.vm.soft_fault_ns",
        fresh(
            || {
                let (mut k, z) = small_boot(KernelConfig::stock());
                let range = VaRange::from_len(VirtAddr::new(CODE_BASE), CODE_PAGES * PAGE_SIZE);
                k.munmap(z, range, &mut NoTlb).expect("the range is mapped");
                let req = code_request(&mut k, CODE_PAGES);
                k.mmap(z, &req, &mut NoTlb)
                    .expect("the range is free again");
                (k, z)
            },
            |(k, z)| {
                for i in 0..CODE_PAGES {
                    let va = VirtAddr::new(CODE_BASE + i * PAGE_SIZE);
                    black_box(
                        k.page_fault(*z, va, AccessType::Execute, &mut NoTlb)
                            .expect("a file fault resolves"),
                    );
                }
                u64::from(CODE_PAGES)
            },
        ),
    );
    // COW fault after a stock fork.
    out.insert(
        "probe.vm.cow_fault_ns",
        fresh(
            || {
                let (mut k, z) = small_boot(KernelConfig::stock());
                let child = k.fork(z).expect("fork of the zygote").child;
                (k, child)
            },
            |(k, child)| {
                for i in 0..HEAP_PAGES {
                    let va = VirtAddr::new(HEAP_BASE + i * PAGE_SIZE);
                    black_box(
                        k.page_fault(*child, va, AccessType::Write, &mut NoTlb)
                            .expect("a COW fault resolves"),
                    );
                }
                u64::from(HEAP_PAGES)
            },
        ),
    );
}

fn core(out: &mut Ledger) {
    const CHILDREN: u64 = 64;
    let forks = |config| {
        fresh(
            move || small_boot(config),
            |(k, z)| {
                for _ in 0..CHILDREN {
                    black_box(k.fork(*z).expect("fork of the zygote"));
                }
                CHILDREN
            },
        )
    };
    out.insert("probe.core.fork_stock_ns", forks(KernelConfig::stock()));
    out.insert(
        "probe.core.fork_shared_ns",
        forks(KernelConfig::shared_ptp_tlb()),
    );
    let with_children = |config| {
        move || {
            let (mut k, z) = small_boot(config);
            let children: Vec<Pid> = (0..CHILDREN)
                .map(|_| k.fork(z).expect("fork of the zygote").child)
                .collect();
            (k, children)
        }
    };
    out.insert(
        "probe.core.exit_ns",
        fresh(
            with_children(KernelConfig::shared_ptp_tlb()),
            |(k, children)| {
                for &c in children.iter() {
                    k.exit(c, &mut NoTlb).expect("exit of a live child");
                }
                CHILDREN
            },
        ),
    );
    // Figure 6's copy path: a write fault into a shared PTP unshares
    // it (32 PTEs copied) and then resolves the COW.
    out.insert(
        "probe.core.unshare_write_ns",
        fresh(
            with_children(KernelConfig::shared_ptp_tlb()),
            |(k, children)| {
                for &c in children.iter() {
                    let out = k
                        .page_fault(c, VirtAddr::new(HEAP_BASE), AccessType::Write, &mut NoTlb)
                        .expect("a write fault into a shared PTP resolves");
                    black_box(out);
                }
                CHILDREN
            },
        ),
    );
    // One clock-LRU victim: rmap drain, PTE tear, frame free.
    const RECLAIM_PAGES: u32 = 1024;
    out.insert(
        "probe.core.reclaim_page_ns",
        fresh(
            || boot(KernelConfig::stock(), 65_536, RECLAIM_PAGES).0,
            |k| {
                // Two passes: the first clears the access bits the
                // populate set, the second evicts.
                let mut pages = 0;
                for _ in 0..2 {
                    pages += k.reclaim(u64::from(RECLAIM_PAGES), &mut NoTlb).pages;
                }
                pages
            },
        ),
    );
    // One 64KB collapse on the machine `reach_promote` uses: six of a
    // group's sixteen pages touched, the scanner fills the rest.
    const GROUPS: u32 = 8;
    let promote = KernelConfig::stock().with_promote(PromotePolicy {
        enabled: true,
        min_populated: 1,
        sections: false,
    });
    out.insert(
        "probe.core.promote_group_ns",
        fresh(
            || {
                let mut k = Kernel::new(promote, 1 << 18);
                let z = k.create_process().expect("a fresh kernel has pids");
                k.exec_zygote(z).expect("the zygote execs once");
                let req = code_request(&mut k, GROUPS * 16);
                k.mmap(z, &req, &mut NoTlb).expect("the code range is free");
                for i in 0..GROUPS * 6 {
                    let va = VirtAddr::new(CODE_BASE + (u64::from(i) * 16 / 6) as u32 * PAGE_SIZE);
                    k.page_fault(z, va, AccessType::Execute, &mut NoTlb)
                        .expect("a file fault resolves");
                }
                (k, z)
            },
            |(k, z)| {
                k.promote_scan(*z, &mut NoTlb)
                    .expect("the scan completes")
                    .promoted
            },
        ),
    );
}

fn sim(out: &mut Ledger) {
    const WALK_PAGES: u32 = 512;
    let machine = || {
        let (mut k, z) = boot(KernelConfig::stock(), 65_536, WALK_PAGES);
        let other = k.fork(z).expect("fork of the zygote").child;
        let mut m = Machine::single_core(k);
        m.context_switch(0, z).expect("the zygote is live");
        (m, z, other)
    };
    // The same line of the same page: micro-TLB hit, L1 hit.
    out.insert(
        "probe.sim.access_hit_ns",
        steady(machine(), 100_000, |(m, _, _), _| {
            black_box(
                m.access(0, black_box(VirtAddr::new(CODE_BASE)), AccessType::Execute)
                    .expect("a mapped page"),
            );
        }),
    );
    // 512 pages round-robin through a 128-entry main TLB: every
    // access misses both TLBs and walks.
    out.insert(
        "probe.sim.access_walk_ns",
        steady(machine(), 100_000, |(m, _, _), i| {
            let va = VirtAddr::new(CODE_BASE + (i % WALK_PAGES) * PAGE_SIZE);
            black_box(m.access(0, va, AccessType::Execute).expect("a mapped page"));
        }),
    );
    out.insert(
        "probe.sim.context_switch_ns",
        steady(machine(), 20_000, |(m, z, other), i| {
            let pid = if i % 2 == 0 { *other } else { *z };
            m.context_switch(0, pid).expect("both processes are live");
        }),
    );
}

fn obs(out: &mut Ledger) {
    let emit = |i: u32| {
        sat_obs::emit(
            sat_obs::Subsystem::Kernel,
            1,
            1,
            sat_obs::Payload::DomainFault { va: black_box(i) },
        )
    };
    // The price every workload pays with tracing off.
    out.insert(
        "probe.obs.emit_disabled_ns",
        steady((), 1_000_000, |_, i| emit(i)),
    );
    sat_obs::install(1 << 16);
    out.insert(
        "probe.obs.emit_enabled_ns",
        steady((), 100_000, |_, i| emit(i)),
    );
    black_box(sat_obs::uninstall());
}

/// Runs every probe.
pub fn run_all() -> Ledger {
    let mut out = Ledger::new();
    tlb(&mut out);
    cache(&mut out);
    mmu(&mut out);
    phys(&mut out);
    vm(&mut out);
    core(&mut out);
    sim(&mut out);
    obs(&mut out);
    out
}
