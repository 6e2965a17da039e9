//! Criterion microbenchmarks for the hardware models: main-TLB lookup
//! and flush, set-associative cache access, a fault handler's run of
//! kernel text, and the two-level table walk — the hot loops under
//! every simulated instruction.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use sat_cache::{Cache, CacheConfig};
use sat_core::{Kernel, KernelConfig};
use sat_mmu::{walk, HwPte, Mapper, PtpStore, RootTable, SwPte};
use sat_phys::{FrameKind, PhysMem};
use sat_sim::machine::{FAULT_HANDLER_PAGE, FAULT_PATH_PAGES};
use sat_sim::Machine;
use sat_tlb::{MainTlb, TlbEntry};
use sat_types::{Asid, Domain, PageSize, Perms, Pfn, PhysAddr, VirtAddr, PAGE_SIZE};

fn filled_tlb() -> MainTlb {
    let mut tlb = MainTlb::default();
    for i in 0..128u32 {
        tlb.insert(
            TlbEntry {
                va_base: VirtAddr::new(0x4000_0000 + i * PAGE_SIZE),
                size: PageSize::Small4K,
                asid: if i % 4 == 0 {
                    None
                } else {
                    Some(Asid::new((i % 7 + 1) as u8))
                },
                pfn: Pfn::new(0x100 + i),
                perms: Perms::RX,
                domain: Domain::USER,
            },
            Asid::new(1),
        );
    }
    tlb
}

fn bench_tlb(c: &mut Criterion) {
    let mut g = c.benchmark_group("tlb");
    g.bench_function("lookup_hit", |b| {
        let mut tlb = filled_tlb();
        let mut i = 0u32;
        b.iter(|| {
            i = (i + 13) % 128;
            tlb.lookup(
                VirtAddr::new(0x4000_0000 + i * PAGE_SIZE),
                Asid::new((i % 7 + 1) as u8),
            )
        });
    });
    g.bench_function("lookup_miss", |b| {
        let mut tlb = filled_tlb();
        b.iter(|| tlb.lookup(VirtAddr::new(0x9000_0000), Asid::new(1)));
    });
    g.bench_function("flush_asid", |b| {
        b.iter_batched_ref(
            filled_tlb,
            |tlb| tlb.flush_asid(Asid::new(3)),
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

fn bench_cache(c: &mut Criterion) {
    let mut g = c.benchmark_group("cache");
    g.bench_function("l1_hit", |b| {
        let mut cache = Cache::new(CacheConfig::L1_32K);
        cache.access(PhysAddr::new(0x1000));
        b.iter(|| cache.access(PhysAddr::new(0x1000)));
    });
    g.bench_function("streaming_misses", |b| {
        let mut cache = Cache::new(CacheConfig::L2_1M);
        let mut addr = 0u32;
        b.iter(|| {
            addr = addr.wrapping_add(4096);
            cache.access(PhysAddr::new(addr))
        });
    });
    // One iteration is one soft fault's worth of handler text — 300
    // lines through micro-TLB, L1-I and L2 — so ns per line is the
    // row ÷ 300. The start rotates through the handler's 16 pages by
    // `page_fault_path`'s stride (page-granular here: the public
    // entry point takes a page), which keeps the L1-I missing on
    // about half the lines as it does under a fault-heavy run.
    g.bench_function("fault_handler_run_300", |b| {
        let mut m = Machine::single_core(Kernel::new(KernelConfig::stock(), 1024));
        let mut seq = 0u32;
        b.iter(|| {
            let start = (seq * 149) % (FAULT_PATH_PAGES * 128);
            seq = seq.wrapping_add(1);
            m.run_kernel_lines(0, FAULT_HANDLER_PAGE + start / 128, 300)
        });
    });
    g.finish();
}

fn bench_walk(c: &mut Criterion) {
    let mut g = c.benchmark_group("mmu");
    let mut phys = PhysMem::new(4096);
    let mut root = RootTable::alloc(&mut phys).unwrap();
    let mut ptps = PtpStore::new();
    {
        let mut mapper = Mapper::new(&mut root, &mut ptps, &mut phys, sat_types::Pid::new(1));
        for i in 0..256u32 {
            let frame = mapper.phys.alloc(FrameKind::Anon).unwrap();
            mapper
                .set_pte(
                    VirtAddr::new(0x4000_0000 + i * PAGE_SIZE),
                    HwPte::small(frame, Perms::RX, false),
                    SwPte::file(false, false),
                    Domain::USER,
                )
                .unwrap();
        }
    }
    g.bench_function("two_level_walk", |b| {
        let mut i = 0u32;
        b.iter(|| {
            i = (i + 7) % 256;
            walk(&root, &ptps, VirtAddr::new(0x4000_0000 + i * PAGE_SIZE))
        });
    });
    g.bench_function("walk_fault", |b| {
        b.iter(|| walk(&root, &ptps, VirtAddr::new(0x9000_0000)));
    });
    g.finish();
}

criterion_group!(benches, bench_tlb, bench_cache, bench_walk);
criterion_main!(benches);
