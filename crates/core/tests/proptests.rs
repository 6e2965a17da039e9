//! Property tests for the shared-PTP registry's accounting.
//!
//! The registry's invariant (see `registry.rs`): for every entry,
//! `sharers` equals the frame's mapcount in `sat-phys` *and* the
//! number of live level-1 pairs referencing the frame with
//! `NEED_COPY`, and the four Figure-6 by-cause unshare counters sum to
//! `ptp_unshares`. These tests drive random fork / write / mmap /
//! munmap / exit sequences against a zygote image and reconcile after
//! every step via [`Kernel::verify_share_accounting`], then tear the
//! whole system down and check nothing leaked: no registry entries, no
//! PTPs in the arena (a double-free would underflow the slab first),
//! and every physical frame back on the free list.
//!
//! Reclaim rides along: every sequence runs under a tight frame
//! budget (so allocation pressure fires organic reclaim through the
//! mmap/fault hooks), explicit `Reclaim` ops force extra passes, and
//! `Refault` ops fault evicted code pages back in. After every op the
//! reverse map must reconcile against live PTEs
//! ([`sat_phys::PhysMem::rmap_verify`]) and the eviction ledger must
//! conserve (`evictions == refaults + still_evicted`); at teardown
//! the rmap must be empty and the cache deficit must equal the
//! still-evicted count exactly.

use proptest::prelude::*;
use sat_core::{Kernel, KernelConfig, NoTlb};
use sat_types::{AccessType, Perms, Pid, RegionTag, VaRange, VirtAddr, PAGE_SIZE};
use sat_vm::MmapRequest;

const CODE_BASE: u32 = 0x4000_0000;
const CODE_PAGES: u32 = 8;
const HEAP_BASE: u32 = 0x0900_0000;
const HEAP_PAGES: u32 = 2;
/// Fresh 1-page regions land in the upper half of the code chunk, so
/// every `MmapNew` hits a shared PTP (Figure 6 case 3) when sharing
/// is on. Slots advance globally, so two regions never collide.
const MMAP_BASE: u32 = 0x4010_0000;

#[derive(Clone, Debug)]
enum Op {
    /// Fork from the `n`-th live process (zygote included).
    Fork(usize),
    /// Write-fault the `n`-th live process's heap page `p`.
    Write(usize, u8),
    /// Map a fresh private page into the code chunk of process `n`.
    MmapNew(usize),
    /// Unmap the most recent `MmapNew` region of process `n`.
    Munmap(usize),
    /// Exit the `n`-th live *child* (the zygote outlives the ops).
    Exit(usize),
    /// Force a reclaim pass evicting up to `1 + p % 4` file pages.
    Reclaim(u8),
    /// Refault code page `p` in process `n` if reclaim evicted it
    /// (no-op while the PTE is still live).
    Refault(usize, u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..64).prop_map(Op::Fork),
        ((0usize..64), any::<u8>()).prop_map(|(n, p)| Op::Write(n, p)),
        (0usize..64).prop_map(Op::MmapNew),
        (0usize..64).prop_map(Op::Munmap),
        (0usize..64).prop_map(Op::Exit),
        any::<u8>().prop_map(Op::Reclaim),
        ((0usize..64), any::<u8>()).prop_map(|(n, p)| Op::Refault(n, p)),
    ]
}

/// Boots the test zygote: one 8-page RX library (pre-faulted, the
/// shared image) and a 2-page written heap.
fn boot(config: KernelConfig) -> (Kernel, Pid) {
    let mut k = Kernel::new(config, 16384);
    let lib = k.files.register("libtest.so", CODE_PAGES * PAGE_SIZE);
    let zygote = k.create_process().unwrap();
    k.exec_zygote(zygote).unwrap();
    let code = MmapRequest::file(
        CODE_PAGES * PAGE_SIZE,
        Perms::RX,
        lib,
        0,
        RegionTag::ZygoteNativeCode,
        "libtest.so",
    )
    .at(VirtAddr::new(CODE_BASE));
    k.mmap(zygote, &code, &mut NoTlb).unwrap();
    k.populate(
        zygote,
        VaRange::from_len(VirtAddr::new(CODE_BASE), CODE_PAGES * PAGE_SIZE),
    )
    .unwrap();
    let heap = MmapRequest::anon(HEAP_PAGES * PAGE_SIZE, Perms::RW, RegionTag::Heap, "[heap]")
        .at(VirtAddr::new(HEAP_BASE));
    k.mmap(zygote, &heap, &mut NoTlb).unwrap();
    k.page_fault(
        zygote,
        VirtAddr::new(HEAP_BASE),
        AccessType::Write,
        &mut NoTlb,
    )
    .unwrap();
    (k, zygote)
}

/// Frames still allocated after a boot followed by an immediate full
/// teardown: the library's page-cache residency (the cache keeps file
/// pages past the last unmap, as Linux does). Any sequence of ops must
/// tear back down to exactly this floor — every op only creates
/// anonymous memory or page tables, both of which must free fully.
fn teardown_floor(config: KernelConfig) -> u64 {
    let (mut k, zygote) = boot(config);
    k.exit(zygote, &mut NoTlb).unwrap();
    k.phys.frames_in_use()
}

/// Applies `ops`, reconciling registry / mapcount / stats after every
/// step, then exits everything and checks for leaks.
fn run_sequence(config: KernelConfig, ops: &[Op]) {
    let floor = teardown_floor(config);
    let (mut k, zygote) = boot(config);
    // A budget just above the boot footprint: forks and fresh
    // mappings cross the low watermark organically, so reclaim also
    // fires through the mmap/fault hooks, not only via Op::Reclaim.
    k.set_frame_budget(Some(k.phys.frames_in_use() + 32));
    let mut live = vec![zygote]; // index 0 is always the zygote
    let mut mapped: Vec<(Pid, VirtAddr)> = Vec::new();
    let mut next_slot = 0u32;

    for op in ops {
        match *op {
            Op::Fork(n) => {
                let parent = live[n % live.len()];
                let out = k.fork(parent).unwrap();
                live.push(out.child);
            }
            Op::Write(n, p) => {
                let pid = live[n % live.len()];
                let va = VirtAddr::new(HEAP_BASE + (p as u32 % HEAP_PAGES) * PAGE_SIZE);
                k.page_fault(pid, va, AccessType::Write, &mut NoTlb)
                    .unwrap();
            }
            Op::MmapNew(n) => {
                let pid = live[n % live.len()];
                let va = VirtAddr::new(MMAP_BASE + next_slot * PAGE_SIZE);
                next_slot += 1;
                let req =
                    MmapRequest::anon(PAGE_SIZE, Perms::RW, RegionTag::Unknown, "[anon]").at(va);
                k.mmap(pid, &req, &mut NoTlb).unwrap();
                k.page_fault(pid, va, AccessType::Write, &mut NoTlb)
                    .unwrap();
                mapped.push((pid, va));
            }
            Op::Munmap(n) => {
                if mapped.is_empty() {
                    continue;
                }
                let (pid, va) = mapped.remove(n % mapped.len());
                if !live.contains(&pid) {
                    continue; // the owner already exited
                }
                k.munmap(pid, VaRange::from_len(va, PAGE_SIZE), &mut NoTlb)
                    .unwrap();
            }
            Op::Exit(n) => {
                if live.len() == 1 {
                    continue; // only the zygote is left
                }
                let pid = live.remove(1 + n % (live.len() - 1));
                k.exit(pid, &mut NoTlb).unwrap();
            }
            Op::Reclaim(p) => {
                k.reclaim(1 + (p as u64) % 4, &mut NoTlb);
            }
            Op::Refault(n, p) => {
                let pid = live[n % live.len()];
                let va = VirtAddr::new(CODE_BASE + (p as u32 % CODE_PAGES) * PAGE_SIZE);
                if k.pte(pid, va).unwrap().is_none() {
                    k.page_fault(pid, va, AccessType::Execute, &mut NoTlb)
                        .unwrap();
                }
            }
        }
        k.verify_share_accounting()
            .unwrap_or_else(|e| panic!("after {op:?}: {e}"));
        assert_eq!(
            k.stats.ptp_unshares, k.registry.stats.ptp_unshares,
            "KernelStats out of sync with the registry after {op:?}"
        );
        k.phys
            .rmap_verify()
            .unwrap_or_else(|e| panic!("rmap broken after {op:?}: {e}"));
        k.verify_rmap_ownership()
            .unwrap_or_else(|e| panic!("rmap ownership broken after {op:?}: {e}"));
        let s = k.phys.stats();
        assert_eq!(
            s.evictions,
            s.refaults + k.phys.still_evicted() as u64,
            "eviction ledger does not conserve after {op:?}"
        );
    }

    // Full teardown: children first, then the zygote itself.
    while live.len() > 1 {
        let pid = live.pop().unwrap();
        k.exit(pid, &mut NoTlb).unwrap();
        k.verify_share_accounting().unwrap();
    }
    k.exit(zygote, &mut NoTlb).unwrap();
    assert_eq!(
        k.registry.iter().count(),
        0,
        "registry entries leaked past the last exit"
    );
    assert!(k.ptps.is_empty(), "PTPs leaked past the last exit");
    assert!(
        k.phys.rmap_is_empty(),
        "rmap entries leaked past the last exit"
    );
    // Only page-cache residency survives the last exit, and evicted
    // pages that never refaulted account for the whole cache deficit.
    assert_eq!(
        k.phys.frames_in_use(),
        k.phys.page_cache_len() as u64,
        "non-cache frames leaked past the last exit"
    );
    assert_eq!(
        k.phys.frames_in_use() + k.phys.still_evicted() as u64,
        floor,
        "physical frames leaked past the last exit"
    );
    let stats = k.ptps.slab_stats();
    assert_eq!(
        stats.allocs, stats.frees,
        "slab alloc/free counts diverge (double free or leak)"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The tentpole invariant, on the full shared configuration.
    #[test]
    fn registry_reconciles_under_random_lifecycles_shared(
        ops in proptest::collection::vec(op_strategy(), 1..24)
    ) {
        run_sequence(KernelConfig::shared_ptp_tlb(), &ops);
    }

    /// Same sequences on PTP sharing without TLB sharing.
    #[test]
    fn registry_reconciles_under_random_lifecycles_ptp_only(
        ops in proptest::collection::vec(op_strategy(), 1..24)
    ) {
        run_sequence(KernelConfig::shared_ptp(), &ops);
    }

    /// Stock never creates registry entries, and the same teardown
    /// leak checks hold.
    #[test]
    fn stock_keeps_the_registry_empty(
        ops in proptest::collection::vec(op_strategy(), 1..16)
    ) {
        run_sequence(KernelConfig::stock(), &ops);
    }
}
