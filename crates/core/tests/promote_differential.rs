//! Differential property test for large-page promotion/demotion.
//!
//! Two kernels boot identically and replay the same random sequence of
//! mmap / fault / mprotect / munmap / fork / exit / scan ops. Kernel
//! `a` runs with the promotion scanner enabled (sections included);
//! kernel `b` is the 4KB-only reference — same configuration with
//! promotion off, so its walk is the paper's unmodified world.
//!
//! After every op, for every live process and every page of the
//! tracked regions, the two address spaces are compared through the
//! hardware walker ([`sat_mmu::walk`], which sees sections and large
//! pages; the PTE lens does not):
//!
//! - every page the reference maps must translate in the promoted
//!   kernel with the *same permissions and global bit* (frame numbers
//!   legitimately differ — promotion migrates frames). One slack is
//!   allowed: the promoted kernel may carry an early write bit where
//!   the reference is still COW-pending, because a promotion-filled
//!   hole inherits the group's settled RW while the reference's anon
//!   read fault maps write-protected; a later write reaches the same
//!   state in both. The promoted kernel may never map *narrower* than
//!   the reference, and never diverge on the global bit;
//! - pages the reference does **not** map may translate in the
//!   promoted kernel only as promotion-filled holes, never with
//!   permissions the reference never granted anywhere in the region;
//! - the promoted kernel's internal accounting must reconcile:
//!   registry/mapcount/rmap checks pass, and at the end the
//!   `Promote`/`Demote` event streams match the kernel counters
//!   exactly.
//!
//! Teardown asserts the promoted kernel leaks nothing: promotion
//! allocates frames and rewrites descriptor groups, so a refcount slip
//! anywhere in collapse/split/zap shows up as a leaked frame, PTP, or
//! rmap entry here.

use proptest::prelude::*;
use sat_core::{Kernel, KernelConfig, NoTlb, PromotePolicy};
use sat_types::{AccessType, Perms, Pid, RegionTag, VaRange, VirtAddr, PAGE_SIZE};
use sat_vm::MmapRequest;

const CODE_BASE: u32 = 0x4000_0000;
const CODE_PAGES: u32 = 8;
/// 64KB-aligned so whole groups fit: two groups plus a spare page.
const HEAP_BASE: u32 = 0x0900_0000;
const HEAP_PAGES: u32 = 33;

#[derive(Clone, Debug)]
enum Op {
    /// Fork from the `n`-th live process.
    Fork(usize),
    /// Write-fault heap page `p` in process `n`.
    Write(usize, u8),
    /// Read-fault heap page `p` in process `n`.
    Read(usize, u8),
    /// `mprotect` `1 + l % 8` heap pages at `p` to R (`rw` false) or
    /// back to RW.
    Mprotect(usize, u8, u8, bool),
    /// Unmap one heap page in process `n`.
    Munmap(usize, u8),
    /// Run the promotion scanner on process `n` (a no-op on the
    /// reference kernel).
    Scan(usize),
    /// Exit the `n`-th live child (the zygote outlives the ops).
    Exit(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // The vendored proptest picks arms uniformly; Write and Scan are
    // listed twice to bias sequences toward populate-then-promote.
    prop_oneof![
        (0usize..64).prop_map(Op::Fork),
        ((0usize..64), any::<u8>()).prop_map(|(n, p)| Op::Write(n, p)),
        ((0usize..64), any::<u8>()).prop_map(|(n, p)| Op::Write(n, p)),
        ((0usize..64), any::<u8>()).prop_map(|(n, p)| Op::Read(n, p)),
        ((0usize..64), any::<u8>(), any::<u8>(), any::<bool>())
            .prop_map(|(n, p, l, rw)| Op::Mprotect(n, p, l, rw)),
        ((0usize..64), any::<u8>()).prop_map(|(n, p)| Op::Munmap(n, p)),
        (0usize..64).prop_map(Op::Scan),
        (0usize..64).prop_map(Op::Scan),
        (0usize..64).prop_map(Op::Exit),
    ]
}

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
    (k, zygote)
}

/// The walker's view of one page: `(perms, global)` if mapped.
fn view(k: &Kernel, pid: Pid, va: VirtAddr) -> Option<(Perms, bool)> {
    let mm = k.mm(pid).ok()?;
    sat_mmu::walk(&mm.root, &k.ptps, va)
        .translation()
        .map(|t| (t.perms, t.global))
}

/// Compares one process's tracked pages across the two kernels.
fn compare(a: &Kernel, b: &Kernel, pid: Pid, op: &Op) {
    let pages = (0..CODE_PAGES)
        .map(|i| VirtAddr::new(CODE_BASE + i * PAGE_SIZE))
        .chain((0..HEAP_PAGES).map(|i| VirtAddr::new(HEAP_BASE + i * PAGE_SIZE)));
    for va in pages {
        let ref_view = view(b, pid, va);
        let promoted_view = view(a, pid, va);
        match ref_view {
            Some((eperms, eglobal)) => {
                let (gperms, gglobal) = promoted_view.unwrap_or_else(|| {
                    panic!(
                        "{pid:?} {va:?}: reference maps {eperms:?}, promoted faults (after {op:?})"
                    )
                });
                assert_eq!(
                    gglobal, eglobal,
                    "{pid:?} {va:?}: global bit diverged after {op:?}"
                );
                // Exact match, or the promoted side holds an early
                // write bit where the reference is COW-pending (a
                // promotion-filled hole is settled RW; the reference's
                // anon read fault maps write-protected).
                assert!(
                    gperms == eperms || gperms.without_write() == eperms,
                    "{pid:?} {va:?}: perms diverged after {op:?}: \
                     promoted {gperms:?} vs reference {eperms:?}"
                );
            }
            None => {
                // A hole the reference never filled may translate in
                // the promoted kernel (promotion filled it), but only
                // with the region's own permissions — never wider
                // than what some reference page of the region holds.
                if let Some((perms, global)) = promoted_view {
                    assert!(
                        !global,
                        "{pid:?} {va:?}: promotion-filled hole marked global after {op:?}"
                    );
                    assert!(
                        perms == Perms::RW || perms == Perms::R,
                        "{pid:?} {va:?}: filled hole has {perms:?} after {op:?}"
                    );
                }
            }
        }
    }
}

fn run_sequence(base: KernelConfig, ops: &[Op]) {
    let promoted_cfg = base.with_promote(PromotePolicy {
        enabled: true,
        min_populated: 1,
        sections: true,
    });
    sat_obs::install(1 << 16);
    let (mut a, zygote_a) = boot(promoted_cfg);
    let (mut b, zygote_b) = boot(base);
    assert_eq!(zygote_a, zygote_b);
    let mut live = vec![zygote_a];

    for op in ops {
        match *op {
            Op::Fork(n) => {
                let parent = live[n % live.len()];
                let oa = a.fork(parent).unwrap();
                let ob = b.fork(parent).unwrap();
                assert_eq!(oa.child, ob.child, "pid allocation diverged");
                live.push(oa.child);
            }
            Op::Write(n, p) | Op::Read(n, p) => {
                let pid = live[n % live.len()];
                let va = VirtAddr::new(HEAP_BASE + (u32::from(p) % HEAP_PAGES) * PAGE_SIZE);
                let access = if matches!(op, Op::Write(..)) {
                    AccessType::Write
                } else {
                    AccessType::Read
                };
                // The promoted kernel may have filled this hole (no
                // fault to take) or must COW-split a group first; both
                // kernels must nevertheless *succeed or fail alike*
                // when the page is reachable. A fault on an unmapped
                // (munmapped) page errors identically in both.
                let ra = a.page_fault(pid, va, access, &mut NoTlb);
                let rb = b.page_fault(pid, va, access, &mut NoTlb);
                assert_eq!(ra.is_ok(), rb.is_ok(), "fault outcome diverged at {va:?}");
            }
            Op::Mprotect(n, p, l, rw) => {
                let pid = live[n % live.len()];
                let start = u32::from(p) % HEAP_PAGES;
                let len = (1 + u32::from(l) % 8).min(HEAP_PAGES - start);
                let range = VaRange::from_len(
                    VirtAddr::new(HEAP_BASE + start * PAGE_SIZE),
                    len * PAGE_SIZE,
                );
                let perms = if rw { Perms::RW } else { Perms::R };
                let ra = a.mprotect(pid, range, perms, &mut NoTlb);
                let rb = b.mprotect(pid, range, perms, &mut NoTlb);
                assert_eq!(ra.is_ok(), rb.is_ok(), "mprotect outcome diverged");
            }
            Op::Munmap(n, p) => {
                let pid = live[n % live.len()];
                let va = VirtAddr::new(HEAP_BASE + (u32::from(p) % HEAP_PAGES) * PAGE_SIZE);
                let ra = a.munmap(pid, VaRange::from_len(va, PAGE_SIZE), &mut NoTlb);
                let rb = b.munmap(pid, VaRange::from_len(va, PAGE_SIZE), &mut NoTlb);
                assert_eq!(ra.is_ok(), rb.is_ok(), "munmap outcome diverged");
            }
            Op::Scan(n) => {
                let pid = live[n % live.len()];
                a.promote_scan(pid, &mut NoTlb).unwrap();
                let rb = b.promote_scan(pid, &mut NoTlb).unwrap();
                assert_eq!(rb.promoted + rb.sections, 0, "reference kernel promoted");
            }
            Op::Exit(n) => {
                if live.len() == 1 {
                    continue;
                }
                let pid = live.remove(1 + n % (live.len() - 1));
                a.exit(pid, &mut NoTlb).unwrap();
                b.exit(pid, &mut NoTlb).unwrap();
            }
        }
        for &pid in &live {
            compare(&a, &b, pid, op);
        }
        a.verify_share_accounting()
            .unwrap_or_else(|e| panic!("promoted kernel accounting after {op:?}: {e}"));
        a.phys
            .rmap_verify()
            .unwrap_or_else(|e| panic!("promoted kernel rmap after {op:?}: {e}"));
        for k in [&a, &b] {
            k.verify_rmap_ownership()
                .unwrap_or_else(|e| panic!("rmap ownership after {op:?}: {e}"));
        }
    }

    // Event streams reconcile with the counters.
    let rec = sat_obs::uninstall().expect("sink installed");
    let mut promote_events = 0u64;
    let mut demote_events = 0u64;
    for ev in &rec.events {
        match ev.payload {
            sat_obs::Payload::Promote { .. } => promote_events += 1,
            sat_obs::Payload::Demote { .. } => demote_events += 1,
            _ => {}
        }
    }
    assert_eq!(
        promote_events,
        a.stats.promotions + a.stats.section_promotions,
        "Promote events do not reconcile with the promotion counters"
    );
    assert_eq!(
        demote_events, a.stats.demotions,
        "Demote events do not reconcile with the demotion counter"
    );
    assert_eq!(b.stats.promotions + b.stats.section_promotions, 0);

    // Teardown: the promoted kernel must leak nothing despite all the
    // migration and descriptor rewriting.
    while live.len() > 1 {
        let pid = live.pop().unwrap();
        a.exit(pid, &mut NoTlb).unwrap();
        b.exit(pid, &mut NoTlb).unwrap();
    }
    a.exit(zygote_a, &mut NoTlb).unwrap();
    assert!(a.ptps.is_empty(), "PTPs leaked past the last exit");
    assert!(a.phys.rmap_is_empty(), "rmap leaked past the last exit");
    assert_eq!(
        a.phys.frames_in_use(),
        a.phys.page_cache_len() as u64,
        "promoted kernel leaked non-cache frames"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Promotion on stock (no PTP sharing): pure page-size mechanics.
    #[test]
    fn promoted_translations_match_reference_stock(
        ops in proptest::collection::vec(op_strategy(), 1..24)
    ) {
        run_sequence(KernelConfig::stock(), &ops);
    }

    /// Promotion under PTP sharing: the scanner must respect sharing
    /// boundaries and unshare-copied groups must stay coherent.
    #[test]
    fn promoted_translations_match_reference_shared(
        ops in proptest::collection::vec(op_strategy(), 1..24)
    ) {
        run_sequence(KernelConfig::shared_ptp(), &ops);
    }
}
