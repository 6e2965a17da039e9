//! Differential tests: the index-accelerated TLB models vs the
//! linear-scan reference models.
//!
//! `MainTlb`/`MicroTlb` (crate::index-backed) and
//! `RefMainTlb`/`RefMicroTlb` (the original linear scans, kept as the
//! executable specification in `crate::reference`) are driven with
//! identical randomized operation sequences. Every operation's return
//! value must agree, and after the sequence the statistics, occupancy
//! counters, and a full probe sweep must agree — i.e. the indexes are
//! pure acceleration with zero observable behaviour change, including
//! round-robin victim choice and first-match (minimum-slot) winners.
//! The main TLB's own consistency check (`MainTlb::verify`) runs after
//! every operation too, so an index that drifts from the slot array is
//! caught at the step that broke it, not when a lookup first notices.

use proptest::prelude::*;
use sat_tlb::{MainTlb, MicroTlb, RefMainTlb, RefMicroTlb, TlbEntry};
use sat_types::{Asid, Domain, PageSize, Perms, Pfn, VirtAddr, VpnRange, PAGE_SIZE};

/// Small page space so inserts collide, overlap across sizes, and
/// force evictions at the capacities used below.
const PAGES: u32 = 64;

fn entry(page: u32, asid: Option<u8>, size_sel: u8) -> TlbEntry {
    // Mostly 4K pages with a sprinkling of larger sizes, so the
    // cross-size overlap paths (a 64K entry shadowing 4K pages and
    // vice versa) get real coverage.
    let size = match size_sel {
        0..=7 => PageSize::Small4K,
        8 => PageSize::Large64K,
        _ => PageSize::Section1M,
    };
    TlbEntry {
        va_base: VirtAddr::new(page * PAGE_SIZE),
        size,
        asid: asid.map(Asid::new),
        pfn: Pfn::new(page + 0x1000),
        perms: Perms::RX,
        domain: if size_sel == 9 {
            Domain::KERNEL
        } else {
            Domain::USER
        },
    }
}

/// One randomized operation: (opcode, page, optional entry ASID,
/// acting ASID, page-size selector).
type Op = (u8, u32, Option<u8>, u8, u8);

fn op_strategy() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        (
            0u8..10,
            0u32..PAGES,
            prop::option::of(1u8..6),
            1u8..6,
            0u8..10,
        ),
        1..300,
    )
}

/// The flush range an op encodes: starts at `page`, width scales with
/// the size selector so ranges span from one page to most of the
/// 64-page space (crossing 64K/1M entry boundaries).
fn op_range(page: u32, size_sel: u8) -> VpnRange {
    VpnRange::new(page, page + 1 + u32::from(size_sel) * 7)
}

proptest! {
    /// The indexed main TLB is observably identical to the linear
    /// reference under arbitrary operation sequences.
    #[test]
    fn main_tlb_matches_linear_reference(ops in op_strategy()) {
        let mut idx = MainTlb::new(16);
        let mut reference = RefMainTlb::new(16);
        for (op, page, easid, asid, size_sel) in ops {
            let va = VirtAddr::new(page * PAGE_SIZE + 0x123);
            let acting = Asid::new(asid);
            match op {
                0 => {
                    prop_assert_eq!(idx.lookup(va, acting), reference.lookup(va, acting));
                }
                1 => {
                    let e = entry(page, easid, size_sel);
                    idx.insert(e, acting);
                    reference.insert(e, acting);
                }
                2 => prop_assert_eq!(idx.flush_all(), reference.flush_all()),
                3 => prop_assert_eq!(idx.flush_asid(acting), reference.flush_asid(acting)),
                4 => prop_assert_eq!(idx.flush_va(va, acting), reference.flush_va(va, acting)),
                5 => prop_assert_eq!(
                    idx.flush_va_all_asids(va),
                    reference.flush_va_all_asids(va)
                ),
                6 => prop_assert_eq!(idx.flush_non_global(), reference.flush_non_global()),
                7 => prop_assert_eq!(
                    idx.flush_page(acting, page),
                    reference.flush_page(acting, page)
                ),
                8 => {
                    let range = op_range(page, size_sel);
                    prop_assert_eq!(
                        idx.flush_range(acting, range),
                        reference.flush_range(acting, range)
                    );
                }
                _ => {
                    prop_assert_eq!(idx.probe(va, acting), reference.probe(va, acting));
                }
            }
            prop_assert_eq!(idx.occupancy(), reference.occupancy());
            prop_assert_eq!(idx.global_occupancy(), reference.global_occupancy());
            // The indexes, the free set and the counters agree with
            // the slot array, and no tag holds two overlapping entries.
            prop_assert_eq!(idx.verify(), Ok(()));
        }
        prop_assert_eq!(idx.stats(), reference.stats());
        // Full probe sweep: every (page, asid) cell agrees, so the
        // resident entry *set* (and each cell's first-match winner) is
        // identical, not just the cells the random ops happened to
        // touch.
        for page in 0..PAGES {
            for asid in 1..6u8 {
                let va = VirtAddr::new(page * PAGE_SIZE);
                prop_assert_eq!(idx.probe(va, Asid::new(asid)), reference.probe(va, Asid::new(asid)));
            }
        }
    }

    /// The indexed micro-TLB is observably identical to the linear
    /// reference under arbitrary operation sequences.
    #[test]
    fn micro_tlb_matches_linear_reference(ops in op_strategy()) {
        let mut idx = MicroTlb::new(8);
        let mut reference = RefMicroTlb::new(8);
        for (op, page, easid, _asid, size_sel) in ops {
            let va = VirtAddr::new(page * PAGE_SIZE + 0x123);
            match op {
                0..=2 => {
                    prop_assert_eq!(idx.lookup(va), reference.lookup(va));
                }
                3..=5 => {
                    let e = entry(page, easid, size_sel);
                    idx.insert(e);
                    reference.insert(e);
                }
                6 => {
                    idx.flush();
                    reference.flush();
                }
                7 => {
                    idx.flush_va(va);
                    reference.flush_va(va);
                }
                _ => {
                    let range = op_range(page, size_sel);
                    idx.flush_range(range);
                    reference.flush_range(range);
                }
            }
            prop_assert_eq!(idx.occupancy(), reference.occupancy());
        }
        prop_assert_eq!(idx.stats(), reference.stats());
        // Lookup sweep (applied to both, so the stat counters stay in
        // lockstep): the resident entry set and per-page winners agree.
        for page in 0..PAGES {
            let va = VirtAddr::new(page * PAGE_SIZE);
            prop_assert_eq!(idx.lookup(va), reference.lookup(va));
        }
        prop_assert_eq!(idx.stats(), reference.stats());
    }
}

/// Both models agree that a range flush only removes entries tagged
/// with the flushed ASID: global entries inside the range survive in
/// each, and the survivors are identical.
#[test]
fn globals_survive_range_flush_in_both_models() {
    let mut idx = MainTlb::new(16);
    let mut reference = RefMainTlb::new(16);
    for page in 0..8u32 {
        let tagged = entry(page, Some(3), 0);
        let global = entry(page + 16, None, 0);
        idx.insert(tagged, Asid::new(3));
        reference.insert(tagged, Asid::new(3));
        idx.insert(global, Asid::new(3));
        reference.insert(global, Asid::new(3));
    }
    // A range covering every resident page: only the 8 tagged entries
    // die; all 8 globals survive in both models.
    let range = VpnRange::new(0, 32);
    assert_eq!(idx.flush_range(Asid::new(3), range), 8);
    assert_eq!(reference.flush_range(Asid::new(3), range), 8);
    assert_eq!(idx.occupancy(), reference.occupancy());
    assert_eq!(idx.global_occupancy(), 8);
    assert_eq!(reference.global_occupancy(), 8);
    for page in 0..32u32 {
        let va = VirtAddr::new(page * PAGE_SIZE);
        assert_eq!(
            idx.probe(va, Asid::new(3)),
            reference.probe(va, Asid::new(3))
        );
    }
    assert_eq!(idx.stats(), reference.stats());
}

/// Range and page flushes at full occupancy (every slot valid, the
/// round-robin victim mid-array) stay in lockstep, including the
/// free-slot bookkeeping the next inserts depend on.
#[test]
fn range_flush_at_capacity_matches_reference() {
    let mut idx = MainTlb::new(8);
    let mut reference = RefMainTlb::new(8);
    // Overfill: 12 inserts into 8 slots forces evictions, so both
    // models are at capacity with the victim cursor advanced.
    for page in 0..12u32 {
        let e = entry(page, Some((page % 3 + 1) as u8), 0);
        idx.insert(e, Asid::new(1));
        reference.insert(e, Asid::new(1));
    }
    assert_eq!(idx.occupancy(), 8);
    assert_eq!(reference.occupancy(), 8);
    assert_eq!(
        idx.flush_range(Asid::new(1), VpnRange::new(0, 12)),
        reference.flush_range(Asid::new(1), VpnRange::new(0, 12))
    );
    assert_eq!(
        idx.flush_page(Asid::new(2), 10),
        reference.flush_page(Asid::new(2), 10)
    );
    assert_eq!(idx.occupancy(), reference.occupancy());
    // Refill after the flush: freed slots are claimed in the same
    // order in both models.
    for page in 20..26u32 {
        let e = entry(page, Some(4), 0);
        idx.insert(e, Asid::new(4));
        reference.insert(e, Asid::new(4));
    }
    for page in 0..32u32 {
        for asid in 1..6u8 {
            let va = VirtAddr::new(page * PAGE_SIZE);
            assert_eq!(
                idx.probe(va, Asid::new(asid)),
                reference.probe(va, Asid::new(asid)),
                "page {page} asid {asid}"
            );
        }
    }
    assert_eq!(idx.stats(), reference.stats());
}
