//! Differential tests: the VA-indexed main TLB and the packed-lane
//! micro-TLB vs their linear-scan reference models.
//!
//! `MainTlb` (lookups, by-address flushes and the 4KB duplicate check
//! through `crate::index::VaIndex`, every other operation one pass
//! over the slots) and `RefMainTlb` (whole-array scans for every
//! operation, kept as the executable specification in
//! `crate::reference`) are driven with identical randomized operation
//! sequences. Every operation's return value must agree, and after the
//! sequence the statistics, occupancy counters, and a full probe sweep
//! must agree — i.e. the index is pure acceleration with zero
//! observable behaviour change, including round-robin victim choice,
//! the first-empty-slot fill and first-match (minimum-slot) winners.
//! The main TLB's own consistency check (`MainTlb::verify`) runs after
//! every operation too, so a VA index that drifts from the slot array
//! is caught at the step that broke it, not when a lookup first
//! notices. The main TLB's fill after a miss (`insert_after_miss`,
//! which skips the 4KB duplicate probe) runs against the reference's
//! plain `insert`.
//!
//! `MicroTlb` (match lanes under a live-slot mask) and `RefMicroTlb`
//! (an array of optional entries, a first-match pass) are driven the
//! same way at capacities on either side of a lane group's and of the
//! mask word's edges; after every operation its answer, the counters,
//! the occupancy, the live entries in slot order and a lookup sweep
//! over the whole page space must agree.

use proptest::prelude::*;
use sat_tlb::{MainTlb, MicroTlb, RefMainTlb, RefMicroTlb, TlbEntry, TlbLookup};
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
                4 => prop_assert_eq!(
                    idx.flush_va_all_asids(va),
                    reference.flush_va_all_asids(va)
                ),
                5 => prop_assert_eq!(idx.flush_non_global(), reference.flush_non_global()),
                6 => prop_assert_eq!(
                    idx.flush_page(acting, page),
                    reference.flush_page(acting, page)
                ),
                7 => {
                    let range = op_range(page, size_sel);
                    prop_assert_eq!(
                        idx.flush_range(acting, range),
                        reference.flush_range(acting, range)
                    );
                }
                // The machine's fill: a lookup that misses, then the
                // walked entry, tagged with the acting ASID or global.
                8 => {
                    let hit = idx.lookup(va, acting);
                    prop_assert_eq!(hit, reference.lookup(va, acting));
                    if hit == TlbLookup::Miss {
                        let e = entry(page, easid.map(|_| asid), size_sel);
                        idx.insert_after_miss(e, acting);
                        reference.insert(e, acting);
                    }
                }
                _ => {
                    prop_assert_eq!(idx.probe(va, acting), reference.probe(va, acting));
                }
            }
            prop_assert_eq!(idx.occupancy(), reference.occupancy());
            prop_assert_eq!(idx.global_occupancy(), reference.global_occupancy());
            // The VA index and the occupancy counter agree with the
            // slot array, and no tag holds two overlapping entries.
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
}

/// Micro-TLB pages: two 1MB sections' first `MICRO_PAGES / 2` pages
/// each, so a section entry covers half the space and a 64KB entry
/// sixteen of its pages.
const MICRO_PAGES: u32 = 96;

/// The VA of micro page `page`.
fn micro_va(page: u32) -> u32 {
    ((page / (MICRO_PAGES / 2)) << 20) + (page % (MICRO_PAGES / 2)) * PAGE_SIZE
}

/// One micro-TLB operation: (opcode, page, page-size selector, count).
type MicroOp = (u8, u32, u8, u8);

fn micro_op_strategy() -> impl Strategy<Value = Vec<MicroOp>> {
    prop::collection::vec((0u8..20, 0u32..MICRO_PAGES, 0u8..10, 0u8..8), 1..400)
}

proptest! {
    /// The packed-lane micro-TLB is observably identical to the linear
    /// reference at capacities 1, 7, 8, 9, 32 and 64.
    #[test]
    fn micro_tlb_matches_linear_reference(ops in micro_op_strategy()) {
        for capacity in [1, 7, 8, 9, 32, 64] {
            let mut lanes = MicroTlb::new(capacity);
            let mut reference = RefMicroTlb::new(capacity);
            for &(op, page, size_sel, n) in &ops {
                let va = VirtAddr::new(micro_va(page) + 0x123);
                match op {
                    0..=4 => prop_assert_eq!(lanes.lookup(va), reference.lookup(va)),
                    // Inserts outnumber flushes, so the larger
                    // capacities fill up and replace round-robin;
                    // duplicates and overlaps across sizes come free.
                    5..=12 => {
                        let mut e = entry(0, Some(1), size_sel);
                        e.va_base = VirtAddr::new(micro_va(page));
                        e.perms = if n % 2 == 0 { Perms::RX } else { Perms::R };
                        lanes.insert(e);
                        reference.insert(e);
                    }
                    13 => {
                        lanes.note_hits(u64::from(n));
                        reference.note_hits(u64::from(n));
                    }
                    14..=16 => prop_assert_eq!(lanes.flush_va(va), reference.flush_va(va)),
                    17 | 18 => {
                        let first = micro_va(page) >> sat_types::PAGE_SHIFT;
                        let range = VpnRange::new(first, first + 1 + u32::from(n) * 5);
                        prop_assert_eq!(lanes.flush_range(range), reference.flush_range(range));
                    }
                    _ => prop_assert_eq!(lanes.flush(), reference.flush()),
                }
                prop_assert_eq!(lanes.stats(), reference.stats(), "capacity {}", capacity);
                prop_assert_eq!(lanes.occupancy(), reference.occupancy());
                prop_assert!(lanes.entries().eq(reference.entries()), "capacity {}", capacity);
                for page in 0..MICRO_PAGES {
                    let va = VirtAddr::new(micro_va(page));
                    prop_assert_eq!(lanes.lookup(va), reference.lookup(va), "page {}", page);
                }
            }
        }
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
/// round-robin victim mid-array) stay in lockstep, including which
/// emptied slots the next inserts fill.
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
