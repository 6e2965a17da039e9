//! The per-core micro-TLBs.
//!
//! Cortex-A9 cores front the main TLB with small, fully-associative
//! instruction and data micro-TLBs. They carry no ASID tags and are
//! flushed on every context switch — the reason the paper's
//! TLB-sharing benefit accrues in the *main* TLB.
//!
//! The model keeps each slot's match rule as a packed lane — slot `i`
//! covers `va` when `va & mask[i] == base[i]` — eight lanes to a
//! 64-byte group, next to the entries, and one `u64` bit per live
//! slot. `lookup` tests a group's live lanes at once and stops at the
//! first group with a live match (the lowest matching slot wins, as in
//! a first-match pass over the slots) or past the group of the highest
//! live slot: a micro-TLB that is nearly empty — every one, just after
//! a context switch — misses after one group, and a miss in a full one
//! costs four group tests. A fill below capacity takes the lowest
//! clear bit, a full TLB the round-robin victim; `flush` clears the
//! mask, so a context switch is one store; `flush_va` and
//! `flush_range` run the same group test, each with its own rule, over
//! every live group. Lanes of dead slots keep stale rules: the live
//! mask alone says which slots hold an entry. The first-match pass this replaced is
//! [`crate::reference::RefMicroTlb`], the twin `tests/differential.rs`
//! holds this model to after every operation; DESIGN.md's TLB bullet
//! has the measurements.

use sat_types::{Domain, PageSize, Perms, Pfn, VirtAddr, PAGE_SHIFT};

use crate::entry::TlbEntry;

/// Lanes compared together: 8 masks and 8 bases, one 64-byte line.
const GROUP: usize = 8;

/// One bit per lane of a group.
const GROUP_BITS: u32 = (1 << GROUP) - 1;

/// The match rules of [`GROUP`] consecutive slots.
#[derive(Clone, Copy, Default)]
#[repr(align(64))]
struct Lanes {
    masks: [u32; GROUP],
    bases: [u32; GROUP],
}

impl Lanes {
    /// Whether a lane whose bit is set in `live` satisfies `rule`
    /// (called with the lane's mask and base). Written as one pass over
    /// every lane with no early exit, so that a simple rule compiles to
    /// a few vector compares and one mask test.
    #[inline(always)]
    fn any_live(&self, live: u32, rule: impl Fn(u32, u32) -> bool) -> bool {
        let mut any = false;
        for i in 0..GROUP {
            any |= rule(self.masks[i], self.bases[i]) & (live & 1 << i != 0);
        }
        any
    }

    /// The lowest lane whose bit is set in `live` and that satisfies
    /// `rule`, for a caller that knows there is one.
    #[inline(always)]
    fn first_live(&self, live: u32, rule: impl Fn(u32, u32) -> bool) -> usize {
        let mut rest = live & GROUP_BITS;
        loop {
            let i = rest.trailing_zeros() as usize;
            if rule(self.masks[i], self.bases[i]) {
                return i;
            }
            rest &= rest - 1;
        }
    }

    /// The lanes whose bits are set in `live` and that satisfy `rule`.
    #[inline(always)]
    fn all_live(&self, live: u32, rule: impl Fn(u32, u32) -> bool) -> u32 {
        let mut found = 0;
        let mut rest = live & GROUP_BITS;
        while rest != 0 {
            let i = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            if rule(self.masks[i], self.bases[i]) {
                found |= 1 << i;
            }
        }
        found
    }
}

/// The lane rule of a slot that covers `va`.
#[inline(always)]
fn covering(va: VirtAddr) -> impl Fn(u32, u32) -> bool + Copy {
    let va = va.raw();
    move |mask, base| va & mask == base
}

/// The lane rule of a slot whose page overlaps `range`: its first page
/// lies below the range's end and its last page not below the range's
/// start ([`TlbEntry::overlaps_vpns`]).
#[inline(always)]
fn overlapping(range: sat_types::VpnRange) -> impl Fn(u32, u32) -> bool + Copy {
    move |mask, base| base >> PAGE_SHIFT < range.end && range.start <= (base | !mask) >> PAGE_SHIFT
}

/// What a dead slot's entry reads; never returned, since the live mask
/// guards every read of it.
const VACANT: TlbEntry = TlbEntry {
    va_base: VirtAddr::new(0),
    size: PageSize::Small4K,
    asid: None,
    pfn: Pfn::new(0),
    perms: Perms::NONE,
    domain: Domain::KERNEL,
};

/// A micro-TLB (instruction or data side).
pub struct MicroTlb {
    /// The slots' match rules, [`GROUP`] to an element.
    lanes: Box<[Lanes]>,
    /// The slots' entries; a dead slot's is stale.
    entries: Box<[TlbEntry]>,
    /// Bit `i` set when slot `i` holds an entry.
    live: u64,
    /// Bit `i` set for every slot `i` below capacity.
    full: u64,
    victim: usize,
    hits: u64,
    misses: u64,
}

/// Default micro-TLB capacity (Cortex-A9: 32 entries).
pub const MICRO_TLB_ENTRIES: usize = 32;

/// The largest capacity one `u64` of live bits covers.
const MAX_SLOTS: usize = u64::BITS as usize;

impl Default for MicroTlb {
    fn default() -> Self {
        MicroTlb::new(MICRO_TLB_ENTRIES)
    }
}

impl MicroTlb {
    /// Creates a micro-TLB with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or above 64.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "a TLB needs at least one slot");
        assert!(capacity <= MAX_SLOTS, "a micro-TLB holds at most 64 slots");
        MicroTlb {
            lanes: vec![Lanes::default(); capacity.div_ceil(GROUP)].into(),
            entries: vec![VACANT; capacity].into(),
            live: 0,
            full: u64::MAX >> (MAX_SLOTS - capacity),
            victim: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// The lowest live slot whose lane satisfies `rule`: for a
    /// covering rule, the winner of a first-match pass over the slots.
    /// Stops past the group of the highest live slot.
    #[inline(always)]
    fn first_where(&self, rule: impl Fn(u32, u32) -> bool + Copy) -> Option<usize> {
        let mut rest = self.live;
        for (g, lanes) in self.lanes.iter().enumerate() {
            if rest == 0 {
                break;
            }
            let live = rest as u32 & GROUP_BITS;
            if lanes.any_live(live, rule) {
                return Some(g * GROUP + lanes.first_live(live, rule));
            }
            rest >>= GROUP;
        }
        None
    }

    /// Every live slot whose lane satisfies `rule`, one bit each.
    fn all_where(&self, rule: impl Fn(u32, u32) -> bool + Copy) -> u64 {
        let mut found = 0;
        let mut rest = self.live;
        for (g, lanes) in self.lanes.iter().enumerate() {
            if rest == 0 {
                break;
            }
            let live = rest as u32 & GROUP_BITS;
            if lanes.any_live(live, rule) {
                found |= u64::from(lanes.all_live(live, rule)) << (g * GROUP);
            }
            rest >>= GROUP;
        }
        found
    }

    /// Looks up `va`. Micro-TLB entries are not ASID-tagged; the
    /// flush-on-context-switch discipline makes that safe.
    pub fn lookup(&mut self, va: VirtAddr) -> Option<TlbEntry> {
        let Some(slot) = self.first_where(covering(va)) else {
            self.misses += 1;
            return None;
        };
        self.hits += 1;
        Some(self.entries[slot])
    }

    /// Counts `n` lookups that hit without performing them. For a
    /// caller that knows the outcome — the entry its previous lookup
    /// hit or its previous insert filled still covers the address,
    /// nothing having touched this TLB in between — this is all a hit
    /// does: replacement is round-robin on fills, so a hit moves no
    /// state but the counter.
    pub fn note_hits(&mut self, n: u64) {
        self.hits += n;
    }

    /// Inserts an entry: into the lowest empty slot, or over the
    /// round-robin victim when every slot is live. Unlike the main
    /// TLB, there is no duplicate scan: the micro-TLB only ever
    /// receives entries that just missed.
    pub fn insert(&mut self, entry: TlbEntry) {
        let slot = if self.live != self.full {
            (!self.live).trailing_zeros() as usize
        } else {
            let slot = self.victim;
            self.victim = if slot + 1 == self.entries.len() {
                0
            } else {
                slot + 1
            };
            slot
        };
        let mask = !(entry.size.bytes() - 1);
        let lanes = &mut self.lanes[slot / GROUP];
        lanes.masks[slot % GROUP] = mask;
        lanes.bases[slot % GROUP] = entry.va_base.raw() & mask;
        self.entries[slot] = entry;
        self.live |= 1 << slot;
    }

    /// Flushes everything (performed on every context switch).
    /// Returns the number of entries dropped.
    pub fn flush(&mut self) -> usize {
        self.drop_slots(self.live)
    }

    /// Invalidates entries covering `va` (kept coherent with main-TLB
    /// maintenance operations). Returns the number of entries dropped.
    pub fn flush_va(&mut self, va: VirtAddr) -> usize {
        self.drop_slots(self.all_where(covering(va)))
    }

    /// Invalidates entries overlapping the VPN range (kept coherent
    /// with main-TLB range maintenance). Micro entries are untagged,
    /// so every overlapping entry dies regardless of loader. Returns
    /// the number of entries dropped.
    pub fn flush_range(&mut self, range: sat_types::VpnRange) -> usize {
        self.drop_slots(self.all_where(overlapping(range)))
    }

    /// Clears the live bits `dead` and returns how many there were.
    fn drop_slots(&mut self, dead: u64) -> usize {
        self.live &= !dead;
        dead.count_ones() as usize
    }

    /// The live entries in slot order (read-only; for audits).
    pub fn entries(&self) -> impl Iterator<Item = &TlbEntry> {
        let mut rest = self.live;
        std::iter::from_fn(move || {
            let slot = rest.trailing_zeros() as usize;
            rest &= rest.wrapping_sub(1);
            // Past the last live bit, `slot` is 64: beyond any capacity.
            self.entries.get(slot)
        })
    }

    /// (hits, misses) counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Number of valid entries.
    pub fn occupancy(&self) -> usize {
        self.live.count_ones() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sat_types::{Asid, Domain, PageSize, Perms, Pfn};

    /// What slot `i` holds, if it is live.
    fn slot(utlb: &MicroTlb, i: usize) -> Option<TlbEntry> {
        (utlb.live >> i & 1 == 1).then_some(utlb.entries[i])
    }

    fn entry(va: u32) -> TlbEntry {
        TlbEntry {
            va_base: VirtAddr::new(va),
            size: PageSize::Small4K,
            asid: Some(Asid::new(1)),
            pfn: Pfn::new(va >> 12),
            perms: Perms::RX,
            domain: Domain::USER,
        }
    }

    #[test]
    fn lookup_insert_flush() {
        let mut utlb = MicroTlb::new(2);
        assert!(utlb.lookup(VirtAddr::new(0x1000)).is_none());
        utlb.insert(entry(0x1000));
        assert!(utlb.lookup(VirtAddr::new(0x1FFF)).is_some());
        utlb.flush();
        assert!(utlb.lookup(VirtAddr::new(0x1000)).is_none());
        assert_eq!(utlb.stats(), (1, 2));
    }

    #[test]
    fn flush_va_is_selective() {
        let mut utlb = MicroTlb::new(4);
        utlb.insert(entry(0x1000));
        utlb.insert(entry(0x2000));
        utlb.flush_va(VirtAddr::new(0x1234));
        assert!(utlb.lookup(VirtAddr::new(0x1000)).is_none());
        assert!(utlb.lookup(VirtAddr::new(0x2000)).is_some());
    }

    #[test]
    fn round_robin_when_full() {
        let mut utlb = MicroTlb::new(2);
        utlb.insert(entry(0x1000));
        utlb.insert(entry(0x2000));
        utlb.insert(entry(0x3000));
        assert_eq!(utlb.occupancy(), 2);
        assert!(utlb.lookup(VirtAddr::new(0x1000)).is_none());
        assert!(utlb.lookup(VirtAddr::new(0x3000)).is_some());
    }

    #[test]
    fn duplicate_inserts_resolve_to_first_slot() {
        // The micro-TLB performs no duplicate scan; when two slots
        // cover the same page, the lower slot wins the lookup — same
        // as a linear first-match scan.
        let mut utlb = MicroTlb::new(4);
        let mut a = entry(0x1000);
        a.perms = Perms::RX;
        let mut b = entry(0x1000);
        b.perms = Perms::R;
        utlb.insert(a);
        utlb.insert(b);
        assert_eq!(utlb.occupancy(), 2);
        assert_eq!(utlb.lookup(VirtAddr::new(0x1000)).unwrap().perms, Perms::RX);
        // flush_va removes every covering entry, not just the winner.
        utlb.flush_va(VirtAddr::new(0x1000));
        assert_eq!(utlb.occupancy(), 0);
    }

    #[test]
    fn lookup_hits_the_last_valid_entry_past_holes() {
        // Slots 0 and 1 emptied: the two valid entries sit in slots 2
        // and 3, and the pass must reach the second of them.
        let mut utlb = MicroTlb::new(8);
        for va in [0x1000, 0x2000, 0x3000, 0x4000] {
            utlb.insert(entry(va));
        }
        utlb.flush_va(VirtAddr::new(0x1000));
        utlb.flush_va(VirtAddr::new(0x2000));
        assert_eq!(utlb.occupancy(), 2);
        assert_eq!(utlb.lookup(VirtAddr::new(0x4321)), Some(entry(0x4000)));
        assert_eq!(utlb.lookup(VirtAddr::new(0x5000)), None);
    }

    #[test]
    fn flush_range_drops_large_entries_it_only_touches() {
        // A 64KB entry (vpns 0x10..0x20) and a 1MB one (0x100..0x200),
        // each with a 4KB neighbour just outside it.
        let sized = |va: u32, size: PageSize| TlbEntry { size, ..entry(va) };
        let mut utlb = MicroTlb::new(8);
        utlb.insert(entry(0x0000_F000));
        utlb.insert(sized(0x0001_0000, PageSize::Large64K));
        utlb.insert(sized(0x0010_0000, PageSize::Section1M));
        utlb.insert(entry(0x0020_0000));
        // Each range reaches only the last page of a large entry.
        utlb.flush_range(sat_types::VpnRange::new(0x1F, 0x21));
        utlb.flush_range(sat_types::VpnRange::new(0x1FF, 0x200));
        assert_eq!(utlb.occupancy(), 2);
        for (va, hit) in [
            (0x0_F000, true),
            (0x1_0000, false),
            (0x10_0000, false),
            (0x20_0000, true),
        ] {
            assert_eq!(utlb.lookup(VirtAddr::new(va)), hit.then(|| entry(va)));
        }
    }

    #[test]
    fn fill_after_flush_takes_the_lowest_hole() {
        let mut utlb = MicroTlb::new(4);
        for va in [0x1000, 0x2000, 0x3000, 0x4000, 0x5000] {
            utlb.insert(entry(va));
        }
        // Full, slot 0 replaced by 0x5000; the victim is now slot 1.
        utlb.flush_va(VirtAddr::new(0x4000));
        utlb.flush_va(VirtAddr::new(0x3000));
        utlb.insert(entry(0x6000));
        assert_eq!(slot(&utlb, 1), Some(entry(0x2000)), "the victim survives");
        assert_eq!(slot(&utlb, 2), Some(entry(0x6000)));
        assert_eq!(slot(&utlb, 3), None);
        assert_eq!(utlb.occupancy(), 3);
    }

    #[test]
    fn counters_follow_a_mixed_sequence() {
        let mut utlb = MicroTlb::new(2);
        utlb.lookup(VirtAddr::new(0x1000)); // miss
        utlb.insert(entry(0x1000));
        utlb.lookup(VirtAddr::new(0x1000)); // hit
        utlb.insert(entry(0x2000));
        utlb.insert(entry(0x3000)); // evicts 0x1000
        utlb.lookup(VirtAddr::new(0x1000)); // miss
        utlb.lookup(VirtAddr::new(0x3FFF)); // hit
        utlb.note_hits(3);
        utlb.flush_va(VirtAddr::new(0x2000));
        utlb.lookup(VirtAddr::new(0x2000)); // miss
        utlb.flush();
        utlb.lookup(VirtAddr::new(0x3000)); // miss
        assert_eq!(utlb.stats(), (5, 4));
    }

    #[test]
    fn lowest_live_slot_wins_across_a_lane_boundary() {
        // Slots 0-7 fill the first group; 0x9000 lands in slot 8, past
        // the boundary. A hole at slot 5 then takes a second entry for
        // 0x9000, which wins.
        let mut utlb = MicroTlb::new(16);
        for page in 0..8 {
            utlb.insert(entry(page << 12));
        }
        let far = TlbEntry {
            perms: Perms::R,
            ..entry(0x9000)
        };
        utlb.insert(far);
        assert_eq!(utlb.lookup(VirtAddr::new(0x9ABC)), Some(far));
        utlb.flush_range(sat_types::VpnRange::single(5));
        utlb.insert(entry(0x9000));
        assert_eq!(slot(&utlb, 5), Some(entry(0x9000)));
        assert_eq!(utlb.lookup(VirtAddr::new(0x9ABC)), Some(entry(0x9000)));
        // A flush by address drops both copies, one in either group.
        assert_eq!(utlb.flush_va(VirtAddr::new(0x9000)), 2);
        assert_eq!(utlb.occupancy(), 7);
    }

    #[test]
    fn fill_after_flush_va_takes_the_lowest_hole() {
        let mut utlb = MicroTlb::default();
        for page in 0..32 {
            utlb.insert(entry(page << 12));
        }
        utlb.flush_va(VirtAddr::new(20 << 12));
        utlb.flush_va(VirtAddr::new(3 << 12));
        utlb.insert(entry(0x40_0000));
        utlb.insert(entry(0x41_0000));
        assert_eq!(slot(&utlb, 3), Some(entry(0x40_0000)));
        assert_eq!(slot(&utlb, 20), Some(entry(0x41_0000)));
        // Full again: the round-robin victim, untouched by the holes,
        // is still slot 0.
        utlb.insert(entry(0x42_0000));
        assert_eq!(slot(&utlb, 0), Some(entry(0x42_0000)));
        assert_eq!(utlb.occupancy(), 32);
    }

    #[test]
    fn flush_of_a_full_tlb_drops_every_slot() {
        let mut utlb = MicroTlb::default();
        for page in 0..40 {
            utlb.insert(entry(page << 12));
        }
        assert_eq!(utlb.occupancy(), 32);
        assert_eq!(utlb.flush(), 32);
        assert_eq!(utlb.occupancy(), 0);
        assert_eq!(utlb.lookup(VirtAddr::new(39 << 12)), None);
        assert_eq!(utlb.entries().count(), 0);
        // The next fill starts over at slot 0.
        utlb.insert(entry(0x7000));
        assert_eq!(slot(&utlb, 0), Some(entry(0x7000)));
    }

    #[test]
    #[should_panic(expected = "a TLB needs at least one slot")]
    fn zero_slots_is_refused_by_name() {
        MicroTlb::new(0);
    }

    #[test]
    #[should_panic(expected = "a micro-TLB holds at most 64 slots")]
    fn more_slots_than_live_bits_is_refused_by_name() {
        MicroTlb::new(MAX_SLOTS + 1);
    }
}
