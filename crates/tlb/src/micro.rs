//! The per-core micro-TLBs.
//!
//! Cortex-A9 cores front the main TLB with small, fully-associative
//! instruction and data micro-TLBs. They carry no ASID tags and are
//! flushed on every context switch — the reason the paper's
//! TLB-sharing benefit accrues in the *main* TLB.
//!
//! The model is the slot array alone. `lookup` is a first-match pass
//! over the slots that stops once it has seen every valid entry, so a
//! micro-TLB that is not full — every one, just after a context switch
//! — misses early. A fill takes the first empty slot, found by a pass
//! that is skipped when the TLB is full, else the round-robin victim;
//! the by-address flushes are one pass each. There is no VA index
//! ([`crate::index`] serves the main TLB only): a hit in the first
//! slots is cheaper as a pass, a miss in a full micro-TLB dearer, and
//! a flush on every context switch would need the index to clear in
//! O(1). DESIGN.md's TLB bullet has the measurements.

use sat_types::VirtAddr;

use crate::entry::TlbEntry;

/// A micro-TLB (instruction or data side).
pub struct MicroTlb {
    entries: Vec<Option<TlbEntry>>,
    victim: usize,
    hits: u64,
    misses: u64,
    /// Valid-entry count, maintained incrementally.
    valid: usize,
}

/// Default micro-TLB capacity (Cortex-A9: 32 entries).
pub const MICRO_TLB_ENTRIES: usize = 32;

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
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "a TLB needs at least one slot");
        MicroTlb {
            entries: vec![None; capacity],
            victim: 0,
            hits: 0,
            misses: 0,
            valid: 0,
        }
    }

    /// Looks up `va`. Micro-TLB entries are not ASID-tagged; the
    /// flush-on-context-switch discipline makes that safe.
    pub fn lookup(&mut self, va: VirtAddr) -> Option<TlbEntry> {
        // First match in slot order; no valid entry lies past the
        // `valid`-th one.
        let hit = self
            .entries
            .iter()
            .flatten()
            .take(self.valid)
            .find(|e| e.covers(va))
            .copied();
        if hit.is_some() {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        hit
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

    /// Inserts an entry (round-robin replacement). Unlike the main
    /// TLB, there is no duplicate scan: the micro-TLB only ever
    /// receives entries that just missed.
    pub fn insert(&mut self, entry: TlbEntry) {
        let slot = if self.valid < self.entries.len() {
            self.valid += 1;
            self.entries
                .iter()
                .position(Option::is_none)
                .expect("a TLB below capacity has an empty slot")
        } else {
            let slot = self.victim;
            self.victim = (slot + 1) % self.entries.len();
            slot
        };
        self.entries[slot] = Some(entry);
    }

    /// Flushes everything (performed on every context switch).
    /// Returns the number of entries dropped.
    pub fn flush(&mut self) -> usize {
        self.flush_where(|_| true)
    }

    /// Invalidates entries covering `va` (kept coherent with main-TLB
    /// maintenance operations). Returns the number of entries dropped.
    pub fn flush_va(&mut self, va: VirtAddr) -> usize {
        self.flush_where(|e| e.covers(va))
    }

    /// Invalidates entries overlapping the VPN range (kept coherent
    /// with main-TLB range maintenance). Micro entries are untagged,
    /// so every overlapping entry dies regardless of loader. Returns
    /// the number of entries dropped.
    pub fn flush_range(&mut self, range: sat_types::VpnRange) -> usize {
        self.flush_where(|e| e.overlaps_vpns(&range))
    }

    /// Invalidates every entry that satisfies `pred`, in one pass over
    /// the slots, and returns how many it dropped.
    fn flush_where(&mut self, pred: impl Fn(&TlbEntry) -> bool) -> usize {
        let valid_before = self.valid;
        for s in &mut self.entries {
            if s.take_if(|e| pred(e)).is_some() {
                self.valid -= 1;
            }
        }
        valid_before - self.valid
    }

    /// (hits, misses) counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Number of valid entries.
    pub fn occupancy(&self) -> usize {
        self.valid
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sat_types::{Asid, Domain, PageSize, Perms, Pfn};

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
        assert_eq!(utlb.entries[1], Some(entry(0x2000)), "the victim survives");
        assert_eq!(utlb.entries[2], Some(entry(0x6000)));
        assert_eq!(utlb.entries[3], None);
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
    #[should_panic(expected = "a TLB needs at least one slot")]
    fn zero_slots_is_refused_by_name() {
        MicroTlb::new(0);
    }
}
