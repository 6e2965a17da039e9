//! The per-core micro-TLBs.
//!
//! Cortex-A9 cores front the main TLB with small, fully-associative
//! instruction and data micro-TLBs. They carry no ASID tags and are
//! flushed on every context switch — the reason the paper's
//! TLB-sharing benefit accrues in the *main* TLB.
//!
//! Like [`crate::main_tlb::MainTlb`], the model keeps a VA-page index
//! next to the slot array so `lookup` and `flush_va` touch only
//! candidate slots; ties resolve to the minimum slot number, matching
//! a linear first-match scan (see [`crate::index`]).

use sat_types::VirtAddr;

use crate::entry::TlbEntry;
use crate::index::{FreeSlots, VaIndex};

/// Reports a micro-TLB invalidation. Micro TLBs are untagged, so no
/// pid/ASID rides on the event; the reason comes from the caller's
/// scoped attribution, exactly as for the main TLB.
fn emit_micro_flush(scope: sat_obs::FlushScope, entries: usize) {
    if sat_obs::enabled() {
        sat_obs::emit(
            sat_obs::Subsystem::Tlb,
            0,
            0,
            sat_obs::Payload::TlbFlush {
                scope,
                reason: sat_obs::current_flush_reason(),
                entries: entries as u64,
            },
        );
    }
}

/// A micro-TLB (instruction or data side).
pub struct MicroTlb {
    entries: Vec<Option<TlbEntry>>,
    victim: usize,
    hits: u64,
    misses: u64,
    /// Valid-entry count, maintained incrementally.
    valid: usize,
    /// VA page → candidate slots.
    va_index: VaIndex,
    /// Invalid slots, lowest first (the architectural fill order).
    free: FreeSlots,
    /// Scratch buffer for candidate collection (avoids a per-lookup
    /// allocation on the hot path).
    scratch: Vec<usize>,
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
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        MicroTlb {
            entries: vec![None; capacity],
            victim: 0,
            hits: 0,
            misses: 0,
            valid: 0,
            va_index: VaIndex::new(capacity),
            free: FreeSlots::all(capacity),
            scratch: Vec::new(),
        }
    }

    /// Looks up `va`. Micro-TLB entries are not ASID-tagged; the
    /// flush-on-context-switch discipline makes that safe.
    pub fn lookup(&mut self, va: VirtAddr) -> Option<TlbEntry> {
        // The index yields candidates (hash collisions included), so
        // coverage is re-checked; minimum slot = linear-scan winner.
        let entries = &self.entries;
        let mut best: Option<usize> = None;
        self.va_index.for_covering(va, |slot| {
            let entry = entries[slot].as_ref().expect("indexed slot is valid");
            if entry.covers(va) && best.is_none_or(|b| slot < b) {
                best = Some(slot);
            }
        });
        match best {
            Some(slot) => {
                self.hits += 1;
                Some(self.entries[slot].expect("indexed slot is valid"))
            }
            None => {
                self.misses += 1;
                None
            }
        }
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
        let slot = match self.free.claim_lowest() {
            Some(slot) => slot,
            None => {
                let slot = self.victim;
                self.victim = (self.victim + 1) % self.entries.len();
                let old = self.entries[slot].expect("full TLB has no invalid slots");
                self.va_index.remove(&old, slot);
                self.valid -= 1;
                slot
            }
        };
        self.entries[slot] = Some(entry);
        self.va_index.add(&entry, slot);
        self.valid += 1;
    }

    /// Flushes everything (performed on every context switch).
    pub fn flush(&mut self) {
        let n = self.valid;
        self.entries.iter_mut().for_each(|s| *s = None);
        self.va_index.clear();
        self.free.fill();
        self.valid = 0;
        // Micro-TLB flushes fire on *every* context switch; only the
        // ones that actually invalidate something are worth a trace
        // event. (Micro TLBs carry no `TlbStats`, so no conservation
        // invariant depends on the empty ones.)
        if n > 0 {
            emit_micro_flush(sat_obs::FlushScope::MicroAll, n);
        }
    }

    /// Invalidates entries covering `va` (kept coherent with main-TLB
    /// maintenance operations).
    pub fn flush_va(&mut self, va: VirtAddr) {
        // Collect first: clearing a slot mutates the chains the walk
        // is traversing.
        let mut candidates = std::mem::take(&mut self.scratch);
        candidates.clear();
        let valid_before = self.valid;
        self.va_index.for_covering(va, |slot| candidates.push(slot));
        for &slot in &candidates {
            let entry = self.entries[slot].as_ref().expect("indexed slot is valid");
            // Candidates may be hash-collision neighbours; only clear
            // entries that actually cover `va`.
            if !entry.covers(va) {
                continue;
            }
            let entry = self.entries[slot].take().expect("indexed slot is valid");
            self.va_index.remove(&entry, slot);
            self.free.release(slot);
            self.valid -= 1;
        }
        self.scratch = candidates;
        let n = valid_before - self.valid;
        if n > 0 {
            emit_micro_flush(sat_obs::FlushScope::MicroVa, n);
        }
    }

    /// Invalidates entries overlapping the VPN range (kept coherent
    /// with main-TLB range maintenance). Micro entries are untagged,
    /// so every overlapping entry dies regardless of loader; the event
    /// reports `MicroVa` scope — architecturally this is a batch of
    /// per-VA micro invalidations, not a new primitive.
    pub fn flush_range(&mut self, range: sat_types::VpnRange) {
        let valid_before = self.valid;
        for slot in 0..self.entries.len() {
            let covers = self.entries[slot]
                .as_ref()
                .is_some_and(|e| e.overlaps_vpns(&range));
            if !covers {
                continue;
            }
            let entry = self.entries[slot].take().expect("slot is valid");
            self.va_index.remove(&entry, slot);
            self.free.release(slot);
            self.valid -= 1;
        }
        let n = valid_before - self.valid;
        if n > 0 {
            emit_micro_flush(sat_obs::FlushScope::MicroVa, n);
        }
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
}
