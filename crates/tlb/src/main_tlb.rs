//! The unified main TLB.
//!
//! Architecturally this is a flat array of tagged slots with
//! round-robin replacement (see the [`MainTlb`] docs). Since every
//! simulated fetch and data access funnels through [`MainTlb::lookup`],
//! the model keeps one acceleration index next to the slot array — a
//! per-page-size VA map ([`crate::index::VaIndex`]) — so the
//! operations that name an address touch only candidate slots:
//! `lookup`/`probe`, the by-address flushes (`flush_va_all_asids`,
//! `flush_page`), and the duplicate check of a
//! 4KB `insert`, one bucket probe per page size in use — a probe that
//! [`MainTlb::insert_after_miss`], the fill of a 4KB entry after a
//! lookup miss, skips: the miss proved there is no duplicate. Everything
//! else is one pass over the slots: `flush_all`, `flush_asid`,
//! `flush_range`, `flush_non_global`, the duplicate check of an insert
//! *larger* than 4KB (kernel sections, promoted groups — rare), and the
//! fill slot of an `insert` that replaced nothing (the first empty
//! slot; no scan when the TLB is full). The index never changes
//! *which* slot wins: every path resolves ties by minimum slot number,
//! which is the entry a linear first-match scan returns, so observable
//! behaviour (hits, misses, evictions, flush counts, statistics) is
//! identical to the linear reference model in [`crate::reference`].
//! The differential proptests in `tests/differential.rs` enforce that
//! equivalence, and check [`MainTlb::verify`] after every operation.
//!
//! **Why the 4KB duplicate check is exact.** `insert` must drop every
//! same-tag entry `e` that overlaps the new entry `n`:
//! `e.covers(n.va_base) || n.covers(e.va_base)`. When `n` is a 4KB
//! page the second clause implies the first — `e`'s page is at least
//! 4KB and size-aligned, so if `e`'s base lies in `n`'s page then
//! `e`'s page contains all of `n`'s, `n.va_base` included (also for a
//! large entry whose recorded base is not size-aligned: `covers`
//! masks both sides). "Covers `n.va_base`" is therefore the whole
//! overlap set, and it is what the VA map enumerates. A larger `n` can
//! also swallow small entries whose pages do not reach its base; only
//! the pass over the slots finds those.

use sat_types::{Asid, Domain, PageSize, VirtAddr};

use crate::entry::TlbEntry;
use crate::index::VaIndex;

/// Main-TLB statistics.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct TlbStats {
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed (a table walk follows).
    pub misses: u64,
    /// Hits on *global* entries.
    pub global_hits: u64,
    /// Hits on a global entry that was loaded by a different process
    /// (ASID) than the one now hitting — translation reuse across
    /// address spaces, the paper's TLB-sharing win.
    pub cross_asid_hits: u64,
    /// Entries invalidated by flush operations.
    pub entries_flushed: u64,
    /// Full-TLB flush operations performed.
    pub full_flushes: u64,
    /// Valid entries evicted by replacement.
    pub evictions: u64,
    /// Flush requests a precise shootdown skipped because the target
    /// ASID was never resident here (bumped via
    /// [`MainTlb::note_avoided_flush`] by the machine layer — no TLB
    /// operation runs).
    pub avoided_flushes: u64,
}

/// Result of a main-TLB lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TlbLookup {
    /// The lookup hit; the matching entry is returned.
    Hit(TlbEntry),
    /// No entry matched; a page-table walk is required.
    Miss,
}

/// The unified main TLB (128 entries on Cortex-A9).
///
/// Modeled as fully associative with round-robin replacement; the real
/// A9 main TLB is 2-way set-associative, but the capacity and tagging
/// behaviour (ASID, global bit, per-entry domain) — the properties the
/// paper's mechanism depends on — are preserved.
///
/// To attribute cross-address-space reuse, each slot also remembers
/// the ASID of the process that *loaded* it (for global entries, the
/// architectural tag is "match everything", but the simulator keeps
/// the loader for statistics).
#[derive(Clone)]
pub struct MainTlb {
    entries: Vec<Option<(TlbEntry, Asid)>>,
    victim: usize,
    stats: TlbStats,
    /// Valid-entry count, maintained incrementally.
    valid: usize,
    /// VA page → candidate slots.
    va_index: VaIndex,
    /// Scratch buffer for candidate collection (avoids a per-lookup
    /// allocation on the hot path).
    scratch: Vec<usize>,
}

/// Default main-TLB capacity (Cortex-A9).
pub const MAIN_TLB_ENTRIES: usize = 128;

impl Default for MainTlb {
    fn default() -> Self {
        MainTlb::new(MAIN_TLB_ENTRIES)
    }
}

impl MainTlb {
    /// Creates a TLB with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "a TLB needs at least one slot");
        MainTlb {
            entries: vec![None; capacity],
            victim: 0,
            stats: TlbStats::default(),
            valid: 0,
            va_index: VaIndex::new(capacity),
            scratch: Vec::new(),
        }
    }

    /// Returns the statistics.
    pub fn stats(&self) -> TlbStats {
        self.stats
    }

    /// Resets the statistics (not the contents).
    pub fn reset_stats(&mut self) {
        self.stats = TlbStats::default();
    }

    /// Records that a precise shootdown skipped this TLB (the target
    /// ASID was never resident on its core). Pure accounting: contents
    /// and flush counters are untouched.
    pub fn note_avoided_flush(&mut self) {
        self.stats.avoided_flushes += 1;
    }

    /// Number of valid entries.
    pub fn occupancy(&self) -> usize {
        self.valid
    }

    /// The valid entries in slot order (read-only; for audits).
    pub fn entries(&self) -> impl Iterator<Item = &TlbEntry> {
        self.entries.iter().flatten().map(|(e, _)| e)
    }

    /// Counts valid global entries (a recount: only reports read it).
    pub fn global_occupancy(&self) -> usize {
        self.entries
            .iter()
            .flatten()
            .filter(|(e, _)| e.is_global())
            .count()
    }

    /// Returns the lowest slot holding an entry that matches
    /// `(va, asid)` — the winner of a linear first-match scan. The
    /// index yields candidates, so the full match (coverage + ASID)
    /// is re-checked per slot.
    fn matching_slot(&self, va: VirtAddr, asid: Asid) -> Option<usize> {
        let entries = &self.entries;
        let mut best: Option<usize> = None;
        self.va_index.for_covering(va, |slot| {
            let (entry, _) = entries[slot].as_ref().expect("indexed slot is valid");
            if entry.matches(va, asid) && best.is_none_or(|b| slot < b) {
                best = Some(slot);
            }
        });
        best
    }

    /// Looks up `va` under `asid`, updating statistics.
    pub fn lookup(&mut self, va: VirtAddr, asid: Asid) -> TlbLookup {
        if let Some(slot) = self.matching_slot(va, asid) {
            let (entry, loader) = self.entries[slot].as_ref().expect("slot is valid");
            self.stats.hits += 1;
            if entry.is_global() {
                self.stats.global_hits += 1;
                // Cross-address-space reuse counts only user-space
                // entries: kernel-text entries are global on every
                // OS and would contaminate the sharing metric.
                if *loader != asid && entry.domain != Domain::KERNEL {
                    self.stats.cross_asid_hits += 1;
                }
            }
            return TlbLookup::Hit(*entry);
        }
        self.stats.misses += 1;
        TlbLookup::Miss
    }

    /// Probes for a matching entry without updating statistics.
    pub fn probe(&self, va: VirtAddr, asid: Asid) -> Option<TlbEntry> {
        self.matching_slot(va, asid)
            .map(|slot| self.entries[slot].expect("slot is valid").0)
    }

    /// Inserts an entry loaded by `loader`, replacing any entry that
    /// already covers the same page for the same tag, otherwise
    /// using round-robin replacement.
    pub fn insert(&mut self, entry: TlbEntry, loader: Asid) {
        // Invalidate duplicates first (hardware must never hold two
        // entries matching the same VA+ASID). Coverage is checked in
        // both directions so a large entry evicts the small entries
        // inside its range and vice versa. Only same-tag entries can
        // collide. For a 4KB entry every overlapping entry covers its
        // base (module docs), so the VA map's candidates are the whole
        // set; a larger entry scans the slots.
        let mut overlaps = std::mem::take(&mut self.scratch);
        overlaps.clear();
        if entry.size == PageSize::Small4K {
            let entries = &self.entries;
            self.va_index.for_covering(entry.va_base, |slot| {
                let (e, _) = entries[slot].as_ref().expect("indexed slot is valid");
                // Candidates may be hash-collision neighbours.
                if e.asid == entry.asid && e.covers(entry.va_base) {
                    overlaps.push(slot);
                }
            });
            overlaps.sort_unstable();
        } else {
            overlaps.extend(self.entries.iter().enumerate().filter_map(|(slot, s)| {
                let (e, _) = s.as_ref()?;
                let overlap =
                    e.asid == entry.asid && (e.covers(entry.va_base) || entry.covers(e.va_base));
                overlap.then_some(slot)
            }));
        }
        if let Some(&target) = overlaps.first() {
            // The linear scan replaces the first overlapping slot in
            // place and silently clears the rest.
            for &slot in &overlaps[1..] {
                self.clear_slot(slot);
            }
            let old = self.entries[target].expect("overlap slot is valid").0;
            self.va_index.remove(&old, target);
            self.entries[target] = Some((entry, loader));
            self.va_index.add(&entry, target);
            self.scratch = overlaps;
            return;
        }
        self.scratch = overlaps;
        self.fill(entry, loader);
    }

    /// [`MainTlb::insert`] for the fill that follows a miss: `entry`,
    /// tagged `loader` or global, translates the address of the
    /// [`MainTlb::lookup`] under `loader` that just missed, and nothing
    /// has touched this TLB since. Same effect as `insert`, but a 4KB
    /// entry skips the duplicate probe: a same-tag entry covering its
    /// page would have matched that lookup (it covers the address, and
    /// its tag is `loader` or global), so there is none to replace. A
    /// larger entry may overlap small ones away from the address, and
    /// goes through `insert`.
    pub fn insert_after_miss(&mut self, entry: TlbEntry, loader: Asid) {
        debug_assert!(entry.asid.is_none_or(|a| a == loader));
        if entry.size != PageSize::Small4K {
            return self.insert(entry, loader);
        }
        debug_assert_eq!(self.probe(entry.va_base, loader), None, "the lookup missed");
        self.fill(entry, loader);
    }

    /// Puts `entry`, which overlaps no same-tag entry, into the first
    /// empty slot, or over the round-robin victim in a full TLB.
    fn fill(&mut self, entry: TlbEntry, loader: Asid) {
        let slot = if self.valid < self.entries.len() {
            self.entries
                .iter()
                .position(Option::is_none)
                .expect("a TLB below capacity has an empty slot")
        } else {
            self.stats.evictions += 1;
            let slot = self.victim;
            self.victim = if slot + 1 == self.entries.len() {
                0
            } else {
                slot + 1
            };
            self.clear_slot(slot);
            slot
        };
        self.entries[slot] = Some((entry, loader));
        self.va_index.add(&entry, slot);
        self.valid += 1;
    }

    /// Invalidates everything. Returns the number of entries dropped.
    pub fn flush_all(&mut self) -> usize {
        let n = self.flush_where(|_| true);
        self.stats.full_flushes += 1;
        n
    }

    /// Invalidates all non-global entries tagged with `asid` (the
    /// `TLBIASID` operation Linux uses for `flush_tlb_mm`).
    pub fn flush_asid(&mut self, asid: Asid) -> usize {
        self.flush_where(|e| e.asid == Some(asid))
    }

    /// Invalidates every entry that covers `va`, regardless of ASID or
    /// global bit (the `TLBIMVAA` operation). This is what the paper's
    /// domain-fault handler uses to evict shared global entries that a
    /// non-zygote process stumbled on.
    pub fn flush_va_all_asids(&mut self, va: VirtAddr) -> usize {
        self.flush_covering(va, |_| true)
    }

    /// Invalidates the entries tagged `asid` whose mapping contains
    /// page `vpn` — a single-page `TLBIMVA` restricted to the ASID
    /// tag. Global entries survive; a caller that must invalidate a
    /// global mapping escalates to a global-class flush instead. O(1)
    /// through the VA-page→slot direct map.
    pub fn flush_page(&mut self, asid: Asid, vpn: u32) -> usize {
        let va = VirtAddr::new(vpn << sat_types::PAGE_SHIFT);
        self.flush_covering(va, |e| e.asid == Some(asid))
    }

    /// Invalidates the entries tagged `asid` overlapping the VPN range
    /// (back-to-back `TLBIMVA`s in hardware). Global entries survive.
    /// One pass over the slots, whatever the range width.
    pub fn flush_range(&mut self, asid: Asid, range: sat_types::VpnRange) -> usize {
        self.flush_where(|e| e.asid == Some(asid) && e.overlaps_vpns(&range))
    }

    /// Invalidates all non-global entries (used when ASIDs are
    /// recycled).
    pub fn flush_non_global(&mut self) -> usize {
        self.flush_where(|e| !e.is_global())
    }

    /// Invalidates every entry that satisfies `pred`, in one pass over
    /// the slots.
    fn flush_where(&mut self, pred: impl Fn(&TlbEntry) -> bool) -> usize {
        let mut n = 0;
        for (slot, s) in self.entries.iter_mut().enumerate() {
            if let Some((entry, _)) = s.take_if(|(e, _)| pred(e)) {
                self.va_index.remove(&entry, slot);
                n += 1;
            }
        }
        self.valid -= n;
        self.stats.entries_flushed += n as u64;
        n
    }

    /// Invalidates the entries covering `va` that satisfy `pred`.
    fn flush_covering(&mut self, va: VirtAddr, pred: impl Fn(&TlbEntry) -> bool) -> usize {
        // Collect first: clearing a slot mutates the chains the walk
        // is traversing.
        let mut candidates = std::mem::take(&mut self.scratch);
        candidates.clear();
        self.va_index.for_covering(va, |slot| candidates.push(slot));
        let mut n = 0u64;
        for &slot in &candidates {
            let (entry, _) = self.entries[slot].as_ref().expect("indexed slot is valid");
            // Candidates may be hash-collision neighbours; re-check
            // coverage before applying the flush predicate.
            if entry.covers(va) && pred(entry) {
                self.clear_slot(slot);
                n += 1;
            }
        }
        self.scratch = candidates;
        self.stats.entries_flushed += n;
        n as usize
    }

    /// Checks the VA map against the slot array, and the slot array
    /// against the hardware invariant [`MainTlb::insert`] exists to
    /// keep: every valid slot is registered exactly once in the VA map
    /// (in the bucket of its own size and base) and nowhere else; the
    /// occupancy counter equals a recount; no two valid entries with
    /// the same tag overlap. Returns a description of the first
    /// violation found. O(capacity²) — for tests and audits, not for
    /// the access path.
    pub fn verify(&self) -> Result<(), String> {
        let entry_at = |slot: usize| self.entries[slot].map(|(e, _)| e);
        self.va_index.verify(entry_at)?;
        let valid: Vec<(usize, TlbEntry)> = (0..self.entries.len())
            .filter_map(|s| entry_at(s).map(|e| (s, e)))
            .collect();
        if self.valid != valid.len() {
            return Err(format!(
                "the occupancy counter says {} valid, a recount {}",
                self.valid,
                valid.len()
            ));
        }
        for (i, (sa, a)) in valid.iter().enumerate() {
            for (sb, b) in &valid[i + 1..] {
                if a.asid == b.asid && (a.covers(b.va_base) || b.covers(a.va_base)) {
                    return Err(format!(
                        "slots {sa} and {sb} hold overlapping entries with tag {:?}: \
                         {:?} at {:?} and {:?} at {:?}",
                        a.asid, a.size, a.va_base, b.size, b.va_base
                    ));
                }
            }
        }
        Ok(())
    }

    /// Invalidates `slot`, unregistering it from the VA map.
    fn clear_slot(&mut self, slot: usize) {
        let (entry, _) = self.entries[slot].take().expect("cleared slot is valid");
        self.va_index.remove(&entry, slot);
        self.valid -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sat_types::{Domain, PageSize, Perms, Pfn};

    fn entry(va: u32, asid: Option<u8>) -> TlbEntry {
        TlbEntry {
            va_base: VirtAddr::new(va),
            size: PageSize::Small4K,
            asid: asid.map(Asid::new),
            pfn: Pfn::new(va >> 12),
            perms: Perms::RX,
            domain: Domain::USER,
        }
    }

    fn sized(va: u32, asid: Option<u8>, size: PageSize) -> TlbEntry {
        TlbEntry {
            size,
            ..entry(va, asid)
        }
    }

    #[test]
    fn hit_and_miss_update_stats() {
        let mut tlb = MainTlb::new(4);
        tlb.insert(entry(0x1000, Some(1)), Asid::new(1));
        assert!(matches!(
            tlb.lookup(VirtAddr::new(0x1ABC), Asid::new(1)),
            TlbLookup::Hit(_)
        ));
        assert_eq!(
            tlb.lookup(VirtAddr::new(0x2000), Asid::new(1)),
            TlbLookup::Miss
        );
        assert_eq!(tlb.stats().hits, 1);
        assert_eq!(tlb.stats().misses, 1);
    }

    #[test]
    fn global_entry_hits_across_asids_and_is_counted() {
        let mut tlb = MainTlb::new(4);
        tlb.insert(entry(0x5000, None), Asid::new(1));
        assert!(matches!(
            tlb.lookup(VirtAddr::new(0x5000), Asid::new(2)),
            TlbLookup::Hit(_)
        ));
        assert_eq!(tlb.stats().global_hits, 1);
        assert_eq!(tlb.stats().cross_asid_hits, 1);
        // Same-ASID global hit is not a cross-ASID hit.
        tlb.lookup(VirtAddr::new(0x5000), Asid::new(1));
        assert_eq!(tlb.stats().global_hits, 2);
        assert_eq!(tlb.stats().cross_asid_hits, 1);
    }

    #[test]
    fn insert_replaces_duplicate_tag() {
        let mut tlb = MainTlb::new(4);
        tlb.insert(entry(0x1000, Some(1)), Asid::new(1));
        let mut updated = entry(0x1000, Some(1));
        updated.perms = Perms::R;
        tlb.insert(updated, Asid::new(1));
        assert_eq!(tlb.occupancy(), 1);
        assert_eq!(
            tlb.probe(VirtAddr::new(0x1000), Asid::new(1))
                .unwrap()
                .perms,
            Perms::R
        );
    }

    #[test]
    fn distinct_asids_occupy_distinct_slots() {
        // The duplication the paper eliminates: each process loads its
        // own copy of the same library translation.
        let mut tlb = MainTlb::new(8);
        for a in 1..=4 {
            tlb.insert(entry(0x8000, Some(a)), Asid::new(a));
        }
        assert_eq!(tlb.occupancy(), 4);
        // With the global bit, one entry serves all four.
        let mut shared = MainTlb::new(8);
        for a in 1..=4 {
            shared.insert(entry(0x8000, None), Asid::new(a));
        }
        assert_eq!(shared.occupancy(), 1);
    }

    #[test]
    fn round_robin_eviction_when_full() {
        let mut tlb = MainTlb::new(2);
        tlb.insert(entry(0x1000, Some(1)), Asid::new(1));
        tlb.insert(entry(0x2000, Some(1)), Asid::new(1));
        tlb.insert(entry(0x3000, Some(1)), Asid::new(1));
        assert_eq!(tlb.occupancy(), 2);
        assert_eq!(tlb.stats().evictions, 1);
        // 0x1000 was the round-robin victim.
        assert!(tlb.probe(VirtAddr::new(0x1000), Asid::new(1)).is_none());
    }

    #[test]
    fn flush_asid_spares_global_and_other_asids() {
        let mut tlb = MainTlb::new(8);
        tlb.insert(entry(0x1000, Some(1)), Asid::new(1));
        tlb.insert(entry(0x2000, Some(2)), Asid::new(2));
        tlb.insert(entry(0x3000, None), Asid::new(1));
        assert_eq!(tlb.flush_asid(Asid::new(1)), 1);
        assert!(tlb.probe(VirtAddr::new(0x2000), Asid::new(2)).is_some());
        assert!(tlb.probe(VirtAddr::new(0x3000), Asid::new(9)).is_some());
    }

    #[test]
    fn flush_va_all_asids_evicts_global_entries() {
        // The domain-fault handler path: a non-zygote process touched
        // a VA covered by a global zygote entry.
        let mut tlb = MainTlb::new(8);
        tlb.insert(entry(0x5000, None), Asid::new(1));
        tlb.insert(entry(0x5000, Some(7)), Asid::new(7));
        tlb.insert(entry(0x6000, None), Asid::new(1));
        assert_eq!(tlb.flush_va_all_asids(VirtAddr::new(0x5FFF)), 2);
        assert!(tlb.probe(VirtAddr::new(0x6000), Asid::new(3)).is_some());
    }

    #[test]
    fn flush_all_reports_count() {
        let mut tlb = MainTlb::new(8);
        tlb.insert(entry(0x1000, Some(1)), Asid::new(1));
        tlb.insert(entry(0x2000, None), Asid::new(1));
        assert_eq!(tlb.flush_all(), 2);
        assert_eq!(tlb.occupancy(), 0);
        assert_eq!(tlb.stats().full_flushes, 1);
        assert_eq!(tlb.stats().entries_flushed, 2);
    }

    #[test]
    fn flush_non_global_spares_global() {
        let mut tlb = MainTlb::new(8);
        tlb.insert(entry(0x1000, Some(1)), Asid::new(1));
        tlb.insert(entry(0x2000, None), Asid::new(1));
        assert_eq!(tlb.flush_non_global(), 1);
        assert_eq!(tlb.global_occupancy(), 1);
    }

    #[test]
    fn flush_page_hits_only_the_asid_tagged_page() {
        let mut tlb = MainTlb::new(8);
        tlb.insert(entry(0x1000, Some(1)), Asid::new(1));
        tlb.insert(entry(0x1000, Some(2)), Asid::new(2));
        tlb.insert(entry(0x1000, None), Asid::new(1));
        tlb.insert(entry(0x2000, Some(1)), Asid::new(1));
        assert_eq!(tlb.flush_page(Asid::new(1), 0x1), 1);
        assert!(tlb.probe(VirtAddr::new(0x1000), Asid::new(2)).is_some());
        assert!(
            tlb.probe(VirtAddr::new(0x1000), Asid::new(9)).is_some(),
            "global survives"
        );
        assert!(tlb.probe(VirtAddr::new(0x2000), Asid::new(1)).is_some());
        assert_eq!(tlb.occupancy(), 3);
    }

    #[test]
    fn flush_range_spares_globals_and_neighbours() {
        let mut tlb = MainTlb::new(16);
        for vpn in 0x10..0x18u32 {
            tlb.insert(entry(vpn << 12, Some(3)), Asid::new(3));
        }
        tlb.insert(entry(0x12 << 12, None), Asid::new(3));
        tlb.insert(entry(0x13 << 12, Some(4)), Asid::new(4));
        // Flush [0x12, 0x16): four ASID-3 pages die, the global and
        // the ASID-4 entry in range survive, as do out-of-range pages.
        assert_eq!(
            tlb.flush_range(Asid::new(3), sat_types::VpnRange::new(0x12, 0x16)),
            4
        );
        assert!(tlb.probe(VirtAddr::new(0x10 << 12), Asid::new(3)).is_some());
        assert!(tlb.probe(VirtAddr::new(0x17 << 12), Asid::new(3)).is_some());
        assert!(
            tlb.probe(VirtAddr::new(0x12 << 12), Asid::new(9)).is_some(),
            "global survives"
        );
        assert!(tlb.probe(VirtAddr::new(0x13 << 12), Asid::new(4)).is_some());
        assert!(tlb.probe(VirtAddr::new(0x14 << 12), Asid::new(3)).is_none());
    }

    #[test]
    fn flush_range_removes_large_pages_overlapping_the_range() {
        let mut tlb = MainTlb::new(8);
        let large = TlbEntry {
            va_base: VirtAddr::new(0x0001_0000),
            size: PageSize::Large64K,
            asid: Some(Asid::new(5)),
            pfn: Pfn::new(0x540),
            perms: Perms::RX,
            domain: Domain::USER,
        };
        tlb.insert(large, Asid::new(5));
        // The 64KB entry spans vpns 0x10..0x20; a range touching its
        // last page removes it.
        assert_eq!(
            tlb.flush_range(Asid::new(5), sat_types::VpnRange::new(0x1F, 0x40)),
            1
        );
        assert_eq!(tlb.occupancy(), 0);
    }

    #[test]
    fn mixed_page_sizes_index_correctly() {
        // A 64KB entry and a 4KB entry under different tags: lookups
        // resolve through different per-size maps, and the by-address
        // flush still removes both.
        let mut tlb = MainTlb::new(8);
        let large = TlbEntry {
            va_base: VirtAddr::new(0x0001_0000),
            size: PageSize::Large64K,
            asid: None,
            pfn: Pfn::new(0x540),
            perms: Perms::RX,
            domain: Domain::ZYGOTE,
        };
        tlb.insert(large, Asid::new(1));
        tlb.insert(entry(0x0001_2000, Some(4)), Asid::new(4));
        assert!(tlb
            .probe(VirtAddr::new(0x0001_F000), Asid::new(9))
            .is_some());
        // The 4KB entry sits at a lower slot? No: the large entry was
        // inserted first, so slot 0 wins for ASID 4 at 0x12000.
        assert_eq!(
            tlb.probe(VirtAddr::new(0x0001_2000), Asid::new(4))
                .unwrap()
                .size,
            PageSize::Large64K
        );
        assert_eq!(tlb.flush_va_all_asids(VirtAddr::new(0x0001_2345)), 2);
        assert_eq!(tlb.occupancy(), 0);
    }

    #[test]
    fn occupancy_counter_tracks_all_paths() {
        let mut tlb = MainTlb::new(4);
        assert_eq!(tlb.occupancy(), 0);
        tlb.insert(entry(0x1000, Some(1)), Asid::new(1));
        tlb.insert(entry(0x2000, None), Asid::new(2));
        assert_eq!((tlb.occupancy(), tlb.global_occupancy()), (2, 1));
        tlb.insert(entry(0x1000, Some(1)), Asid::new(1)); // in-place dup
        assert_eq!(tlb.occupancy(), 2);
        tlb.flush_asid(Asid::new(1));
        assert_eq!((tlb.occupancy(), tlb.global_occupancy()), (1, 1));
        tlb.flush_all();
        assert_eq!((tlb.occupancy(), tlb.global_occupancy()), (0, 0));
    }

    #[test]
    fn small_insert_replaces_the_large_entry_covering_it() {
        for base in [0x0001_0000, 0x0001_3000] {
            // Aligned, then a 64KB entry whose recorded base is not.
            let mut tlb = MainTlb::new(8);
            tlb.insert(entry(0x0009_0000, Some(1)), Asid::new(1));
            tlb.insert(sized(base, Some(1), PageSize::Large64K), Asid::new(1));
            tlb.insert(sized(base, Some(2), PageSize::Large64K), Asid::new(2));
            tlb.insert(sized(base, None, PageSize::Large64K), Asid::new(1));
            // A 4KB page in the middle of the group, far from its base:
            // the same-tag 64KB entry goes, in place (slot 1).
            tlb.insert(entry(0x0001_8000, Some(1)), Asid::new(1));
            tlb.verify().unwrap();
            assert_eq!(tlb.occupancy(), 4);
            assert_eq!(tlb.entries[1].unwrap().0, entry(0x0001_8000, Some(1)));
            // The other tag's entry and the global one still serve the
            // rest of the group; for ASID 1 only the global one does.
            let probe = |asid: u8| tlb.probe(VirtAddr::new(0x0001_F000), Asid::new(asid));
            assert_eq!(probe(2).unwrap().asid, Some(Asid::new(2)));
            assert_eq!(probe(1).unwrap().asid, None);
        }
    }

    #[test]
    fn large_insert_clears_every_small_entry_inside_it() {
        for base in [0x0002_0000, 0x0002_5000] {
            for tag in [Some(1), None] {
                let mut tlb = MainTlb::new(16);
                tlb.insert(entry(0x0001_F000, tag), Asid::new(1)); // below
                for page in [0x0002_0000, 0x0002_7000, 0x0002_F000] {
                    tlb.insert(entry(page, tag), Asid::new(1));
                    tlb.insert(entry(page, Some(2)), Asid::new(2));
                }
                tlb.insert(entry(0x0003_0000, tag), Asid::new(1)); // above
                let other = if tag.is_some() { None } else { Some(1) };
                tlb.insert(entry(0x0002_7000, other), Asid::new(1));
                assert_eq!(tlb.occupancy(), 9);
                // None of the three small pages covers the large
                // entry's base when that base is 0x25000.
                tlb.insert(sized(base, tag, PageSize::Large64K), Asid::new(1));
                tlb.verify().unwrap();
                // Three same-tag pages inside → one slot (the first,
                // slot 1, replaced in place); neighbours, ASID 2 and
                // the other tag class untouched.
                assert_eq!(tlb.occupancy(), 7, "base {base:#x} tag {tag:?}");
                assert_eq!(tlb.entries[1].unwrap().0.size, PageSize::Large64K);
                assert_eq!(tlb.entries[3], None);
                assert_eq!(tlb.entries[5], None);
                for va in [0x0001_F000, 0x0003_0000] {
                    let hit = tlb.probe(VirtAddr::new(va), Asid::new(1)).unwrap();
                    assert_eq!(
                        (hit.size, hit.asid),
                        (PageSize::Small4K, tag.map(Asid::new))
                    );
                }
                for (slot, page) in [(2, 0x0002_0000), (4, 0x0002_7000), (6, 0x0002_F000)] {
                    assert_eq!(tlb.entries[slot].unwrap().0, entry(page, Some(2)));
                }
                assert_eq!(tlb.entries[8].unwrap().0, entry(0x0002_7000, other));
            }
        }
    }

    #[test]
    fn duplicate_scan_ignores_bucket_collisions() {
        // Two 4KB pages of one tag that share a direct-map bucket: the
        // second is a candidate when the first is re-inserted, and
        // must survive it.
        let candidates = |tlb: &MainTlb, va: u32| {
            let mut n = 0;
            tlb.va_index.for_covering(VirtAddr::new(va), |_| n += 1);
            n
        };
        let a = 0x0000_1000;
        let mut tlb = MainTlb::new(4);
        tlb.insert(entry(a, Some(1)), Asid::new(1));
        let b = (2..64u32)
            .map(|page| page << 12)
            .find(|&b| {
                let mut both = tlb.clone();
                both.insert(entry(b, Some(1)), Asid::new(1));
                candidates(&both, a) == 2
            })
            .expect("eight buckets collide within a few pages");
        tlb.insert(entry(b, Some(1)), Asid::new(1));
        let mut updated = entry(a, Some(1));
        updated.perms = Perms::R;
        tlb.insert(updated, Asid::new(1));
        tlb.verify().unwrap();
        assert_eq!(tlb.occupancy(), 2);
        assert_eq!(tlb.entries[0].unwrap().0, updated);
        assert_eq!(tlb.entries[1].unwrap().0, entry(b, Some(1)));
    }

    /// A TLB with some of everything, passing `verify`.
    fn populated() -> MainTlb {
        let mut tlb = MainTlb::new(8);
        tlb.insert(entry(0x1000, Some(1)), Asid::new(1));
        tlb.insert(entry(0x2000, Some(1)), Asid::new(1));
        tlb.insert(entry(0x3000, None), Asid::new(1));
        tlb.insert(
            sized(0x0004_0000, Some(2), PageSize::Large64K),
            Asid::new(2),
        );
        tlb.flush_page(Asid::new(1), 0x1);
        tlb.verify().unwrap();
        tlb
    }

    #[test]
    fn verify_catches_a_corrupted_link() {
        // A valid slot chained in the VA map under another page.
        let mut tlb = populated();
        let held = tlb.entries[1].unwrap().0;
        tlb.va_index.remove(&held, 1);
        tlb.va_index.add(&entry(0x7000, Some(1)), 1);
        assert!(tlb.verify().unwrap_err().contains("va index"));
        // An invalid slot still chained.
        let mut tlb = populated();
        tlb.entries[2] = None;
        assert!(tlb.verify().unwrap_err().contains("invalid but chained"));
    }

    #[test]
    fn verify_catches_a_drifted_counter() {
        let mut tlb = populated();
        tlb.valid += 1;
        assert!(tlb.verify().unwrap_err().contains("recount"));
    }

    #[test]
    fn verify_catches_a_planted_duplicate() {
        // A same-tag 4KB entry inside the resident 64KB one, fully
        // registered: only the overlap clause can object.
        let mut tlb = populated();
        let dup = entry(0x0004_5000, Some(2));
        let slot = tlb.entries.iter().position(Option::is_none).unwrap();
        tlb.entries[slot] = Some((dup, Asid::new(2)));
        tlb.va_index.add(&dup, slot);
        tlb.valid += 1;
        assert!(tlb.verify().unwrap_err().contains("overlapping"));
        // The same page under another tag is no duplicate.
        let mut tlb = populated();
        tlb.insert(entry(0x0004_5000, Some(3)), Asid::new(3));
        tlb.insert(entry(0x0004_5000, None), Asid::new(3));
        tlb.verify().unwrap();
    }

    #[test]
    #[should_panic(expected = "a TLB needs at least one slot")]
    fn zero_slots_is_refused_by_name() {
        MainTlb::new(0);
    }
}
