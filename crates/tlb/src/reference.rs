//! Linear-scan reference TLB models.
//!
//! These are the original, index-free implementations of
//! [`crate::MainTlb`] and [`crate::MicroTlb`]: every operation walks
//! the whole slot array, exactly as the documentation of the
//! architectural model reads. They are kept as the executable
//! specification that the index-accelerated implementations must
//! match bit-for-bit — the differential proptests in
//! `tests/differential.rs` drive both models with identical operation
//! sequences and assert identical lookup results, statistics, and
//! occupancy.
//!
//! Do not "optimise" this file; its value is being obviously correct.

use sat_types::{Asid, Domain, VirtAddr};

use crate::entry::TlbEntry;
use crate::main_tlb::{TlbLookup, TlbStats};

/// Linear-scan reference model of [`crate::MainTlb`].
#[derive(Clone)]
pub struct RefMainTlb {
    entries: Vec<Option<(TlbEntry, Asid)>>,
    victim: usize,
    stats: TlbStats,
}

impl Default for RefMainTlb {
    fn default() -> Self {
        RefMainTlb::new(crate::main_tlb::MAIN_TLB_ENTRIES)
    }
}

impl RefMainTlb {
    /// Creates a TLB with `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        RefMainTlb {
            entries: vec![None; capacity],
            victim: 0,
            stats: TlbStats::default(),
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

    /// Number of valid entries.
    pub fn occupancy(&self) -> usize {
        self.entries.iter().filter(|e| e.is_some()).count()
    }

    /// Counts valid global entries.
    pub fn global_occupancy(&self) -> usize {
        self.entries
            .iter()
            .flatten()
            .filter(|(e, _)| e.is_global())
            .count()
    }

    /// Looks up `va` under `asid`, updating statistics.
    pub fn lookup(&mut self, va: VirtAddr, asid: Asid) -> TlbLookup {
        for slot in self.entries.iter().flatten() {
            let (entry, loader) = slot;
            if entry.matches(va, asid) {
                self.stats.hits += 1;
                if entry.is_global() {
                    self.stats.global_hits += 1;
                    if *loader != asid && entry.domain != Domain::KERNEL {
                        self.stats.cross_asid_hits += 1;
                    }
                }
                return TlbLookup::Hit(*entry);
            }
        }
        self.stats.misses += 1;
        TlbLookup::Miss
    }

    /// Probes for a matching entry without updating statistics.
    pub fn probe(&self, va: VirtAddr, asid: Asid) -> Option<TlbEntry> {
        self.entries
            .iter()
            .flatten()
            .find(|(e, _)| e.matches(va, asid))
            .map(|(e, _)| *e)
    }

    /// Inserts an entry loaded by `loader` (first-match duplicate
    /// replacement, then lowest free slot, then round-robin).
    pub fn insert(&mut self, entry: TlbEntry, loader: Asid) {
        let tag_asid = entry.asid;
        let mut replaced = false;
        for slot in self.entries.iter_mut() {
            if slot.as_ref().is_some_and(|(e, _)| {
                e.asid == tag_asid && (e.covers(entry.va_base) || entry.covers(e.va_base))
            }) {
                if replaced {
                    *slot = None; // extra overlapping duplicate
                } else {
                    *slot = Some((entry, loader));
                    replaced = true;
                }
            }
        }
        if replaced {
            return;
        }
        if let Some(idx) = self.entries.iter().position(|s| s.is_none()) {
            self.entries[idx] = Some((entry, loader));
            return;
        }
        self.stats.evictions += 1;
        self.entries[self.victim] = Some((entry, loader));
        self.victim = (self.victim + 1) % self.entries.len();
    }

    /// Invalidates everything. Returns the number of entries dropped.
    pub fn flush_all(&mut self) -> usize {
        let n = self.occupancy();
        self.entries.iter_mut().for_each(|s| *s = None);
        self.stats.entries_flushed += n as u64;
        self.stats.full_flushes += 1;
        n
    }

    /// Invalidates all non-global entries tagged with `asid`.
    pub fn flush_asid(&mut self, asid: Asid) -> usize {
        self.flush_where(|e| e.asid == Some(asid))
    }

    /// Invalidates every entry that covers `va`.
    pub fn flush_va_all_asids(&mut self, va: VirtAddr) -> usize {
        self.flush_where(|e| e.covers(va))
    }

    /// Invalidates entries covering `va` tagged `asid`, plus global
    /// entries covering `va`.
    pub fn flush_va(&mut self, va: VirtAddr, asid: Asid) -> usize {
        self.flush_where(|e| e.covers(va) && (e.is_global() || e.asid == Some(asid)))
    }

    /// Invalidates the entries tagged `asid` whose mapping contains
    /// page `vpn` (globals survive).
    pub fn flush_page(&mut self, asid: Asid, vpn: u32) -> usize {
        let va = VirtAddr::new(vpn << sat_types::PAGE_SHIFT);
        self.flush_where(|e| e.covers(va) && e.asid == Some(asid))
    }

    /// Invalidates the entries tagged `asid` overlapping the VPN range
    /// (globals survive).
    pub fn flush_range(&mut self, asid: Asid, range: sat_types::VpnRange) -> usize {
        self.flush_where(|e| e.overlaps_vpns(&range) && e.asid == Some(asid))
    }

    /// Invalidates all non-global entries.
    pub fn flush_non_global(&mut self) -> usize {
        self.flush_where(|e| !e.is_global())
    }

    fn flush_where(&mut self, pred: impl Fn(&TlbEntry) -> bool) -> usize {
        let mut n = 0;
        for slot in self.entries.iter_mut() {
            if let Some((e, _)) = slot {
                if pred(e) {
                    *slot = None;
                    n += 1;
                }
            }
        }
        self.stats.entries_flushed += n as u64;
        n
    }
}

/// Linear-scan reference model of [`crate::MicroTlb`].
pub struct RefMicroTlb {
    entries: Vec<Option<TlbEntry>>,
    victim: usize,
    hits: u64,
    misses: u64,
}

impl Default for RefMicroTlb {
    fn default() -> Self {
        RefMicroTlb::new(crate::micro::MICRO_TLB_ENTRIES)
    }
}

impl RefMicroTlb {
    /// Creates a micro-TLB with `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        RefMicroTlb {
            entries: vec![None; capacity],
            victim: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Looks up `va` (no ASID tag).
    pub fn lookup(&mut self, va: VirtAddr) -> Option<TlbEntry> {
        for e in self.entries.iter().flatten() {
            if e.covers(va) {
                self.hits += 1;
                return Some(*e);
            }
        }
        self.misses += 1;
        None
    }

    /// Inserts an entry (lowest free slot, then round-robin).
    pub fn insert(&mut self, entry: TlbEntry) {
        if let Some(idx) = self.entries.iter().position(|s| s.is_none()) {
            self.entries[idx] = Some(entry);
            return;
        }
        self.entries[self.victim] = Some(entry);
        self.victim = (self.victim + 1) % self.entries.len();
    }

    /// Flushes everything.
    pub fn flush(&mut self) {
        self.entries.iter_mut().for_each(|s| *s = None);
    }

    /// Invalidates entries covering `va`.
    pub fn flush_va(&mut self, va: VirtAddr) {
        for s in self.entries.iter_mut() {
            if s.as_ref().is_some_and(|e| e.covers(va)) {
                *s = None;
            }
        }
    }

    /// Invalidates entries overlapping the VPN range.
    pub fn flush_range(&mut self, range: sat_types::VpnRange) {
        for s in self.entries.iter_mut() {
            if s.as_ref().is_some_and(|e| e.overlaps_vpns(&range)) {
                *s = None;
            }
        }
    }

    /// (hits, misses) counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Number of valid entries.
    pub fn occupancy(&self) -> usize {
        self.entries.iter().filter(|e| e.is_some()).count()
    }
}
