//! The VA index that makes main-TLB lookups sub-linear.
//!
//! The main TLB keeps its architectural state — a flat slot array
//! with round-robin replacement — untouched, and keeps one pure
//! acceleration structure next to it: [`VaIndex`], per-page-size
//! direct-mapped tables from a size-aligned VA base to the slots
//! holding an entry for that page. `lookup`/`probe` and the
//! by-address flushes visit only a handful of candidate slots (at most
//! one table probe per page size) instead of scanning every slot.
//! `insert` finds the duplicates of a 4KB entry the same way: every
//! entry overlapping a 4KB page covers its base (the argument is in
//! [`crate::main_tlb`]'s module docs); the fill that follows a lookup
//! miss (`insert_after_miss`) skips even that probe. Everything else —
//! the tag flushes, the full flush, the duplicate check of a larger
//! insert, the fill slot — is one pass over the slots. The micro-TLBs
//! need no index: they match through packed lanes under a live-slot
//! mask ([`crate::micro`]).
//!
//! Two properties keep the index off the profile:
//!
//! 1. **No steady-state allocation.** Same-bucket slots are chained
//!    through fixed `next`/`prev` arrays instead of per-bucket
//!    vectors.
//! 2. **No general-purpose hash map.** The page tables are small
//!    fixed-size direct-mapped arrays (a TLB holds at most `capacity`
//!    entries, so collisions are rare and merely lengthen a chain);
//!    a probe is one multiply and one L1 load.
//!
//! Because distinct page keys can share a bucket, [`VaIndex`] visits
//! *candidate* slots: callers must confirm coverage against the entry
//! itself (`TlbEntry::covers`), exactly as the linear scan did.
//!
//! The index does not influence *which* entry wins: callers take the
//! minimum slot number among candidates, which is exactly the entry a
//! linear first-match scan would have returned, so hit/miss/eviction
//! behaviour and statistics are bit-identical to the linear reference
//! model (`crate::reference`, enforced by the differential proptests).

use sat_types::{PageSize, VirtAddr};

use crate::entry::TlbEntry;

/// The page sizes, in probe order.
const SIZES: [PageSize; 3] = [PageSize::Small4K, PageSize::Large64K, PageSize::Section1M];

fn size_idx(size: PageSize) -> usize {
    match size {
        PageSize::Small4K => 0,
        PageSize::Large64K => 1,
        PageSize::Section1M => 2,
    }
}

fn key(va: VirtAddr, size: PageSize) -> u32 {
    va.raw() & !(size.bytes() - 1)
}

const NIL: usize = usize::MAX;

/// 32-bit NIL used inside buckets and chain links.
const NIL32: u32 = u32::MAX;

/// A direct-mapped bucket table. Each bucket holds a chain head slot,
/// or `NIL32`.
#[derive(Clone)]
struct DirectMap {
    buckets: Vec<u32>,
    /// Right-shift applied to the 64-bit product to select a bucket
    /// (multiply-shift hashing with the high bits).
    shift: u32,
}

impl DirectMap {
    fn new(buckets: usize) -> Self {
        let len = buckets.next_power_of_two();
        DirectMap {
            buckets: vec![NIL32; len],
            shift: 64 - len.trailing_zeros(),
        }
    }

    #[inline]
    fn idx(&self, key: u32) -> usize {
        // Fibonacci hashing: the odd multiplier spreads page-aligned
        // keys over the high bits.
        ((key as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// Chain head for `key`, or `NIL`.
    #[inline]
    fn head(&self, key: u32) -> usize {
        match self.buckets[self.idx(key)] {
            NIL32 => NIL,
            head => head as usize,
        }
    }

    #[inline]
    fn set_head(&mut self, key: u32, head: usize) {
        let idx = self.idx(key);
        self.buckets[idx] = if head == NIL { NIL32 } else { head as u32 };
    }
}

/// Per-page-size table from size-aligned VA base to the slots whose
/// entry *may* map that page (hash collisions add false candidates;
/// callers filter with [`TlbEntry::covers`]).
///
/// Each bucket stores only the *head* slot of a chain; slots hashing
/// to the same bucket are linked through the shared `next`/`prev`
/// arrays (a slot is in at most one chain, since it holds at most one
/// entry). Add and remove are O(1); a walk is O(chain length), a
/// handful at most.
#[derive(Clone)]
pub struct VaIndex {
    maps: [DirectMap; SIZES.len()],
    /// Live registrations per size class, to skip probing sizes with
    /// no entries at all.
    counts: [usize; SIZES.len()],
    /// Chain links, u32 to halve the footprint the flush paths drag
    /// through the cache (a TLB never has 4 billion slots).
    next: Vec<u32>,
    prev: Vec<u32>,
}

impl VaIndex {
    /// An empty index for a TLB with `capacity` slots.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity < NIL32 as usize);
        // 2x oversizing keeps 4K chains short without leaving L1. The
        // larger page sizes get small tables: 4K pages dominate every
        // simulated workload (the bigger sizes map a handful of kernel
        // sections), and a collision there only lengthens a chain the
        // covers-filter already handles.
        let buckets = (2 * capacity).max(8);
        let sparse = (capacity / 4).max(8);
        VaIndex {
            maps: [
                DirectMap::new(buckets),
                DirectMap::new(sparse),
                DirectMap::new(sparse),
            ],
            counts: [0; SIZES.len()],
            next: vec![NIL32; capacity],
            prev: vec![NIL32; capacity],
        }
    }

    /// Registers `slot` as holding `entry`.
    pub fn add(&mut self, entry: &TlbEntry, slot: usize) {
        let i = size_idx(entry.size);
        let k = key(entry.va_base, entry.size);
        let head = self.maps[i].head(k);
        self.prev[slot] = NIL32;
        self.next[slot] = if head == NIL { NIL32 } else { head as u32 };
        if head != NIL {
            self.prev[head] = slot as u32;
        }
        self.maps[i].set_head(k, slot);
        self.counts[i] += 1;
    }

    /// Unregisters `slot` (which held `entry`).
    pub fn remove(&mut self, entry: &TlbEntry, slot: usize) {
        let i = size_idx(entry.size);
        let (next, prev) = (self.next[slot], self.prev[slot]);
        if next != NIL32 {
            self.prev[next as usize] = prev;
        }
        if prev != NIL32 {
            self.next[prev as usize] = next;
        } else {
            // `slot` was the chain head.
            let k = key(entry.va_base, entry.size);
            let head = if next == NIL32 { NIL } else { next as usize };
            self.maps[i].set_head(k, head);
        }
        self.next[slot] = NIL32;
        self.prev[slot] = NIL32;
        self.counts[i] -= 1;
    }

    /// Calls `visit` with every *candidate* slot for `va` — every slot
    /// whose entry covers `va`, plus possibly a few hash-collision
    /// neighbours — in no particular order. Callers must confirm
    /// coverage against the entry and, for the linear-scan winner,
    /// take the minimum slot number. The index must not be mutated
    /// during the walk (the borrow checker enforces this).
    pub fn for_covering(&self, va: VirtAddr, mut visit: impl FnMut(usize)) {
        for (i, size) in SIZES.iter().enumerate() {
            if self.counts[i] == 0 {
                continue;
            }
            let mut slot = self.maps[i].head(key(va, *size));
            while slot != NIL {
                visit(slot);
                let n = self.next[slot];
                slot = if n == NIL32 { NIL } else { n as usize };
            }
        }
    }

    /// Checks the index against the slot array it accelerates
    /// (`entry_at(slot)` = the entry a valid slot holds): every valid
    /// slot is chained exactly once, in the bucket of its own
    /// `(size, base)`, with consistent back links; no invalid slot is
    /// chained; the per-size counts match. Returns the first violation.
    pub fn verify(&self, entry_at: impl Fn(usize) -> Option<TlbEntry>) -> Result<(), String> {
        let mut chained = vec![false; self.next.len()];
        let mut counts = [0usize; SIZES.len()];
        for (i, map) in self.maps.iter().enumerate() {
            for (b, &head) in map.buckets.iter().enumerate() {
                let (mut back, mut at) = (NIL32, head);
                while at != NIL32 {
                    let slot = at as usize;
                    if slot >= chained.len() {
                        return Err(format!("va index: a chain reaches slot {slot}"));
                    }
                    if std::mem::replace(&mut chained[slot], true) {
                        return Err(format!("va index: slot {slot} is chained twice"));
                    }
                    let Some(e) = entry_at(slot) else {
                        return Err(format!("va index: slot {slot} is invalid but chained"));
                    };
                    if size_idx(e.size) != i || map.idx(key(e.va_base, e.size)) != b {
                        return Err(format!(
                            "va index: slot {slot} ({:?} at {:?}) is chained in bucket {b} \
                             of size class {i}",
                            e.size, e.va_base
                        ));
                    }
                    if self.prev[slot] != back {
                        return Err(format!("va index: slot {slot} has a wrong back link"));
                    }
                    counts[i] += 1;
                    (back, at) = (at, self.next[slot]);
                }
            }
        }
        if let Some(slot) = (0..chained.len()).find(|&s| entry_at(s).is_some() && !chained[s]) {
            return Err(format!("va index: valid slot {slot} is not chained"));
        }
        if counts != self.counts {
            return Err(format!(
                "va index: per-size counts {:?}, chains hold {counts:?}",
                self.counts
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sat_types::{Asid, Domain, Perms, Pfn};

    fn entry(va: u32, size: PageSize) -> TlbEntry {
        TlbEntry {
            va_base: VirtAddr::new(va),
            size,
            asid: Some(Asid::new(1)),
            pfn: Pfn::new(va >> 12),
            perms: Perms::RX,
            domain: Domain::USER,
        }
    }

    /// Candidates that actually cover `va`, as callers filter them.
    fn covering(index: &VaIndex, entries: &[TlbEntry], va: u32) -> Vec<usize> {
        let mut out = Vec::new();
        index.for_covering(VirtAddr::new(va), |s| {
            if entries[s].covers(VirtAddr::new(va)) {
                out.push(s);
            }
        });
        out.sort_unstable();
        out
    }

    #[test]
    fn chains_track_same_page_slots() {
        let mut index = VaIndex::new(8);
        let e = entry(0x1000, PageSize::Small4K);
        let entries = vec![e; 8];
        index.add(&e, 3);
        index.add(&e, 5);
        index.add(&e, 1);
        assert_eq!(covering(&index, &entries, 0x1FFF), vec![1, 3, 5]);
        // Remove the middle and head of the chain.
        index.remove(&e, 3);
        assert_eq!(covering(&index, &entries, 0x1000), vec![1, 5]);
        index.remove(&e, 1);
        assert_eq!(covering(&index, &entries, 0x1000), vec![5]);
        index.remove(&e, 5);
        assert_eq!(covering(&index, &entries, 0x1000), Vec::<usize>::new());
    }

    #[test]
    fn sizes_probe_independently() {
        let mut index = VaIndex::new(8);
        let small = entry(0x0001_2000, PageSize::Small4K);
        let large = entry(0x0001_0000, PageSize::Large64K);
        let entries = vec![small, large];
        index.add(&small, 0);
        index.add(&large, 1);
        // 0x12345 lies in the 4K page at 0x12000 and the 64K page at
        // 0x10000.
        assert_eq!(covering(&index, &entries, 0x0001_2345), vec![0, 1]);
        // 0x19999 lies only in the 64K page.
        assert_eq!(covering(&index, &entries, 0x0001_9999), vec![1]);
    }

    #[test]
    fn colliding_keys_share_a_chain_but_filter_out() {
        // Two distinct 4K pages that may or may not collide in the
        // 16-bucket table: the filter in `covering` must keep results
        // exact either way.
        let mut index = VaIndex::new(8);
        let a = entry(0x0000_1000, PageSize::Small4K);
        let b = entry(0x7FFF_E000, PageSize::Small4K);
        let entries = vec![a, b];
        index.add(&a, 0);
        index.add(&b, 1);
        assert_eq!(covering(&index, &entries, 0x0000_1FFF), vec![0]);
        assert_eq!(covering(&index, &entries, 0x7FFF_E000), vec![1]);
        index.remove(&a, 0);
        assert_eq!(covering(&index, &entries, 0x0000_1000), Vec::<usize>::new());
        assert_eq!(covering(&index, &entries, 0x7FFF_E000), vec![1]);
    }
}
