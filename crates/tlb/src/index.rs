//! Slot indexes that make the TLB hot paths sub-linear.
//!
//! The TLB models keep their architectural state — a flat slot array
//! with round-robin replacement — untouched, and layer pure
//! acceleration structures next to it:
//!
//! * [`VaIndex`]: per-page-size direct-mapped tables from a
//!   size-aligned VA base to the slots holding an entry for that page,
//!   so `lookup`/`probe` and the by-address flushes visit only a
//!   handful of candidate slots (at most one table probe per page
//!   size) instead of scanning every slot. The main TLB's `insert`
//!   finds the duplicates of a 4KB entry the same way: every entry
//!   overlapping a 4KB page covers its base (the argument is in
//!   [`crate::main_tlb`]'s module docs).
//! * [`TagIndex`]: a flat ASID-tag table chaining the slots that carry
//!   each tag, bounding `flush_asid`, `flush_range`,
//!   `flush_non_global`, and the duplicate scan of an insert larger
//!   than 4KB to that tag's slots.
//! * [`FreeSlots`]: a bitmask of invalid slots, so the "lowest free
//!   slot" fill rule is a trailing-zeros scan over a couple of words.
//!
//! Three properties keep the indexes off the profile:
//!
//! 1. **No steady-state allocation.** Same-bucket and same-tag slots
//!    are chained through fixed `next`/`prev` arrays instead of
//!    per-bucket vectors.
//! 2. **O(1) full clear.** The simulated micro-TLBs are flushed on
//!    *every* context switch, so `clear` must cost nothing: it bumps
//!    an epoch instead of touching the tables, and readers ignore
//!    buckets stamped with an older epoch.
//! 3. **No general-purpose hash map.** The page tables are small
//!    fixed-size direct-mapped arrays (a TLB holds at most `capacity`
//!    entries, so collisions are rare and merely lengthen a chain);
//!    a probe is one multiply and one L1 load.
//!
//! Because distinct page keys can share a bucket, [`VaIndex`] visits
//! *candidate* slots: callers must confirm coverage against the entry
//! itself (`TlbEntry::covers`), exactly as the linear scan did.
//!
//! Neither structure influences *which* entry wins: callers take the
//! minimum slot number among candidates, which is exactly the entry a
//! linear first-match scan would have returned, so hit/miss/eviction
//! behaviour and statistics are bit-identical to the linear reference
//! model (`crate::reference`, enforced by the differential proptests).

use sat_types::{Asid, PageSize, VirtAddr};

use crate::entry::TlbEntry;

/// The four architectural page sizes, in probe order.
const SIZES: [PageSize; 4] = [
    PageSize::Small4K,
    PageSize::Large64K,
    PageSize::Section1M,
    PageSize::Super16M,
];

fn size_idx(size: PageSize) -> usize {
    match size {
        PageSize::Small4K => 0,
        PageSize::Large64K => 1,
        PageSize::Section1M => 2,
        PageSize::Super16M => 3,
    }
}

fn key(va: VirtAddr, size: PageSize) -> u32 {
    va.raw() & !(size.bytes() - 1)
}

const NIL: usize = usize::MAX;

/// 32-bit NIL used inside packed buckets.
const NIL32: u32 = u32::MAX;

/// The chain links of a slot index, as its `verify` walks them.
struct Chains<'a> {
    /// `"va index"` or `"tag index"`, for the messages.
    index: &'static str,
    next: &'a [u32],
    prev: &'a [u32],
    /// Slots met so far, across every chain of the index.
    chained: Vec<bool>,
}

impl<'a> Chains<'a> {
    fn new(index: &'static str, next: &'a [u32], prev: &'a [u32]) -> Self {
        Chains {
            index,
            next,
            prev,
            chained: vec![false; next.len()],
        }
    }

    /// Walks the chain hanging from `head`: every slot on it is in
    /// bounds, on no chain walked before, linked back to its
    /// predecessor, and accepted by `belongs` (whether this is the
    /// chain the slot's entry should be on). Returns the chain length.
    fn walk(
        &mut self,
        head: u32,
        mut belongs: impl FnMut(usize) -> Result<(), String>,
    ) -> Result<usize, String> {
        let index = self.index;
        let (mut back, mut at, mut len) = (NIL32, head, 0);
        while at != NIL32 {
            let slot = at as usize;
            if slot >= self.chained.len() {
                return Err(format!("{index}: a chain reaches slot {slot}"));
            }
            if std::mem::replace(&mut self.chained[slot], true) {
                return Err(format!("{index}: slot {slot} is chained twice"));
            }
            belongs(slot).map_err(|why| format!("{index}: slot {slot} {why}"))?;
            if self.prev[slot] != back {
                return Err(format!("{index}: slot {slot} has a wrong back link"));
            }
            len += 1;
            (back, at) = (at, self.next[slot]);
        }
        Ok(len)
    }

    /// After every chain was walked: no slot that `valid` holds an
    /// entry for was left out.
    fn cover(&self, valid: impl Fn(usize) -> bool) -> Result<(), String> {
        match (0..self.chained.len()).find(|&s| valid(s) && !self.chained[s]) {
            Some(slot) => Err(format!("{}: valid slot {slot} is not chained", self.index)),
            None => Ok(()),
        }
    }
}

/// A direct-mapped, epoch-validated bucket table. Each bucket packs
/// the epoch it was last written in (high 32 bits) and a chain head
/// slot (low 32 bits); buckets from older epochs read as empty.
#[derive(Clone)]
struct DirectMap {
    buckets: Vec<u64>,
    /// Right-shift applied to the 64-bit product to select a bucket
    /// (multiply-shift hashing with the high bits).
    shift: u32,
}

impl DirectMap {
    fn new(buckets: usize) -> Self {
        let len = buckets.next_power_of_two();
        DirectMap {
            buckets: vec![NIL32 as u64; len],
            shift: 64 - len.trailing_zeros(),
        }
    }

    #[inline]
    fn idx(&self, key: u32) -> usize {
        // Fibonacci hashing: the odd multiplier spreads page-aligned
        // keys over the high bits.
        ((key as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// Chain head for `key` at `epoch`, or `NIL`.
    #[inline]
    fn head(&self, key: u32, epoch: u32) -> usize {
        let b = self.buckets[self.idx(key)];
        if (b >> 32) as u32 == epoch {
            let head = b as u32;
            if head == NIL32 {
                NIL
            } else {
                head as usize
            }
        } else {
            NIL
        }
    }

    #[inline]
    fn set_head(&mut self, key: u32, epoch: u32, head: usize) {
        let packed = if head == NIL { NIL32 } else { head as u32 };
        let idx = self.idx(key);
        self.buckets[idx] = ((epoch as u64) << 32) | packed as u64;
    }

    /// Forgets everything, for epoch-counter wraparound.
    fn reset(&mut self) {
        self.buckets.fill(NIL32 as u64);
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
    maps: [DirectMap; 4],
    /// Live registrations per size class, to skip probing sizes with
    /// no entries at all.
    counts: [usize; 4],
    /// Current epoch; buckets stamped with an older value are stale.
    epoch: u32,
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
                DirectMap::new(sparse),
            ],
            counts: [0; 4],
            epoch: 0,
            next: vec![NIL32; capacity],
            prev: vec![NIL32; capacity],
        }
    }

    /// Registers `slot` as holding `entry`.
    pub fn add(&mut self, entry: &TlbEntry, slot: usize) {
        let i = size_idx(entry.size);
        let k = key(entry.va_base, entry.size);
        let head = self.maps[i].head(k, self.epoch);
        self.prev[slot] = NIL32;
        self.next[slot] = if head == NIL { NIL32 } else { head as u32 };
        if head != NIL {
            self.prev[head] = slot as u32;
        }
        self.maps[i].set_head(k, self.epoch, slot);
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
            self.maps[i].set_head(k, self.epoch, head);
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
            let mut slot = self.maps[i].head(key(va, *size), self.epoch);
            while slot != NIL {
                visit(slot);
                let n = self.next[slot];
                slot = if n == NIL32 { NIL } else { n as usize };
            }
        }
    }

    /// Drops every registration in O(1): readers ignore buckets from
    /// older epochs. Cheap enough to call on every simulated context
    /// switch.
    pub fn clear(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wraparound: stale buckets from the previous epoch 0
            // would read as live again.
            for map in &mut self.maps {
                map.reset();
            }
        }
        self.counts = [0; 4];
    }

    /// Checks the index against the slot array it accelerates
    /// (`entry_at(slot)` = the entry a valid slot holds): every valid
    /// slot is chained exactly once, in the bucket of its own
    /// `(size, base)`, with consistent back links; no invalid slot is
    /// chained; the per-size counts match. Returns the first violation.
    pub fn verify(&self, entry_at: impl Fn(usize) -> Option<TlbEntry>) -> Result<(), String> {
        let mut chains = Chains::new("va index", &self.next, &self.prev);
        let mut counts = [0usize; 4];
        for (i, map) in self.maps.iter().enumerate() {
            for (b, &bucket) in map.buckets.iter().enumerate() {
                if (bucket >> 32) as u32 != self.epoch {
                    continue;
                }
                counts[i] += chains.walk(bucket as u32, |slot| match entry_at(slot) {
                    None => Err("is invalid but chained".into()),
                    Some(e) if size_idx(e.size) != i || map.idx(key(e.va_base, e.size)) != b => {
                        Err(format!(
                            "({:?} at {:?}) is chained in bucket {b} of size class {i}",
                            e.size, e.va_base
                        ))
                    }
                    Some(_) => Ok(()),
                })?;
            }
        }
        chains.cover(|slot| entry_at(slot).is_some())?;
        if counts != self.counts {
            return Err(format!(
                "va index: per-size counts {:?}, chains hold {counts:?}",
                self.counts
            ));
        }
        Ok(())
    }
}

/// Map from entry tag (`asid` field, `None` = global) to the slots
/// carrying that tag, chained through fixed arrays like [`VaIndex`].
///
/// The tag space is tiny (256 ASIDs plus global), so the heads live in
/// a flat array — no hashing, no allocation on any operation, and the
/// same epoch trick makes `clear` O(1). Unlike [`VaIndex`], a tag
/// chain has no false candidates.
#[derive(Clone)]
pub struct TagIndex {
    /// Chain head per tag, packed like [`DirectMap`] buckets
    /// (epoch high, head slot low); index 0–255 are the ASIDs, 256 is
    /// global.
    heads: Vec<u64>,
    epoch: u32,
    /// Chain links, u32 like [`VaIndex`]'s.
    next: Vec<u32>,
    prev: Vec<u32>,
}

const GLOBAL_TAG: usize = 256;

fn tag_of(asid: Option<Asid>) -> usize {
    asid.map_or(GLOBAL_TAG, |a| a.0 as usize)
}

impl TagIndex {
    /// An empty index for a TLB with `capacity` slots.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity < NIL32 as usize);
        TagIndex {
            heads: vec![NIL32 as u64; GLOBAL_TAG + 1],
            epoch: 0,
            next: vec![NIL32; capacity],
            prev: vec![NIL32; capacity],
        }
    }

    fn head(&self, tag: usize) -> usize {
        let b = self.heads[tag];
        let head = b as u32;
        if (b >> 32) as u32 == self.epoch && head != NIL32 {
            head as usize
        } else {
            NIL
        }
    }

    fn set_head(&mut self, tag: usize, head: usize) {
        let packed = if head == NIL { NIL32 } else { head as u32 };
        self.heads[tag] = ((self.epoch as u64) << 32) | packed as u64;
    }

    /// Registers `slot` as carrying tag `asid`.
    pub fn add(&mut self, asid: Option<Asid>, slot: usize) {
        let tag = tag_of(asid);
        let head = self.head(tag);
        self.prev[slot] = NIL32;
        self.next[slot] = if head == NIL { NIL32 } else { head as u32 };
        if head != NIL {
            self.prev[head] = slot as u32;
        }
        self.set_head(tag, slot);
    }

    /// Unregisters `slot` (which carried tag `asid`).
    pub fn remove(&mut self, asid: Option<Asid>, slot: usize) {
        let (next, prev) = (self.next[slot], self.prev[slot]);
        if next != NIL32 {
            self.prev[next as usize] = prev;
        }
        if prev != NIL32 {
            self.next[prev as usize] = next;
        } else {
            let head = if next == NIL32 { NIL } else { next as usize };
            self.set_head(tag_of(asid), head);
        }
        self.next[slot] = NIL32;
        self.prev[slot] = NIL32;
    }

    /// Drops tag `asid`'s whole chain in one head write. The caller
    /// owns resetting each chained slot's links ([`TagIndex::detach`])
    /// — cheaper than a per-slot [`TagIndex::remove`], which would
    /// re-stitch a chain that is being discarded anyway.
    pub fn drop_tag(&mut self, asid: Option<Asid>) {
        self.set_head(tag_of(asid), NIL);
    }

    /// Resets `slot`'s links after its chain was dropped wholesale via
    /// [`TagIndex::drop_tag`]. Write-only, no unlink reads.
    pub fn detach(&mut self, slot: usize) {
        self.next[slot] = NIL32;
        self.prev[slot] = NIL32;
    }

    /// Calls `visit` with every slot carrying tag `asid`, in no
    /// particular order. The index must not be mutated during the
    /// walk.
    pub fn for_tag(&self, asid: Option<Asid>, mut visit: impl FnMut(usize)) {
        let mut slot = self.head(tag_of(asid));
        while slot != NIL {
            visit(slot);
            let n = self.next[slot];
            slot = if n == NIL32 { NIL } else { n as usize };
        }
    }

    /// Calls `visit` with every slot carrying a non-global tag. 256
    /// head probes bound the cost regardless of occupancy.
    pub fn for_non_global(&self, mut visit: impl FnMut(usize)) {
        for tag in 0..GLOBAL_TAG {
            let mut slot = self.head(tag);
            while slot != NIL {
                visit(slot);
                let n = self.next[slot];
                slot = if n == NIL32 { NIL } else { n as usize };
            }
        }
    }

    /// Drops every registration in O(1) via the epoch.
    pub fn clear(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wraparound: buckets stamped in the previous epoch-0 era
            // would read as live again.
            self.heads.fill(NIL32 as u64);
        }
    }

    /// Checks the index against the slot array (`tag_at(slot)` = the
    /// `asid` field of the entry a valid slot holds): every valid slot
    /// is chained exactly once, under its own tag, with consistent
    /// back links, and no invalid slot is chained. Returns the first
    /// violation.
    pub fn verify(&self, tag_at: impl Fn(usize) -> Option<Option<Asid>>) -> Result<(), String> {
        let mut chains = Chains::new("tag index", &self.next, &self.prev);
        for tag in 0..=GLOBAL_TAG {
            let head = self.head(tag);
            let head = if head == NIL { NIL32 } else { head as u32 };
            chains.walk(head, |slot| match tag_at(slot) {
                None => Err("is invalid but chained".into()),
                Some(asid) if tag_of(asid) != tag => {
                    Err(format!("(tag {asid:?}) is chained under tag {tag}"))
                }
                Some(_) => Ok(()),
            })?;
        }
        chains.cover(|slot| tag_at(slot).is_some())
    }
}

/// The set of invalid slots as a bitmask, so that the architectural
/// "fill the lowest invalid slot first" rule is a trailing-zeros scan
/// and a full flush is a refill — no allocation on either path.
#[derive(Clone)]
pub struct FreeSlots {
    words: Vec<u64>,
    capacity: usize,
}

impl FreeSlots {
    /// All of `0..capacity` free.
    pub fn all(capacity: usize) -> FreeSlots {
        let mut slots = FreeSlots {
            words: vec![0; capacity.div_ceil(64)],
            capacity,
        };
        slots.fill();
        slots
    }

    /// Resets to all free.
    pub fn fill(&mut self) {
        self.words.fill(!0);
        let tail = self.capacity % 64;
        if tail != 0 {
            *self.words.last_mut().expect("capacity > 0") = (1u64 << tail) - 1;
        }
    }

    /// Marks `slot` free.
    pub fn release(&mut self, slot: usize) {
        self.words[slot / 64] |= 1u64 << (slot % 64);
    }

    /// Whether `slot` is marked free.
    pub fn is_free(&self, slot: usize) -> bool {
        self.words[slot / 64] & (1u64 << (slot % 64)) != 0
    }

    /// Claims the lowest free slot, if any.
    pub fn claim_lowest(&mut self) -> Option<usize> {
        for (i, word) in self.words.iter_mut().enumerate() {
            if *word != 0 {
                let bit = word.trailing_zeros() as usize;
                *word &= *word - 1; // clear lowest set bit
                return Some(i * 64 + bit);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sat_types::{Domain, Perms, Pfn};

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
    fn clear_is_an_epoch_bump_that_hides_old_entries() {
        let mut index = VaIndex::new(8);
        let e = entry(0x1000, PageSize::Small4K);
        let entries = vec![e; 8];
        index.add(&e, 2);
        index.clear();
        assert_eq!(covering(&index, &entries, 0x1000), Vec::<usize>::new());
        // Re-adding the same page after a clear resurrects the stale
        // bucket rather than chaining onto it.
        index.add(&e, 4);
        assert_eq!(covering(&index, &entries, 0x1000), vec![4]);
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

    #[test]
    fn tag_chains_track_slots_and_clear_in_o1() {
        let mut tags = TagIndex::new(8);
        tags.add(Some(Asid::new(5)), 1);
        tags.add(Some(Asid::new(5)), 3);
        tags.add(None, 2);
        let mut seen = Vec::new();
        tags.for_tag(Some(Asid::new(5)), |s| seen.push(s));
        seen.sort_unstable();
        assert_eq!(seen, vec![1, 3]);
        seen.clear();
        tags.for_non_global(|s| seen.push(s));
        seen.sort_unstable();
        assert_eq!(seen, vec![1, 3]);
        tags.remove(Some(Asid::new(5)), 3);
        seen.clear();
        tags.for_tag(Some(Asid::new(5)), |s| seen.push(s));
        assert_eq!(seen, vec![1]);
        tags.clear();
        seen.clear();
        tags.for_tag(Some(Asid::new(5)), |s| seen.push(s));
        tags.for_tag(None, |s| seen.push(s));
        assert_eq!(seen, Vec::<usize>::new());
    }

    #[test]
    fn free_slots_fill_lowest_first() {
        let mut free = FreeSlots::all(130); // exercise the multi-word tail
        assert_eq!(free.claim_lowest(), Some(0));
        assert_eq!(free.claim_lowest(), Some(1));
        free.release(0);
        assert_eq!(free.claim_lowest(), Some(0));
        for expected in 2..130 {
            assert_eq!(free.claim_lowest(), Some(expected));
        }
        assert_eq!(free.claim_lowest(), None);
        free.fill();
        assert_eq!(free.claim_lowest(), Some(0));
    }
}
