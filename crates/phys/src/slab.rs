//! A slab arena for fixed-shape table objects.
//!
//! Page-table pages churn hard under fork/exit workloads: a fleet run
//! creates and tears down thousands of processes, each allocating and
//! freeing a handful of PTPs. Backing them with a plain
//! `HashMap<Pfn, Ptp>` sends every insert and remove through the
//! global allocator and hashes a frame number on every table walk.
//! [`Slab`] keeps freed slots on a free list and recycles them in LIFO
//! order, so steady-state alloc/free of the slot itself is O(1) with no
//! allocator traffic — the `kmem_cache` idiom. What an item owns
//! beyond its slot (a 72-byte PTP owns one small allocation per
//! populated group of entries) is its own business, given back in
//! `reset`.
//!
//! Storage is a list of fixed-size chunks, so growth allocates one
//! chunk and never moves a live object: a single doubling `Vec` holds
//! the old and the new buffer together while it copies.
//!
//! The slab is deliberately dumb: it hands out dense `u32` slot ids
//! and never shrinks. Keying (e.g. by physical frame) is the caller's
//! job, which keeps this crate free of any page-table knowledge.

/// An object that can be stored in a [`Slab`].
///
/// `reset` returns a slot's contents to the freshly-constructed state
/// so the slab can recycle it. Implementations should clear only what
/// is dirty (e.g. only populated descriptor slots) rather than
/// rewriting the whole object.
pub trait SlabItem: Default {
    /// Restores `self` to its `Default` state in place.
    fn reset(&mut self);
}

/// Allocation/recycling counters for a [`Slab`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SlabStats {
    /// Slots handed out, total.
    pub allocs: u64,
    /// Slots returned to the free list.
    pub frees: u64,
    /// Allocations served by recycling a freed slot (no backing
    /// growth).
    pub recycled: u64,
}

/// Slots per chunk: large enough that chunk bookkeeping is noise,
/// small enough (4.5 KiB of PTPs) that a nearly empty last chunk is
/// too.
const CHUNK_SLOTS: usize = 64;

/// A grow-only arena of `T` with LIFO slot recycling.
pub struct Slab<T: SlabItem> {
    /// Slot `id` lives at `chunks[id / CHUNK_SLOTS][id % CHUNK_SLOTS]`.
    chunks: Vec<Box<[T; CHUNK_SLOTS]>>,
    /// Slots ever handed out; the rest of the last chunk is spare.
    len: usize,
    free: Vec<u32>,
    stats: SlabStats,
}

impl<T: SlabItem> Default for Slab<T> {
    fn default() -> Self {
        Slab::new()
    }
}

impl<T: SlabItem> Slab<T> {
    /// An empty slab.
    pub fn new() -> Slab<T> {
        Slab {
            chunks: Vec::new(),
            len: 0,
            free: Vec::new(),
            stats: SlabStats::default(),
        }
    }

    /// Allocates a slot holding a default-state `T`, recycling the
    /// most recently freed slot when one exists.
    pub fn alloc(&mut self) -> u32 {
        self.stats.allocs += 1;
        if let Some(id) = self.free.pop() {
            self.stats.recycled += 1;
            return id;
        }
        let id = u32::try_from(self.len).expect("slab exceeds u32 slots");
        if self.len == self.chunks.len() * CHUNK_SLOTS {
            // Built on the heap, whatever `T`'s size.
            let chunk: Box<[T]> = (0..CHUNK_SLOTS).map(|_| T::default()).collect();
            self.chunks.push(
                chunk
                    .try_into()
                    .unwrap_or_else(|_| unreachable!("collected exactly CHUNK_SLOTS items")),
            );
        }
        self.len += 1;
        id
    }

    /// Returns `id` to the free list, resetting its contents so the
    /// next [`Slab::alloc`] hands out a clean object.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `id` is already free.
    pub fn free(&mut self, id: u32) {
        debug_assert!(
            !self.free.contains(&id),
            "slab slot {id} double-freed (free list already holds it)"
        );
        self.get_mut(id).reset();
        self.free.push(id);
        self.stats.frees += 1;
    }

    /// Borrows the object in slot `id`.
    pub fn get(&self, id: u32) -> &T {
        let id = id as usize;
        assert!(id < self.len, "slab slot {id} was never handed out");
        &self.chunks[id / CHUNK_SLOTS][id % CHUNK_SLOTS]
    }

    /// Mutably borrows the object in slot `id`.
    pub fn get_mut(&mut self, id: u32) -> &mut T {
        let id = id as usize;
        assert!(id < self.len, "slab slot {id} was never handed out");
        &mut self.chunks[id / CHUNK_SLOTS][id % CHUNK_SLOTS]
    }

    /// Live (allocated, not freed) slots.
    pub fn live(&self) -> usize {
        self.len - self.free.len()
    }

    /// Slots ever handed out (the arena's high-water mark).
    pub fn capacity(&self) -> usize {
        self.len
    }

    /// Allocation counters.
    pub fn stats(&self) -> SlabStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Obj {
        val: u32,
    }

    impl SlabItem for Obj {
        fn reset(&mut self) {
            self.val = 0;
        }
    }

    #[test]
    fn alloc_free_recycles_lifo() {
        let mut s: Slab<Obj> = Slab::new();
        let a = s.alloc();
        let b = s.alloc();
        assert_ne!(a, b);
        assert_eq!(s.live(), 2);
        s.free(a);
        s.free(b);
        assert_eq!(s.live(), 0);
        // LIFO: b comes back first, then a — no backing growth.
        assert_eq!(s.alloc(), b);
        assert_eq!(s.alloc(), a);
        assert_eq!(s.capacity(), 2);
        assert_eq!(s.stats().recycled, 2);
    }

    #[test]
    fn freed_slot_is_reset() {
        let mut s: Slab<Obj> = Slab::new();
        let a = s.alloc();
        s.get_mut(a).val = 99;
        s.free(a);
        let b = s.alloc();
        assert_eq!(a, b);
        assert_eq!(s.get(b).val, 0, "recycled slot kept stale contents");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "double-freed")]
    fn double_free_panics_in_debug() {
        let mut s: Slab<Obj> = Slab::new();
        let a = s.alloc();
        s.free(a);
        s.free(a);
    }

    /// The id sequence, recycle order, counters and `capacity()` of
    /// the single-`Vec` slab this one replaced, replayed across several
    /// chunk boundaries.
    #[test]
    fn chunked_growth_keeps_the_dense_id_sequence() {
        let n = 3 * CHUNK_SLOTS as u32 + 5;
        let mut s: Slab<Obj> = Slab::new();
        for want in 0..n {
            assert_eq!(s.alloc(), want);
            s.get_mut(want).val = want + 1;
        }
        assert_eq!((s.capacity(), s.live()), (n as usize, n as usize));
        // Growth moved nothing: every object is where it was written.
        for id in 0..n {
            assert_eq!(s.get(id).val, id + 1);
        }
        // Free one slot either side of each chunk boundary and a few
        // in the middle, then take them back newest first.
        let freed = [0, 63, 64, 65, 100, 127, 128, 191, 192, n - 1];
        for id in freed {
            s.free(id);
        }
        assert_eq!(s.live(), n as usize - freed.len());
        for &id in freed.iter().rev() {
            assert_eq!(s.alloc(), id);
            assert_eq!(s.get(id).val, 0);
        }
        // The free list is drained: the next ids are fresh again.
        assert_eq!(s.alloc(), n);
        assert_eq!(s.alloc(), n + 1);
        assert_eq!(s.capacity(), n as usize + 2);
        assert_eq!(
            s.stats(),
            SlabStats {
                allocs: u64::from(n) + freed.len() as u64 + 2,
                frees: freed.len() as u64,
                recycled: freed.len() as u64,
            }
        );
    }

    #[test]
    #[should_panic(expected = "never handed out")]
    fn spare_slots_of_the_last_chunk_are_out_of_bounds() {
        let mut s: Slab<Obj> = Slab::new();
        s.alloc();
        s.get(1);
    }
}
