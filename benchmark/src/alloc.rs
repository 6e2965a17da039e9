//! A counting global allocator: live bytes, their peak, and the
//! allocation volume of the process, kept by the benchmark itself so
//! `peak_heap_mib` repeats exactly where `VmHWM` only nearly does.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

/// Running totals. Every field is a statistic that publishes no other
/// data, so `Relaxed` is enough.
pub struct Counter {
    live: AtomicUsize,
    peak: AtomicUsize,
    allocs: AtomicU64,
    bytes: AtomicU64,
}

/// What a [`Counter`] has seen so far.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HeapStats {
    /// Bytes allocated and not yet freed.
    pub live: usize,
    /// Highest value `live` ever had.
    pub peak: usize,
    /// Allocation calls (a growing `realloc` counts as one).
    pub allocs: u64,
    /// Bytes handed out over the process's life.
    pub bytes: u64,
}

impl Counter {
    pub const fn new() -> Counter {
        Counter {
            live: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
            allocs: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        }
    }

    pub fn on_alloc(&self, size: usize) {
        let live = self.live.fetch_add(size, Relaxed) + size;
        self.peak.fetch_max(live, Relaxed);
        self.allocs.fetch_add(1, Relaxed);
        self.bytes.fetch_add(size as u64, Relaxed);
    }

    pub fn on_free(&self, size: usize) {
        self.live.fetch_sub(size, Relaxed);
    }

    pub fn stats(&self) -> HeapStats {
        HeapStats {
            live: self.live.load(Relaxed),
            peak: self.peak.load(Relaxed),
            allocs: self.allocs.load(Relaxed),
            bytes: self.bytes.load(Relaxed),
        }
    }
}

impl Default for Counter {
    fn default() -> Self {
        Counter::new()
    }
}

/// The system allocator with every call counted into [`HEAP`].
pub struct CountingAlloc;

/// The process-wide totals [`CountingAlloc`] feeds.
pub static HEAP: Counter = Counter::new();

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting touches only
// atomics and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's layout is passed through as is.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            HEAP.on_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's layout is passed through as is.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            HEAP.on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with `layout`, which
        // means it came from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        HEAP.on_free(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr`/`layout` came from `System` via this allocator
        // and `new_size` is the caller's, unchanged.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            HEAP.on_free(layout.size());
            HEAP.on_alloc(new_size);
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_is_the_highest_live_total_not_the_last() {
        let c = Counter::new();
        c.on_alloc(100);
        c.on_alloc(50);
        c.on_free(100);
        c.on_alloc(20);
        let s = c.stats();
        assert_eq!(s.live, 70);
        assert_eq!(s.peak, 150);
        assert_eq!(s.allocs, 3);
        assert_eq!(s.bytes, 170);
    }
}
