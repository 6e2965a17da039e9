//! A fork pays for the child's region list with one allocation of one
//! pointer a region, whatever the regions hold; an exit pays nothing a
//! region.
//!
//! A child holds pointers to its parent's regions, not copies
//! (DESIGN.md §17). Pinned here on the host allocator: forking a parent
//! with 0, 16 and 256 unpopulated regions makes the same *number* of
//! allocations, the bytes differ by exactly one pointer a region, and
//! exiting the child makes the same number again. The list leaves the
//! fork with a little headroom, so the first region the child maps (a
//! fleet child maps its heap at once) does not reallocate it.
//!
//! A test binary of its own, because it installs a counting
//! `#[global_allocator]`; the counts are per thread, so the test
//! harness's own threads stay out of them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sat_core::{Kernel, KernelConfig, NoTlb};
use sat_types::{Perms, Pid, RegionTag, VirtAddr, PAGE_SIZE};
use sat_vm::MmapRequest;

/// The system allocator, counting allocation calls (a `realloc` is
/// one: it may move the block) and the bytes they asked for.
struct CountingAlloc;

thread_local! {
    /// Allocation calls made by this thread, and bytes requested.
    static ALLOCS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn count_alloc(bytes: usize) {
    // A thread being torn down may allocate after its locals are gone.
    let _ = ALLOCS.try_with(|n| {
        let (calls, total) = n.get();
        n.set((calls + 1, total + bytes as u64));
    });
}

/// The calls and bytes `f` allocated.
fn allocated(f: impl FnOnce()) -> (u64, u64) {
    let before = ALLOCS.with(Cell::get);
    f();
    let after = ALLOCS.with(Cell::get);
    (after.0 - before.0, after.1 - before.1)
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting touches one
// const-initialised thread-local cell and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc(layout.size());
        // SAFETY: the caller's layout is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc(new_size);
        // SAFETY: `ptr` came from `System` with this `layout`; the
        // caller guarantees `new_size` is valid for its alignment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const BASE: u32 = 0x1000_0000;

fn heap_at(va: u32) -> MmapRequest {
    MmapRequest::anon(PAGE_SIZE, Perms::RW, RegionTag::Heap, "[heap]").at(VirtAddr::new(va))
}

/// What one fork, the child's first `mmap`, and its exit allocated, in
/// a kernel whose parent holds `regions` unpopulated regions.
fn fork_map_exit(config: KernelConfig, regions: u32) -> [(u64, u64); 3] {
    let mut k = Kernel::new(config, 4096);
    let parent = k.create_process().unwrap();
    for i in 0..regions {
        // A page apart: no two regions abut.
        let req = heap_at(BASE + 2 * i * PAGE_SIZE);
        k.mmap(parent, &req, &mut NoTlb).unwrap();
    }
    // A fork and an exit first, so the process table and every scratch
    // buffer reach their working size; every kernel here sees the same
    // pids in the same order.
    let warm = k.fork(parent).unwrap().child;
    k.exit(warm, &mut NoTlb).unwrap();

    let mut child = Pid::new(0);
    let fork = allocated(|| child = k.fork(parent).unwrap().child);
    assert_eq!(k.mm(child).unwrap().vma_count(), regions as usize);
    let req = heap_at(BASE - 2 * PAGE_SIZE);
    let map = allocated(|| {
        k.mmap(child, &req, &mut NoTlb).unwrap();
    });
    let exit = allocated(|| k.exit(child, &mut NoTlb).unwrap());
    [fork, map, exit]
}

#[test]
fn a_fork_allocates_one_pointer_a_region_and_an_exit_nothing() {
    let pointer = std::mem::size_of::<usize>() as u64;
    for config in [KernelConfig::stock(), KernelConfig::shared_ptp_tlb()] {
        let [fork_0, map_0, exit_0] = fork_map_exit(config, 0);
        assert!(fork_0.0 > 0, "the counter saw the fork's allocations");
        for regions in [16, 256] {
            let [fork, map, exit] = fork_map_exit(config, regions);
            // The same calls as a fork of no regions at all; the bytes
            // beyond it are the list's, one pointer a region.
            assert_eq!(fork.0, fork_0.0, "{regions} regions: fork calls");
            assert_eq!(
                fork.1 - fork_0.1,
                pointer * u64::from(regions),
                "{regions} regions: fork bytes"
            );
            assert_eq!(exit.0, exit_0.0, "{regions} regions: exit calls");
            // The child's first region fits the list as forked: growing
            // it would have asked for the list's size again, and more.
            assert_eq!(map, map_0, "{regions} regions: the first mmap");
        }
    }
}
