//! A fork pays for the child's region list with one allocation of one
//! pointer a region, whatever the regions hold; an exit pays nothing a
//! region. And a stock fork keeps nothing for the page-table groups it
//! copied word for word.
//!
//! A child holds pointers to its parent's regions, not copies
//! (DESIGN.md §17). Pinned here on the host allocator: forking a parent
//! with 0, 16 and 256 unpopulated regions makes the same *number* of
//! allocations, the bytes differ by exactly one pointer a region, and
//! exiting the child makes the same number again. The list leaves the
//! fork with a little headroom, so the first region the child maps (a
//! fleet child maps its heap at once) does not reallocate it.
//!
//! A child also holds its parent's page-table groups until it writes
//! them (`sat_mmu`'s `groups.rs`): a stock fork of a parent with 64 and
//! with 512 COW-protected pages in one chunk — one group and eight —
//! leaves the same bytes allocated.
//!
//! And a write fault into a populated table allocates nothing: the
//! reverse map holds a frame's one entry inline, in a slot indexed by
//! frame number, once the index has reached the frame.
//!
//! A test binary of its own, because it installs a counting
//! `#[global_allocator]`; the counts are per thread, so the test
//! harness's own threads stay out of them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sat_core::{Kernel, KernelConfig, NoTlb};
use sat_types::{AccessType, Perms, Pid, RegionTag, VirtAddr, PAGE_SIZE};
use sat_vm::MmapRequest;

/// The system allocator, counting allocation calls (a `realloc` is
/// one: it may move the block) and the bytes they asked for.
struct CountingAlloc;

thread_local! {
    /// Allocation calls made by this thread, and bytes requested.
    static ALLOCS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
    /// Bytes this thread holds: allocated less freed.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn count_alloc(bytes: usize) {
    // A thread being torn down may allocate after its locals are gone.
    let _ = ALLOCS.try_with(|n| {
        let (calls, total) = n.get();
        n.set((calls + 1, total + bytes as u64));
    });
}

fn count_live(bytes: i64) {
    let _ = LIVE.try_with(|n| n.set(n.get() + bytes));
}

/// The bytes `f` left allocated.
fn retained(f: impl FnOnce()) -> i64 {
    let before = LIVE.with(Cell::get);
    f();
    LIVE.with(Cell::get) - before
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
        count_live(layout.size() as i64);
        // SAFETY: the caller's layout is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count_live(-(layout.size() as i64));
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc(new_size);
        count_live(new_size as i64 - layout.size() as i64);
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

/// What a stock fork of a parent with `pages` written anonymous pages
/// from the start of one 2MB chunk leaves allocated, once an earlier
/// fork has COW-protected them.
fn later_fork_retains(pages: u32) -> i64 {
    let mut k = Kernel::new(KernelConfig::stock(), 4096);
    let parent = process_with_heap(&mut k, pages, 0..pages);
    // The first fork COW-protects the parent's pages; its child lives
    // on, as a zygote's do. A fork and an exit then bring every table
    // and map to its working size — the table arena's frame index
    // included, which reaches the child's table frame, above the
    // parent's pages.
    k.fork(parent).unwrap();
    let warm = k.fork(parent).unwrap().child;
    k.exit(warm, &mut NoTlb).unwrap();
    retained(|| {
        k.fork(parent).unwrap();
    })
}

/// A fresh process with a `pages`-page anonymous heap at [`BASE`], of
/// which pages `written` are written.
fn process_with_heap(k: &mut Kernel, pages: u32, written: std::ops::Range<u32>) -> Pid {
    let pid = k.create_process().unwrap();
    let heap = MmapRequest::anon(pages * PAGE_SIZE, Perms::RW, RegionTag::Heap, "[heap]")
        .at(VirtAddr::new(BASE));
    k.mmap(pid, &heap, &mut NoTlb).unwrap();
    for page in written {
        write_page(k, pid, page);
    }
    pid
}

fn write_page(k: &mut Kernel, pid: Pid, page: u32) {
    let va = VirtAddr::new(BASE + page * PAGE_SIZE);
    k.page_fault(pid, va, AccessType::Write, &mut NoTlb)
        .unwrap();
}

#[test]
fn a_write_fault_into_a_populated_table_allocates_nothing() {
    let kernels = [
        ("stock", KernelConfig::stock()),
        ("sharing", KernelConfig::shared_ptp_tlb()),
    ];
    for (name, config) in kernels {
        let mut k = Kernel::new(config, 4096);
        // A process that writes 256 pages and exits runs the reverse
        // map's index up past every frame the next one is handed.
        let warm = process_with_heap(&mut k, 256, 0..256);
        k.exit(warm, &mut NoTlb).unwrap();
        // Page 0 allocates the table group that pages 1..64 fall in.
        let pid = process_with_heap(&mut k, 64, 0..1);
        let faults = allocated(|| {
            for page in 1..64 {
                write_page(&mut k, pid, page);
            }
        });
        assert_eq!(faults, (0, 0), "{name}: calls and bytes");
    }
}

#[test]
fn a_stock_child_holds_the_groups_its_copy_matched() {
    // One group of PTEs and eight: without adoption the second would
    // keep seven more groups.
    let (one, eight) = (later_fork_retains(64), later_fork_retains(512));
    assert!(one > 0, "the counter saw the fork's allocations");
    assert_eq!(one, eight, "bytes a child keeps for 64 and for 512 pages");
}
