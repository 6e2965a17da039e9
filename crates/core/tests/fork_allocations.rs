//! A fork pays for the child's region list with one allocation of one
//! pointer a group of regions, whatever the regions hold; an exit pays
//! nothing a region; the child's first `mmap` copies the one group it
//! lands in. And a stock fork keeps nothing for the page-table groups
//! it copied word for word.
//!
//! A child holds pointers to its parent's region groups, not copies
//! (DESIGN.md §17). Pinned here on the host allocator: forking a parent
//! with 16 and 256 unpopulated regions makes one call more than a fork
//! of none (whose empty list allocates nothing), the bytes beyond it
//! are one pointer a group, and exiting the child makes the same
//! number of calls as exiting a child of none. The child's first
//! region then costs one group, rebuilt one longer in one allocation,
//! and the same calls and bytes whether the parent held 16 regions or
//! 256.
//!
//! A child also holds its parent's page-table groups until it writes
//! them (`sat_mmu`'s `groups.rs`), and a group its copy matched costs
//! the fork no allocation: a stock fork of a parent with 64 and with
//! 512 COW-protected pages in one chunk — one group and eight — makes
//! the same allocation calls and leaves the same bytes allocated.
//!
//! And a write fault into a populated table allocates only what its
//! table group grows by: the reverse map holds a frame's one entry
//! inline, in a slot indexed by frame number, once the index has
//! reached the frame, and a group holds its first six words inline.
//!
//! And a booted Nexus 7 holds no `struct page` for a frame it has not
//! handed out: `PhysMem` keeps the pool's free bitmap (32 KiB for 1 GiB)
//! and metadata for the frames used so far, not 6 MiB for the pool.
//!
//! A test binary of its own, because it installs a counting
//! `#[global_allocator]`; the counts are per thread, so the test
//! harness's own threads stay out of them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sat_core::{Kernel, KernelConfig, NoTlb};
use sat_phys::PhysMem;
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
fn a_fork_allocates_one_pointer_a_group_and_an_exit_nothing() {
    let pointer = std::mem::size_of::<usize>() as u64;
    // A group is held through a slice pointer: an address and a length.
    let group_pointer = std::mem::size_of::<std::sync::Arc<[usize]>>() as u64;
    // A child of no regions makes its list at its first `mmap`: a group
    // of one (the two counts and a pointer) and an outer list of four
    // group slots, a `Vec`'s first allocation.
    let list_of_one = (2, (2 * pointer + pointer) + 4 * group_pointer);
    for config in [KernelConfig::stock(), KernelConfig::shared_ptp_tlb()] {
        let [fork_0, map_0, exit_0] = fork_map_exit(config, 0);
        assert!(fork_0.0 > 0, "the counter saw the fork's allocations");
        let [_, map_16, _] = fork_map_exit(config, 16);
        // Inserted in address order, regions leave every group but the
        // last at 16 (a split leaves 16 behind) and the last at 17 to
        // 32: 16 regions are one group, 256 are 15.
        for (regions, groups) in [(16, 1), (256, 15)] {
            let [fork, map, exit] = fork_map_exit(config, regions);
            // One call more than a fork of no regions: the list, one
            // pointer a group.
            assert_eq!(fork.0, fork_0.0 + 1, "{regions} regions: fork calls");
            assert_eq!(
                fork.1 - fork_0.1,
                group_pointer * groups,
                "{regions} regions: fork bytes"
            );
            assert_eq!(exit.0, exit_0.0, "{regions} regions: exit calls");
            // The child's first region lands in the first group and
            // copies it one longer, at its exact size: one allocation of
            // at most a full group and one more pointer, the list itself
            // unchanged.
            let group = (
                map.0 + list_of_one.0 - map_0.0,
                map.1 + list_of_one.1 - map_0.1,
            );
            assert_eq!(group.0, 1, "{regions} regions: the first mmap's calls");
            assert!(
                group.1 <= 2 * pointer + pointer * 33,
                "{regions} regions: the first mmap copied {} bytes",
                group.1
            );
            assert_eq!(map, map_16, "{regions} regions: the first mmap");
        }
    }
}

/// The allocation calls a stock fork of a parent with `pages` written
/// anonymous pages from the start of one 2MB chunk makes, and the bytes
/// it leaves allocated, once an earlier fork has COW-protected them.
fn later_fork(pages: u32) -> (u64, i64) {
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
    let mut calls = 0;
    let kept = retained(|| {
        calls = allocated(|| {
            k.fork(parent).unwrap();
        })
        .0;
    });
    (calls, kept)
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

/// Write faults into a table whose group the first page allocated
/// (`sat_mmu`'s `groups.rs`). A group holds six words inline, so pages
/// 1..6 allocate nothing. The seventh word spills the group's words to
/// a vector of 12 (48 bytes); the vector then doubles at the 13th word
/// (24 words, 96 bytes) and the 25th (48 words, 192 bytes), and stops
/// at a full group at the 49th (64 words, 256 bytes): 4 calls and
/// 48 + 96 + 192 + 256 = 592 bytes for pages 6..64, and nothing else.
/// The first page of the next group is one block, the group itself —
/// 56 bytes on a 64-bit host, where a dense group took 280.
#[test]
fn a_write_fault_into_a_populated_table_allocates_only_its_group() {
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
        let pid = process_with_heap(&mut k, 128, 0..1);
        let mut faults = |pages: std::ops::Range<u32>| {
            allocated(|| pages.for_each(|page| write_page(&mut k, pid, page)))
        };
        assert_eq!(faults(1..6), (0, 0), "{name}: words 2..=6");
        assert_eq!(faults(6..7), (1, 48), "{name}: the seventh word");
        assert_eq!(faults(7..64), (3, 96 + 192 + 256), "{name}: words 8..=64");
        let (calls, bytes) = faults(64..65);
        assert_eq!(calls, 1, "{name}: the next group's first word");
        assert!(bytes <= 64, "{name}: a group of one word is {bytes} bytes");
    }
}

#[test]
fn a_stock_child_holds_the_groups_its_copy_matched() {
    // One group of PTEs and eight: a group the copy did not match would
    // cost the second seven more allocations, and seven more groups
    // kept.
    let ((calls_one, one), (calls_eight, eight)) = (later_fork(64), later_fork(512));
    assert!(one > 0, "the counter saw the fork's allocations");
    assert_eq!(
        calls_one, calls_eight,
        "calls a fork of 64 and of 512 pages makes"
    );
    assert_eq!(one, eight, "bytes a child keeps for 64 and for 512 pages");
}

#[test]
fn a_booted_nexus7_holds_no_metadata_for_frames_it_never_handed_out() {
    for config in [KernelConfig::stock(), KernelConfig::shared_ptp_tlb()] {
        let mut k = Kernel::nexus7(config);
        process_with_heap(&mut k, 1, 0..1);
        assert!(k.phys.frames_in_use() > 0);
        // An empty pool allocates nothing: what the swap frees is what
        // the kernel's `PhysMem` held.
        let held = -retained(|| drop(std::mem::replace(&mut k.phys, PhysMem::new(0))));
        assert!(
            held >= 32 << 10,
            "the counter saw the free bitmap: {held} bytes"
        );
        assert!(held < 64 << 10, "{held} bytes held for a 1 GiB pool");
    }
}
