//! The main-TLB miss path, the context switch, kernel-text runs and
//! the single fetches that cut the L1-I's stretches allocate nothing.
//!
//! A micro-TLB miss that also misses the main TLB costs the host a
//! probe, a table walk and a fill; none of the three may touch the
//! heap (the walk's fetch addresses sit inline in its result, the
//! duplicate check and the refill go through fixed index arrays, the
//! process table is a vector lookup). A test binary of its own,
//! because it installs a counting `#[global_allocator]`; the count is
//! per thread, so the test harness's own threads stay out of it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sat_core::{Kernel, KernelConfig, NoTlb};
use sat_sim::machine::{FAULT_HANDLER_PAGE, SCHED_PATH_PAGE};
use sat_sim::Machine;
use sat_types::{AccessType, Perms, Pid, RegionTag, VirtAddr, KERNEL_SPACE_START, PAGE_SIZE};
use sat_vm::MmapRequest;

/// The system allocator, counting allocation calls (a `realloc` is
/// one: it may move the block).
struct CountingAlloc;

thread_local! {
    /// Allocation calls made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc() {
    // A thread being torn down may allocate after its locals are gone.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting touches one
// const-initialised thread-local cell and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        // SAFETY: the caller's layout is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        // SAFETY: `ptr` came from `System` with this `layout`; the
        // caller guarantees `new_size` is valid for its alignment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Pages each process sweeps: more than the 128 main-TLB entries, so
/// a cyclic sweep never finds its own earlier entries.
const PAGES: u32 = 200;
const BASE: u32 = 0x4000_0000;

fn sweep(m: &mut Machine) {
    for page in 0..PAGES {
        m.access(
            0,
            VirtAddr::new(BASE + page * PAGE_SIZE),
            AccessType::Execute,
        )
        .unwrap();
    }
}

/// Two unrelated processes mapping the same library under the stock
/// kernel (private tables, ASID-tagged entries), on one core.
fn two_processes() -> (Machine, [Pid; 2]) {
    let mut kernel = Kernel::new(KernelConfig::stock(), 65536);
    let lib = kernel.files.register("libtest.so", PAGES * PAGE_SIZE);
    let procs: [Pid; 2] = std::array::from_fn(|_| {
        let pid = kernel.create_process().unwrap();
        let code = MmapRequest::file(
            PAGES * PAGE_SIZE,
            Perms::RX,
            lib,
            0,
            RegionTag::ZygoteNativeCode,
            "libtest.so",
        )
        .at(VirtAddr::new(BASE));
        kernel.mmap(pid, &code, &mut NoTlb).unwrap();
        pid
    });
    (Machine::single_core(kernel), procs)
}

#[test]
fn main_tlb_misses_and_context_switches_allocate_nothing() {
    let (mut m, procs) = two_processes();

    // Warm-up: fault every page in, fill the TLB, and let every
    // scratch buffer reach its working size.
    for _ in 0..2 {
        for pid in procs {
            m.context_switch(0, pid).unwrap();
            sweep(&mut m);
        }
    }
    assert!(allocs() > 0, "the counter saw the set-up's allocations");

    // 10,000 accesses, 200 per process per turn. Each sweep runs with
    // the TLB full of the *other* process's pages and the scheduler's
    // kernel section, so every access is a main-TLB miss, a walk, and
    // a refill that evicts.
    let faults = m.cores[0].stats.page_faults;
    let tlb = m.cores[0].main_tlb.stats();
    let before = allocs();
    for turn in 0..50 {
        m.context_switch(0, procs[turn % 2]).unwrap();
        sweep(&mut m);
    }
    let on_miss_path = allocs() - before;
    // 50 × 200 user lookups plus the scheduler text's one per switch
    // (each sweep evicts the kernel section too): no lookup hit.
    let now = m.cores[0].main_tlb.stats();
    assert_eq!(now.hits, tlb.hits);
    assert_eq!(now.misses - tlb.misses, 10_050);
    assert_eq!(now.evictions - tlb.evictions, 10_050);
    assert_eq!(m.cores[0].stats.page_faults, faults);
    assert_eq!(on_miss_path, 0, "allocations on the miss path");

    // 1,000 context switches back and forth.
    let switches = m.cores[0].stats.context_switches;
    let before = allocs();
    for turn in 0..1_000 {
        m.context_switch(0, procs[turn % 2]).unwrap();
    }
    let in_switches = allocs() - before;
    assert_eq!(m.cores[0].stats.context_switches - switches, 1_000);
    assert_eq!(in_switches, 0, "allocations in context_switch");

    // 1,000 kernel-text runs: a hard fault's 800 lines, which lap the
    // 256-set L1-I three times, and a context switch's 80, in turn.
    let runs = [(FAULT_HANDLER_PAGE, 800), (SCHED_PATH_PAGE, 80)];
    for (page, lines) in runs {
        m.run_kernel_lines(0, page, lines).unwrap();
    }
    let fetches = m.cores[0].stats.inst_fetches;
    let before = allocs();
    for turn in 0..1_000 {
        let (page, lines) = runs[turn % 2];
        m.run_kernel_lines(0, page, lines).unwrap();
    }
    let in_runs = allocs() - before;
    assert_eq!(m.cores[0].stats.inst_fetches - fetches, 440_000);
    assert_eq!(in_runs, 0, "allocations in kernel-text runs");
}

#[test]
fn single_fetches_between_fault_handler_runs_allocate_nothing() {
    let (mut m, procs) = two_processes();
    m.context_switch(0, procs[0]).unwrap();
    // The handler's last line, at way 0 of its set after each run.
    let handler_tail =
        VirtAddr::new(KERNEL_SPACE_START + FAULT_HANDLER_PAGE * PAGE_SIZE + 799 * 32);
    // A hard fault's 800 lines lap the L1-I's 256 sets three times and
    // leave them in long stretches of equal sets; 16 user fetches
    // spread over the sets then cut their sets (and the sets after
    // them) out of those stretches, a fetch of the handler's last line
    // hits its head's most recent way, and the next run joins the
    // pieces again.
    let turn = |m: &mut Machine, turn: u32| {
        m.run_kernel_lines(0, FAULT_HANDLER_PAGE, 800).unwrap();
        for k in 0..16 {
            let page = (turn * 16 + k) % PAGES;
            let line = (turn + k * 37) % 128;
            let va = VirtAddr::new(BASE + page * PAGE_SIZE + line * 32);
            m.access(0, va, AccessType::Execute).unwrap();
        }
        m.access(0, handler_tail, AccessType::Execute).unwrap();
    };
    // Warm-up: fault every page in.
    sweep(&mut m);
    for t in 0..PAGES {
        turn(&mut m, t);
    }
    let fetches = m.cores[0].stats.inst_fetches;
    let before = allocs();
    for t in 0..1_000 {
        turn(&mut m, t);
    }
    let in_turns = allocs() - before;
    assert_eq!(m.cores[0].stats.inst_fetches - fetches, 1_000 * 817);
    assert_eq!(
        in_turns, 0,
        "allocations in fetches that cut and runs that join"
    );
}
