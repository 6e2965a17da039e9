//! The counting allocator installed for real: its peak follows the
//! largest live total, not the last.

use satbench::alloc::{CountingAlloc, HEAP};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn peak_counts_a_freed_buffer_and_live_drops_when_it_goes() {
    const SIZE: usize = 8 << 20;
    let before = HEAP.stats();
    let buf = std::hint::black_box(vec![1u8; SIZE]);
    let during = HEAP.stats();
    drop(buf);
    let after = HEAP.stats();
    // The harness allocates on other threads too, so compare with
    // slack far below the buffer's size.
    let slack = 1 << 20;
    assert!(during.live >= before.live + SIZE - slack);
    assert!(during.peak >= before.live + SIZE - slack);
    assert!(after.live + SIZE <= during.live + slack);
    assert!(after.peak >= during.peak, "the peak never falls");
    assert!(after.allocs > before.allocs);
    assert!(after.bytes >= before.bytes + SIZE as u64);
}
