//! The counting allocator's three counters, each against its definition.
//! This file holds one test, so the process-wide counters see it alone.

use std::hint::black_box;

use urcgc_metrics::alloc::CountingAlloc;

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// (calls, bytes requested, bytes live).
fn counters() -> (u64, usize, isize) {
    (
        CountingAlloc::calls(),
        CountingAlloc::requested(),
        CountingAlloc::live(),
    )
}

#[test]
fn counts_calls_requested_bytes_and_live_bytes() {
    let (calls, requested, live) = counters();

    // One `alloc` of 8 bytes.
    let boxed = black_box(Box::new(7u64));
    assert_eq!(counters(), (calls + 1, requested + 8, live + 8));

    // One `alloc` of 16 bytes, then one `realloc` to the grown capacity.
    let mut grown: Vec<u32> = Vec::with_capacity(4);
    grown.extend([1, 2, 3, 4]);
    grown.push(5);
    let cap = black_box(&grown).capacity() * 4;
    assert!(cap > 16);
    let grown_live = live + 8 + cap as isize;
    assert_eq!(counters(), (calls + 3, requested + 24 + cap, grown_live));

    // Frees leave calls and requests alone and give the bytes back.
    drop(boxed);
    drop(grown);
    assert_eq!(counters(), (calls + 3, requested + 24 + cap, live));
}
