//! Counting allocator: heap allocations and live bytes of the *current
//! thread*, so an isolated section can report allocations per frame and
//! bytes per idle group as measured counts.
//!
//! The counters are thread-local: the UDP workloads run sixteen threads,
//! and a shared atomic would put a contended cache line on every
//! allocation they make. Thread-local cells cost a few nanoseconds and
//! cannot perturb other threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

/// The system allocator plus per-thread counters.
pub struct CountingAlloc;

fn note(allocs: u64, bytes: i64) {
    // `try_with`: an allocation made while the thread's locals are being
    // torn down is simply not counted.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + allocs));
    let _ = LIVE_BYTES.try_with(|c| c.set(c.get() + bytes));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are plain thread-local
// integer cells without destructors, so touching them can neither allocate
// nor unwind.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size() as i64);
        // SAFETY: the caller's obligations are passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(0, -(layout.size() as i64));
        // SAFETY: `ptr` came from `System` through this allocator with
        // this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(1, new_size as i64 - layout.size() as i64);
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Heap activity of the current thread while `f` ran: allocations made
/// (a reallocation counts as one) and the change in live bytes.
pub fn measure<R>(f: impl FnOnce() -> R) -> (u64, i64, R) {
    let (a0, b0) = (ALLOCS.with(Cell::get), LIVE_BYTES.with(Cell::get));
    let out = f();
    (
        ALLOCS.with(Cell::get) - a0,
        LIVE_BYTES.with(Cell::get) - b0,
        out,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_this_threads_allocations_and_live_bytes() {
        let (allocs, bytes, v) = measure(|| vec![0u8; 4096]);
        assert_eq!(allocs, 1);
        assert_eq!(bytes, 4096);
        let (allocs, bytes, ()) = measure(|| drop(v));
        assert_eq!((allocs, bytes), (0, -4096));
    }
}
