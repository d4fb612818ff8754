//! A counting global allocator for exact heap accounting.
//!
//! Install it with `#[global_allocator] static COUNTER: CountingAlloc =
//! CountingAlloc;` and read a counter before and after the code under
//! measurement. The counters are process-wide, so a delta is exact only
//! while nothing else in the process allocates: a test that reads them
//! stays alone in its file.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, AtomicU64, AtomicUsize, Ordering};

/// Forwards every call to [`System`] and counts it three ways.
pub struct CountingAlloc;

static CALLS: AtomicU64 = AtomicU64::new(0);
static REQUESTED: AtomicUsize = AtomicUsize::new(0);
static LIVE: AtomicIsize = AtomicIsize::new(0);

impl CountingAlloc {
    /// Allocation calls so far: each `alloc` and each `realloc` counts one,
    /// frees count nothing (the figure is allocator pressure).
    pub fn calls() -> u64 {
        CALLS.load(Ordering::Relaxed)
    }

    /// Bytes requested so far: each `alloc`'s size plus each `realloc`'s
    /// new size.
    pub fn requested() -> usize {
        REQUESTED.load(Ordering::Relaxed)
    }

    /// Bytes held now: `alloc` adds its size, `dealloc` subtracts it and
    /// `realloc` adds the difference, so a delta is what a structure keeps
    /// alive.
    pub fn live() -> isize {
        LIVE.load(Ordering::Relaxed)
    }

    fn record(size: usize, held: isize) {
        CALLS.fetch_add(1, Ordering::Relaxed);
        REQUESTED.fetch_add(size, Ordering::Relaxed);
        LIVE.fetch_add(held, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are a side effect only.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::record(layout.size(), layout.size() as isize);
        // SAFETY: same layout, forwarded as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::record(new_size, new_size as isize - layout.size() as isize);
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
