//! A hostile fragment count must not buy memory.
//!
//! A `TFrame::Data` header names its transfer's `frag_count` (a `u16`);
//! nothing vouches for it. If the reassembler reserved a slot per
//! announced fragment when a transfer's first one arrives, a 20-byte
//! datagram naming 65 535 fragments would pin 2 MiB under a fresh
//! `(src, xfer)` key until its TTL runs out. This file holds one test, so
//! the process-wide allocation counter sees the reassembler alone.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};
use std::time::Duration;

use bytes::Bytes;
use urcgc_runtime::Reassembler;
use urcgc_transport::TFrame;
use urcgc_types::ProcessId;

/// Tracks the bytes currently held from the heap.
struct CountingAlloc;

static HELD: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a side effect only.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        HELD.fetch_add(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: same layout, forwarded as received.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        HELD.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        HELD.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

#[test]
fn a_transfer_holds_what_arrived_not_what_was_announced() {
    const HOSTILE: u64 = 64;
    let datagrams: Vec<Bytes> = (0..HOSTILE)
        .map(|xfer| {
            TFrame::Data {
                xfer,
                src: ProcessId(9999),
                frag_index: 0,
                frag_count: u16::MAX,
                payload: Bytes::from_static(b"x"),
            }
            .encode()
        })
        .collect();
    let on_the_wire: usize = datagrams.iter().map(Bytes::len).sum();
    assert_eq!(on_the_wire, 20 * HOSTILE as usize);

    let mut reasm = Reassembler::new(Duration::from_secs(2));
    let before = HELD.load(Ordering::Relaxed);
    for datagram in datagrams {
        assert!(reasm.accept(datagram, Duration::ZERO).is_none());
    }
    let held = HELD.load(Ordering::Relaxed) - before;
    assert_eq!(reasm.partials(), HOSTILE as usize, "each opened a transfer");
    assert!(
        held < 64 * 1024,
        "{on_the_wire} hostile bytes on the wire hold {held} bytes in the reassembler"
    );
    // The TTL frees what little there is.
    assert_eq!(
        reasm.evict_expired(Duration::from_secs(2)),
        HOSTILE as usize
    );
    assert_eq!(reasm.partials(), 0);
}
