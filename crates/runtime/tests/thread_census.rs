//! A member is two threads, and `shutdown()` leaves none behind.
//!
//! The census reads `/proc/self/task`, which lists every thread of the
//! process — so this file holds one test, and the only threads that come
//! and go while it runs are the group's own.
#![cfg(target_os = "linux")]

use std::time::{Duration, Instant};

use urcgc_runtime::UdpGroup;
use urcgc_types::ProtocolConfig;

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .count()
}

#[test]
fn a_five_member_group_is_ten_threads_and_shutdown_joins_them_all() {
    let before = threads();
    let group = UdpGroup::spawn(ProtocolConfig::new(5), Duration::from_millis(4), 0.0, 73).unwrap();
    // A receiver and a ticker per member; whoever calls the handle is the
    // third party, on its own thread.
    assert_eq!(threads() - before, 10);
    group.shutdown();
    // `join` returns when a thread has exited, which is a moment before
    // the kernel unlists its task.
    let deadline = Instant::now() + Duration::from_secs(2);
    while threads() != before {
        assert!(
            Instant::now() < deadline,
            "{} threads outlived shutdown()",
            threads() - before
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}
