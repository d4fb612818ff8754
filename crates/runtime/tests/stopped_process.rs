//! A whole test process stopped with `SIGSTOP` and continued with
//! `SIGCONT`, the way a shell's job control, a debugger or a frozen
//! container stalls a member. On Linux a timed `recv_from` that a stop
//! signal interrupts fails with `EINTR` after the `SIGCONT`, which must not
//! end the receiver thread; and the group, stalled as a whole, must wake
//! at the default `K` with every member active.
//!
//! One test in a file of its own on purpose: it stops every thread of the
//! test binary, and `cargo test` runs test binaries one after another.
//! Run it through `cargo test` (or a shell without job control): an
//! interactive shell that started the test binary itself reports it as a
//! stopped job and stops waiting for it.

#![cfg(target_os = "linux")]

use std::collections::HashSet;
use std::process::Command;
use std::time::{Duration, Instant};

use bytes::Bytes;
use urcgc_runtime::{AppEvent, ProcessHandle, UdpGroup};
use urcgc_types::{Mid, ProtocolConfig};

fn deliveries(handle: &mut ProcessHandle, expect: usize) -> HashSet<Mid> {
    let mut got = HashSet::new();
    let deadline = Instant::now() + Duration::from_secs(15);
    while got.len() < expect {
        let left = deadline.saturating_duration_since(Instant::now());
        match handle.next_event(left) {
            Some(AppEvent::Delivered(msg)) => {
                got.insert(msg.mid);
            }
            Some(_) => {}
            None => break,
        }
    }
    got
}

#[test]
fn a_group_in_a_stopped_and_continued_process_carries_on() {
    let n = 5;
    let group = UdpGroup::spawn(ProtocolConfig::new(n), Duration::from_millis(5), 0.0, 91).unwrap();
    let (mut handles, shutdown) = group.into_handles();
    let submit_round_robin = |handles: &[ProcessHandle], count: usize| -> HashSet<Mid> {
        (0..count)
            .map(|k| {
                handles[k % n]
                    .submit(Bytes::from(vec![k as u8; 16]), vec![])
                    .expect("member alive")
            })
            .collect()
    };
    let warm_up = submit_round_robin(&handles, n);
    for (m, h) in handles.iter_mut().enumerate() {
        assert_eq!(deliveries(h, n), warm_up, "warm-up at member {m}");
    }

    // The shell stops this process, and continues it 300 ms later.
    let me = std::process::id();
    let stall = Command::new("sh")
        .arg("-c")
        .arg(format!("kill -STOP {me}; sleep 0.3; kill -CONT {me}"))
        .status()
        .expect("run sh");
    assert!(stall.success(), "{stall:?}");

    let after = submit_round_robin(&handles, 20);
    for (m, h) in handles.iter_mut().enumerate() {
        assert_eq!(deliveries(h, 20), after, "member {m} after the stall");
    }
    for (m, h) in handles.iter().enumerate() {
        let status = h.status();
        assert!(
            status.as_ref().is_ok_and(|s| s.is_active()),
            "member {m} is {status:?}"
        );
        assert!(
            h.net_stats().rounds_skipped > 0,
            "member {m} skipped nothing"
        );
    }
    shutdown.shutdown();
}
