//! End-to-end tests of the threaded UDP runtime: the same engine that
//! passed the simulator property tests, now over real sockets with real
//! concurrency, injected packet loss, and an address-rewriting lossy
//! proxy between members.

use std::collections::{HashMap, HashSet};
use std::net::UdpSocket;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Barrier, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use bytes::Bytes;
use urcgc_runtime::{
    check_delivery_log, order_digests, spawn_member_on, workload_quiescent, AppEvent, Fragmenter,
    GroupError, GroupShutdown, LossyProxy, NodeOptions, ProcessHandle, ProxyOptions, Reassembler,
    UdpGroup,
};
use urcgc_types::{
    decode_group, encode_group, encode_pdu, frame_kind, GroupId, Mid, Pdu, PduKind, ProcessId,
    ProtocolConfig, RecoveryRq,
};

fn drain_until(handle: &mut ProcessHandle, expect: usize, secs: u64) -> Vec<Mid> {
    let mut got = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(secs);
    while got.len() < expect {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            break;
        }
        match handle.next_event(left) {
            Some(AppEvent::Delivered(msg)) => got.push(msg.mid),
            Some(_) => {}
            None => break,
        }
    }
    got
}

#[test]
fn five_member_group_with_concurrent_senders() {
    let cfg = ProtocolConfig::new(5);
    let mut group = UdpGroup::spawn(cfg, Duration::from_millis(4), 0.0, 17).unwrap();

    // All five members submit concurrently (interleaved submissions).
    let mut expected = HashSet::new();
    for k in 0..4u8 {
        for m in 0..5usize {
            let mid = group
                .handle(m)
                .submit(Bytes::from(vec![k, m as u8]), vec![])
                .unwrap();
            expected.insert(mid);
        }
    }

    for m in 0..5 {
        let got = drain_until(group.handle(m), expected.len(), 15);
        let set: HashSet<Mid> = got.iter().copied().collect();
        assert_eq!(set, expected, "member {m} delivered a different set");
        // Per-origin sequence order (causal order projection).
        let mut per_origin: HashMap<u16, Vec<u64>> = HashMap::new();
        for mid in &got {
            per_origin.entry(mid.origin.0).or_default().push(mid.seq);
        }
        for (origin, seqs) in per_origin {
            let mut sorted = seqs.clone();
            sorted.sort();
            assert_eq!(seqs, sorted, "member {m}, origin {origin} out of order");
        }
    }
    group.shutdown();
}

#[test]
fn explicit_cross_member_dependency_respected_on_sockets() {
    let cfg = ProtocolConfig::new(3);
    let mut group = UdpGroup::spawn(cfg, Duration::from_millis(4), 0.0, 23).unwrap();

    // p0 sends; p1 waits until it sees the message, then replies with an
    // explicit dependency on it.
    let first = group
        .handle(0)
        .submit(Bytes::from_static(b"question"), vec![])
        .unwrap();
    let got = drain_until(group.handle(1), 1, 10);
    assert_eq!(got, vec![first]);
    let reply = group
        .handle(1)
        .submit(Bytes::from_static(b"answer"), vec![first])
        .unwrap();

    // p2 must process question before answer.
    let order = drain_until(group.handle(2), 2, 10);
    assert_eq!(order, vec![first, reply]);
    group.shutdown();
}

#[test]
fn heavy_loss_converges_via_history_recovery() {
    // 25% receive loss at every member: most broadcasts lose at least one
    // destination, so convergence demonstrably depends on recovery.
    //
    // K is sized from that loss rate. The group declares a member crashed
    // once K consecutive requests of its fail to reach a coordinator; each
    // is dropped with probability 1/4, so any one window of K subruns
    // removes a member with probability 4^-K. That is 1.6 % at K = 3 — the
    // rate at which this test used to fail — and 10^-6 at K = 10.
    let cfg = ProtocolConfig::new(3).with_k(10).with_f_allowance(3);
    let mut group = UdpGroup::spawn(cfg, Duration::from_millis(4), 0.25, 31).unwrap();
    let mut expected = HashSet::new();
    for k in 0..8u8 {
        expected.insert(
            group
                .handle(0)
                .submit(Bytes::from(vec![k]), vec![])
                .unwrap(),
        );
    }
    for m in 1..3 {
        let got = drain_until(group.handle(m), expected.len(), 30);
        let set: HashSet<Mid> = got.iter().copied().collect();
        assert_eq!(set, expected, "member {m} failed to converge under loss");
    }
    for m in 0..3 {
        let status = group.handle(m).status().unwrap();
        assert!(status.is_active(), "member {m} ended {status:?}");
    }
    group.shutdown();
}

#[test]
fn a_lost_fragment_is_rebuilt_from_the_parity_not_recovered() {
    // 2 % receive loss and 4 KiB payloads: every message is three
    // fragments and a parity to each of four peers, and about one in five
    // loses a datagram somewhere. One lost datagram per transfer is
    // rebuilt on the spot; only a transfer that lost two goes through the
    // engine's recovery (before parity: about 0.35 asks per message).
    // K = 200 keeps a stalled test box from reading as crashed members.
    const MSGS: usize = 200;
    let n = 5;
    let cfg = ProtocolConfig::new(n).with_k(200);
    let mut group = UdpGroup::spawn(cfg, Duration::from_millis(5), 0.02, 61).unwrap();
    for k in 0..MSGS {
        let payload = Bytes::from(vec![k as u8; 4096]);
        group.handle(k % n).submit(payload, vec![]).unwrap();
        std::thread::sleep(Duration::from_millis(5));
    }
    let mut digests = HashSet::new();
    let (mut repaired, mut asked) = (0, 0);
    for m in 0..n {
        let got = drain_until(group.handle(m), MSGS, 30);
        assert_eq!(got.len(), MSGS, "member {m} is missing messages");
        digests.insert(order_digests(n, &got));
        let net = group.handle(m).net_stats();
        assert_eq!((net.malformed, net.send_failed), (0, 0), "member {m}");
        repaired += net.frames_repaired;
        asked += group.handle(m).stats().unwrap().recovery_requests;
    }
    assert_eq!(digests.len(), 1, "members delivered in different orders");
    assert!(
        repaired > 0,
        "2 % loss over 3 200 transfers rebuilt nothing"
    );
    assert!(
        asked < MSGS as u64 / 4,
        "{asked} recovery asks for {MSGS} messages ({repaired} frames rebuilt)"
    );
    group.shutdown();
}

#[test]
fn confirm_events_arrive_for_own_submissions() {
    let cfg = ProtocolConfig::new(2);
    let mut group = UdpGroup::spawn(cfg, Duration::from_millis(4), 0.0, 37).unwrap();
    let mid = group
        .handle(0)
        .submit(Bytes::from_static(b"confirm me"), vec![])
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        match group.handle(0).next_event(left) {
            Some(AppEvent::Confirmed(m)) => {
                assert_eq!(m, mid);
                break;
            }
            Some(_) => {}
            None => panic!("no Confirm within 5s"),
        }
    }
    group.shutdown();
}

#[test]
fn a_submission_in_a_free_round_does_not_wait_for_the_tick() {
    // 200 ms rounds: a submission made 50 ms into a round has 150 ms to
    // wait if it leaves at the next tick. It must be delivered everywhere
    // inside 50 ms, i.e. it used the running round's slot.
    let round = Duration::from_millis(200);
    let mut group = UdpGroup::spawn(ProtocolConfig::new(3), round, 0.0, 43).unwrap();
    // Watch a round begin, so its phase is known.
    let deadline = Instant::now() + Duration::from_secs(10);
    let seen = group.handle(1).net_stats().rounds;
    while group.handle(1).net_stats().rounds == seen {
        assert!(Instant::now() < deadline, "round ticker never fired");
        std::thread::sleep(Duration::from_millis(1));
    }
    std::thread::sleep(round / 4);

    let submitted = Instant::now();
    let mid = group
        .handle(1)
        .submit(Bytes::from_static(b"now"), vec![])
        .unwrap();
    for m in 0..3 {
        let left = (submitted + round / 4).saturating_duration_since(Instant::now());
        match group.handle(m).next_event(left) {
            Some(AppEvent::Delivered(msg)) => assert_eq!(msg.mid, mid),
            other => panic!("member {m}: no delivery within {:?}: {other:?}", round / 4),
        }
    }
    assert_eq!(group.handle(1).stats().unwrap().immediate_submits, 1);
    group.shutdown();
}

#[test]
fn status_snapshot_and_stats_read_the_live_engine() {
    let cfg = ProtocolConfig::new(3);
    let mut group = UdpGroup::spawn(cfg, Duration::from_millis(4), 0.0, 41).unwrap();
    let mid = group
        .handle(1)
        .submit(Bytes::from_static(b"observable"), vec![])
        .unwrap();
    for m in 0..3 {
        assert_eq!(drain_until(group.handle(m), 1, 10), vec![mid]);
    }

    let status = group.handle(1).status().unwrap();
    assert!(
        status.is_active(),
        "member 1 should be active, got {status:?}"
    );

    let snap = group.handle(1).snapshot().unwrap();
    assert_eq!(snap.me, 1);
    assert_eq!(snap.status, "Active");
    assert_eq!(snap.frontier.len(), 3);
    assert_eq!(snap.frontier[1], 1, "own message is in the frontier");
    assert!(snap.alive.iter().all(|&a| a), "nobody crashed");

    let stats = group.handle(0).stats().unwrap();
    assert_eq!(stats.processed, 1);

    // The runtime's own counters moved too: rounds ticked, datagrams flowed.
    // (Member 0 can deliver before its own first round: that round begins
    // when its startup barrier releases, and a peer's may release first.)
    let deadline = Instant::now() + Duration::from_secs(5);
    while group.handle(0).net_stats().rounds == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    let net = group.handle(0).net_stats();
    assert!(net.rounds > 0, "round ticker never fired");
    assert!(net.datagrams_rx > 0, "no datagrams received");
    assert!(net.frames_rx > 0, "no frames reassembled");
    group.shutdown();
}

#[test]
fn killed_member_is_detected_by_survivors() {
    // K=2 keeps detection latency low; the dead member stops answering
    // mid-protocol (fail-stop, no goodbye).
    let cfg = ProtocolConfig::new(3).with_k(2);
    let mut group = UdpGroup::spawn(cfg, Duration::from_millis(4), 0.0, 43).unwrap();
    let mid = group
        .handle(0)
        .submit(Bytes::from_static(b"warm-up"), vec![])
        .unwrap();
    for m in 0..3 {
        assert_eq!(drain_until(group.handle(m), 1, 10), vec![mid]);
    }

    group.handle(2).kill().unwrap();

    let deadline = Instant::now() + Duration::from_secs(20);
    let mut detected = false;
    while Instant::now() < deadline && !detected {
        detected = group
            .handle(0)
            .with_engine(|e| !e.view().is_alive(ProcessId(2)))
            .unwrap_or(false);
        if !detected {
            std::thread::sleep(Duration::from_millis(50));
        }
    }
    assert!(detected, "survivors never declared the killed member dead");

    // The surviving pair still agrees on new traffic.
    let after = group
        .handle(1)
        .submit(Bytes::from_static(b"life goes on"), vec![])
        .unwrap();
    assert_eq!(drain_until(group.handle(0), 1, 15), vec![after]);
    group.shutdown();
}

#[test]
fn a_killed_member_answers_process_gone_at_once() {
    let cfg = ProtocolConfig::new(3);
    let mut group = UdpGroup::spawn(cfg, Duration::from_millis(4), 0.0, 59).unwrap();
    let mid = group
        .handle(2)
        .submit(Bytes::from_static(b"last words"), vec![])
        .unwrap();
    assert_eq!(drain_until(group.handle(2), 1, 10), vec![mid]);

    let victim = group.handle(2);
    victim.kill().unwrap();
    // Nothing stands between the caller and the member's state: each call
    // finds it dead under the lock, none waits out a timeout.
    let asked = Instant::now();
    let gone = |r: Result<(), GroupError>| assert!(matches!(r, Err(GroupError::ProcessGone)));
    gone(
        victim
            .submit(Bytes::from_static(b"too late"), vec![])
            .map(drop),
    );
    gone(victim.status().map(drop));
    gone(victim.with_engine(|e| e.gauges()).map(drop));
    gone(victim.kill());
    assert!(
        asked.elapsed() < Duration::from_millis(100),
        "a dead member took {:?} to say so",
        asked.elapsed()
    );
    // The counters outlive the member, and stop moving with it.
    let net = victim.net_stats();
    assert!(net.rounds > 0 && net.bytes_tx > 0 && net.bytes_rx > 0);
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(victim.net_stats().datagrams_tx, net.datagrams_tx);
    group.shutdown();
}

#[test]
fn the_member_lock_under_contention_keeps_order_and_loses_nothing() {
    // Two application threads submit to two members while a third reads
    // both engines in a tight loop; the members' own receiver and ticker
    // threads take the same locks all the while.
    const EACH: usize = 150;
    let n = 3;
    let cfg = ProtocolConfig::new(n);
    let group = UdpGroup::spawn(cfg, Duration::from_millis(4), 0.0, 67).unwrap();
    let (mut handles, shutdown) = group.into_handles();

    let start = Barrier::new(3);
    let done = AtomicBool::new(false);
    let submit_all = |h: &ProcessHandle| -> usize {
        start.wait();
        (0..EACH)
            .filter(|&k| h.submit(Bytes::from(vec![k as u8; 32]), vec![]).is_err())
            .count()
    };
    let (rejected, probes) = std::thread::scope(|s| {
        let a = s.spawn(|| submit_all(&handles[0]));
        let b = s.spawn(|| submit_all(&handles[1]));
        let prober = s.spawn(|| {
            start.wait();
            let mut probes = 0u64;
            while !done.load(Ordering::Relaxed) {
                for h in &handles[..2] {
                    h.with_engine(|e| e.gauges()).expect("member alive");
                    probes += 1;
                }
            }
            probes
        });
        let rejected = a.join().unwrap() + b.join().unwrap();
        done.store(true, Ordering::Relaxed);
        (rejected, prober.join().unwrap())
    });
    assert_eq!(rejected, 0, "a submit was refused");
    assert!(probes > 0);

    let mut digests = Vec::new();
    for (m, h) in handles.iter_mut().enumerate() {
        let mut log = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(30);
        while log.len() < 2 * EACH {
            let left = deadline.saturating_duration_since(Instant::now());
            match h.next_event(left) {
                Some(AppEvent::Delivered(msg)) => log.push((msg.mid, msg.deps.clone())),
                Some(_) => {}
                None => panic!("member {m} delivered {} of {}", log.len(), 2 * EACH),
            }
        }
        let (ok, detail) = check_delivery_log(&log);
        assert!(ok, "member {m}: {detail:?}");
        let mids: Vec<Mid> = log.iter().map(|(mid, _)| *mid).collect();
        digests.push(order_digests(n, &mids));
    }
    assert!(
        digests.windows(2).all(|w| w[0] == w[1]),
        "members disagree on per-origin order: {digests:x?}"
    );
    shutdown.shutdown();
}

#[test]
fn an_application_that_never_reads_its_events_does_not_block_shutdown() {
    let n = 3;
    let cfg = ProtocolConfig::new(n);
    let group = UdpGroup::spawn(cfg, Duration::from_millis(4), 0.0, 71).unwrap();
    let (handles, shutdown) = group.into_handles();
    let sent = 40u64;
    for k in 0..sent {
        handles[0]
            .submit(Bytes::from(vec![k as u8]), vec![])
            .unwrap();
    }
    // Everything is processed everywhere, and not one event is taken.
    let deadline = Instant::now() + Duration::from_secs(20);
    while !handles
        .iter()
        .all(|h| h.stats().is_ok_and(|s| s.processed == sent))
    {
        assert!(Instant::now() < deadline, "the group never converged");
        std::thread::sleep(Duration::from_millis(5));
    }
    let (stopped_tx, stopped) = mpsc::channel();
    let stopper = std::thread::spawn(move || {
        shutdown.shutdown();
        let _ = stopped_tx.send(());
    });
    stopped
        .recv_timeout(Duration::from_secs(5))
        .expect("shutdown() hung on a member with unread events");
    stopper.join().unwrap();
    assert!(matches!(handles[1].status(), Err(GroupError::ProcessGone)));
}

#[test]
fn members_converge_through_an_address_rewriting_lossy_proxy() {
    // Every inter-member datagram crosses a relay that rewrites the source
    // address and drops/duplicates/delays traffic — sender identity must
    // come from the fragment header, and recovery must absorb the faults.
    let n = 3;
    let cfg = ProtocolConfig::new(n).with_k(3).with_f_allowance(3);
    let mut sockets = Vec::new();
    let mut addrs = Vec::new();
    for _ in 0..n {
        let s = UdpSocket::bind("127.0.0.1:0").unwrap();
        addrs.push(s.local_addr().unwrap());
        sockets.push(s);
    }
    let proxy = LossyProxy::spawn(
        &addrs,
        ProxyOptions {
            drop_p: 0.10,
            dup_p: 0.10,
            delay_p: 0.25,
            max_delay: Duration::from_millis(5),
            seed: 47,
        },
    )
    .unwrap();

    let mut handles = Vec::new();
    let mut shutdown = GroupShutdown::empty();
    for (i, sock) in sockets.into_iter().enumerate() {
        let peers: Vec<_> = (0..n)
            .map(|j| if j == i { addrs[j] } else { proxy.addrs()[j] })
            .collect();
        let opts = NodeOptions::default()
            .round_duration(Duration::from_millis(4))
            .mtu(200); // small MTU: force multi-fragment transfers through the proxy
        let (h, s) =
            spawn_member_on(sock, ProcessId::from_index(i), peers, cfg.clone(), opts).unwrap();
        handles.push(h);
        shutdown.merge(s);
    }

    let mut expected = HashSet::new();
    for k in 0..6u8 {
        // 512-byte payloads cannot fit one 200-byte datagram: every data
        // PDU crosses the proxy as a multi-fragment transfer.
        let payload = Bytes::from(vec![k; 512]);
        expected.insert(handles[(k % 3) as usize].submit(payload, vec![]).unwrap());
    }
    for (m, h) in handles.iter_mut().enumerate() {
        let got = drain_until(h, expected.len(), 30);
        let set: HashSet<Mid> = got.iter().copied().collect();
        assert_eq!(
            set, expected,
            "member {m} failed to converge behind the proxy"
        );
    }
    let stats = proxy.stats();
    assert!(stats.received > 0, "proxy saw no traffic");
    shutdown.shutdown();
    proxy.shutdown();
}

#[test]
fn quiescence_predicate_reports_group_wide_completion() {
    let cfg = ProtocolConfig::new(3);
    let mut group = UdpGroup::spawn(cfg, Duration::from_millis(4), 0.0, 53).unwrap();
    let budget = 5u64;
    let mut expected = HashSet::new();
    for k in 0..budget {
        expected.insert(
            group
                .handle(0)
                .submit(Bytes::from(vec![k as u8]), vec![])
                .unwrap(),
        );
    }
    for m in 0..3 {
        let got = drain_until(group.handle(m), expected.len(), 15);
        assert_eq!(got.len(), expected.len(), "member {m} incomplete");
    }

    // Deliveries alone are not quiescence: the predicate also wants the
    // recovery hints of the latest decision covered. Poll until it holds
    // at every member.
    let deadline = Instant::now() + Duration::from_secs(15);
    let mut all = false;
    while Instant::now() < deadline && !all {
        all = (0..3).all(|m| {
            let submitted = if m == 0 { budget } else { 0 };
            group
                .handle(m)
                .with_engine(move |e| workload_quiescent(e, submitted, submitted))
                .unwrap_or(false)
        });
        if !all {
            std::thread::sleep(Duration::from_millis(50));
        }
    }
    assert!(all, "the group never reached workload quiescence");
    group.shutdown();
}

#[test]
fn idle_group_sends_only_protocol_traffic_after_the_barrier() {
    // Members past their barrier used to answer hellos with hellos, so any
    // two of them echoed each other for ever (thousands of datagrams per
    // second, both receiver threads spinning). An idle, lossless group must
    // put nothing on the wire but its rounds' requests and decisions.
    let n = 5;
    let cfg = ProtocolConfig::new(n);
    let mut group = UdpGroup::spawn(cfg, Duration::from_millis(4), 0.0, 61).unwrap();
    let deadline = Instant::now() + Duration::from_secs(20);
    while !(0..n).all(|m| group.handle(m).net_stats().rounds > 0) {
        assert!(Instant::now() < deadline, "the barrier never completed");
        std::thread::sleep(Duration::from_millis(10));
    }
    // Parting hello bursts and their acks are sent within a few round
    // trips of the barrier; let them land.
    std::thread::sleep(Duration::from_millis(200));

    let before: Vec<_> = (0..n).map(|m| group.handle(m).net_stats()).collect();
    std::thread::sleep(Duration::from_secs(1));
    let after: Vec<_> = (0..n).map(|m| group.handle(m).net_stats()).collect();

    let grew = |f: fn(&urcgc_runtime::NetStats) -> u64| -> u64 {
        after.iter().zip(&before).map(|(a, b)| f(a) - f(b)).sum()
    };
    let rounds = grew(|s| s.rounds);
    let sent = grew(|s| s.datagrams_tx);
    assert!(rounds > 0 && sent > 0, "the group stopped");
    // The most an idle engine sends in one round is a decision to its n-1
    // peers (measured: about 1.1 datagrams per member-round; the echo ran
    // at several hundred). `n * n` absorbs answers to frames of the round
    // before the window.
    assert!(
        sent <= rounds * (n as u64 - 1) + (n * n) as u64,
        "{sent} datagrams in {rounds} member-rounds: not protocol traffic"
    );
    assert_eq!(grew(|s| s.malformed), 0);
    group.shutdown();
}

#[test]
fn a_member_past_its_barrier_acks_hellos_and_never_answers_acks() {
    // The test plays member 1 of a two-member group by hand on a raw
    // socket, as a peer whose view of member 0 was lost: stuck in its
    // barrier, it keeps sending hellos, and the answer must release it.
    const HELLO: u8 = 0xFF;
    const HELLO_ACK: u8 = 0xFE;
    let sock0 = UdpSocket::bind("127.0.0.1:0").unwrap();
    let peer = UdpSocket::bind("127.0.0.1:0").unwrap();
    peer.set_read_timeout(Some(Duration::from_millis(20)))
        .unwrap();
    let addrs = vec![sock0.local_addr().unwrap(), peer.local_addr().unwrap()];
    let (handle, shutdown) = spawn_member_on(
        sock0,
        ProcessId(0),
        addrs.clone(),
        ProtocolConfig::new(2),
        NodeOptions::default().round_duration(Duration::from_millis(4)),
    )
    .unwrap();

    // Everything member 0 sends the peer within `window` that is a hello
    // or a hello-ack (engine traffic is skipped).
    let greetings = |window: Duration| -> Vec<[u8; 3]> {
        let until = Instant::now() + window;
        let mut buf = [0u8; 2048];
        let mut got = Vec::new();
        while Instant::now() < until {
            if let Ok((3, _)) = peer.recv_from(&mut buf) {
                got.push([buf[0], buf[1], buf[2]]);
            }
        }
        got
    };

    // One hello completes member 0's barrier; wait for its first round.
    peer.send_to(&[HELLO, 1, 0], addrs[0]).unwrap();
    let deadline = Instant::now() + Duration::from_secs(20);
    while handle.net_stats().rounds == 0 {
        assert!(Instant::now() < deadline, "the barrier never completed");
        std::thread::sleep(Duration::from_millis(5));
    }
    greetings(Duration::from_millis(100)); // barrier-time hellos, discarded

    peer.send_to(&[HELLO, 1, 0], addrs[0]).unwrap();
    assert_eq!(
        greetings(Duration::from_millis(300)),
        vec![[HELLO_ACK, 0, 0]],
        "a hello after the barrier is answered by exactly one ack"
    );
    peer.send_to(&[HELLO_ACK, 1, 0], addrs[0]).unwrap();
    assert_eq!(
        greetings(Duration::from_millis(300)),
        Vec::<[u8; 3]>::new(),
        "an ack must never be answered"
    );
    drop(handle);
    shutdown.shutdown();
}

#[test]
fn a_sender_id_outside_the_group_costs_one_malformed_frame() {
    // The fragment header's `src` carries no checksum, and the engine
    // answers a recovery request *to* its sender: a well-formed request for
    // a held message with `src >= n` used to index past the peer table and
    // kill the driver thread. The test plays member 1 of a two-member group
    // on a raw socket and stays silent, so member 0's own message is never
    // stable and stays in its history; K is out of reach so it never leaves.
    let sock0 = UdpSocket::bind("127.0.0.1:0").unwrap();
    let peer = UdpSocket::bind("127.0.0.1:0").unwrap();
    peer.set_read_timeout(Some(Duration::from_millis(20)))
        .unwrap();
    let addrs = vec![sock0.local_addr().unwrap(), peer.local_addr().unwrap()];
    let (mut handle, shutdown) = spawn_member_on(
        sock0,
        ProcessId(0),
        addrs.clone(),
        ProtocolConfig::new(2).with_k(100_000),
        NodeOptions::default().round_duration(Duration::from_millis(4)),
    )
    .unwrap();
    peer.send_to(&[0xFF, 1, 0], addrs[0]).unwrap(); // hello: barrier done
    let held = handle.submit(Bytes::from_static(b"held"), vec![]).unwrap();
    assert_eq!(drain_until(&mut handle, 1, 20), vec![held]);

    // The request, as member `src` would put it on the wire.
    let request_from = |src: u16| {
        let rq = Pdu::RecoveryRq(RecoveryRq {
            requester: ProcessId(1),
            origin: ProcessId(0),
            after_seq: 0,
            upto_seq: 1,
        });
        let frame = encode_group(GroupId(0), &encode_pdu(&rq));
        for gram in Fragmenter::new(ProcessId(src), 1400).split(&frame) {
            peer.send_to(&gram, addrs[0]).unwrap();
        }
    };
    // Recovery replies member 0 sends the peer within `window`.
    let replies = |window: Duration| -> usize {
        let until = Instant::now() + window;
        let mut reasm = Reassembler::new(Duration::from_secs(2));
        let mut buf = [0u8; 2048];
        let mut got = 0;
        while Instant::now() < until {
            let Ok((len, _)) = peer.recv_from(&mut buf) else {
                continue;
            };
            let gram = Bytes::copy_from_slice(&buf[..len]);
            if let Some((_, frame)) = reasm.accept(gram, Duration::ZERO) {
                let inner = decode_group(&frame).expect("group envelope").inner;
                got += usize::from(frame_kind(&inner) == Some(PduKind::RecoveryReply));
            }
        }
        got
    };

    let before = handle.net_stats().malformed;
    request_from(2);
    assert_eq!(
        replies(Duration::from_millis(300)),
        0,
        "a stray was answered"
    );
    assert_eq!(handle.net_stats().malformed, before + 1);
    assert!(handle.status().unwrap().is_active(), "the driver died");
    // The same request from a member is served: it was well formed and the
    // message is held, so only the sender id made the difference.
    request_from(1);
    assert_eq!(replies(Duration::from_millis(300)), 1);
    assert_eq!(handle.net_stats().malformed, before + 1);
    drop(handle);
    shutdown.shutdown();
}

/// Taken by the tests that stall whole groups or time a delivery, so that
/// they do not share the machine with each other: a member that another
/// test's group keeps off the processor for two subruns is, to its peers,
/// a crashed member.
static WALL_CLOCK: Mutex<()> = Mutex::new(());

fn wall_clock() -> MutexGuard<'static, ()> {
    WALL_CLOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Freezes the members `which` together for `d`, each by a thread holding
/// its lock — nothing of theirs runs meanwhile, as on a stalled host. The
/// threads reach for the locks together and sleep once all are held, so
/// no member runs while another is frozen.
fn freeze(handles: &[ProcessHandle], which: &[usize], d: Duration) {
    let (reach, hold) = (Barrier::new(which.len()), Barrier::new(which.len()));
    std::thread::scope(|s| {
        for &m in which {
            let (h, reach, hold) = (&handles[m], &reach, &hold);
            s.spawn(move || {
                reach.wait();
                h.with_engine(|_| {
                    hold.wait();
                    std::thread::sleep(d);
                })
                .unwrap()
            });
        }
    });
}

/// Submits `count` messages round-robin over `senders`; every member in
/// `senders` must then deliver exactly those, in one per-origin order.
fn all_deliver(handles: &mut [ProcessHandle], senders: &[usize], count: usize, what: &str) {
    let n = handles.len();
    let mut expected = HashSet::new();
    for k in 0..count {
        let m = senders[k % senders.len()];
        let mid = handles[m]
            .submit(Bytes::from(vec![k as u8; 16]), vec![])
            .unwrap_or_else(|e| panic!("{what}: member {m} refused a submit: {e}"));
        expected.insert(mid);
    }
    let mut digests = Vec::new();
    for &m in senders {
        let got = drain_until(&mut handles[m], count, 15);
        let set: HashSet<Mid> = got.iter().copied().collect();
        assert_eq!(set, expected, "{what}: member {m} delivered {}", got.len());
        digests.push(order_digests(n, &got));
    }
    assert!(
        digests.windows(2).all(|w| w[0] == w[1]),
        "{what}: members disagree on per-origin order: {digests:x?}"
    );
}

#[test]
fn a_group_frozen_as_a_whole_survives_at_the_default_k() {
    let _turn = wall_clock();
    // K = 3 at 5 ms rounds: even the shortest freeze is ten subruns. A
    // member that ran every round it slept through back to back would see
    // K subruns pass with no request answered and expel its peers.
    let n = 5;
    let everyone: Vec<usize> = (0..n).collect();
    for (ms, seed) in [(100, 301), (300, 303), (600, 307)] {
        let what = format!("{ms} ms freeze of the whole group");
        let cfg = ProtocolConfig::new(n);
        let group = UdpGroup::spawn(cfg, Duration::from_millis(5), 0.0, seed).unwrap();
        let (mut handles, shutdown) = group.into_handles();
        all_deliver(&mut handles, &everyone, 5, "warm-up");

        freeze(&handles, &everyone, Duration::from_millis(ms));
        all_deliver(&mut handles, &everyone, 20, &what);
        // Twice K subruns later nobody has been expelled either.
        std::thread::sleep(Duration::from_millis(60));
        for (m, h) in handles.iter().enumerate() {
            let status = h.status();
            assert!(
                status.as_ref().is_ok_and(|s| s.is_active()),
                "{what}: member {m} is {status:?}"
            );
            assert!(h.net_stats().rounds_skipped > 0, "{what}: member {m}");
        }
        shutdown.shutdown();
    }
}

#[test]
fn a_member_frozen_alone_is_expelled_and_the_rest_carry_on() {
    let _turn = wall_clock();
    // The same freeze on one member is a crash as far as the others can
    // tell: they must detect it within K subruns, as the paper has them.
    let n = 5;
    let survivors = [0, 2, 3, 4];
    for (ms, seed) in [(100, 311), (300, 313), (600, 317)] {
        let what = format!("{ms} ms freeze of member 1");
        let cfg = ProtocolConfig::new(n);
        let group = UdpGroup::spawn(cfg, Duration::from_millis(5), 0.0, seed).unwrap();
        let (mut handles, shutdown) = group.into_handles();
        all_deliver(&mut handles, &[0, 1, 2, 3, 4], 5, "warm-up");

        freeze(&handles, &[1], Duration::from_millis(ms));
        // Woken, member 1 learns it is out of the group — from the
        // decisions that expelled it, or from its own count of decisions
        // missed — and ends at its next round.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let wait = deadline.saturating_duration_since(Instant::now());
            match handles[1].next_event(wait) {
                Some(AppEvent::StatusChanged(s)) if !s.is_active() => break,
                Some(_) => {}
                None => panic!("{what}: member 1 never left the group"),
            }
        }
        while !matches!(handles[1].status(), Err(GroupError::ProcessGone)) {
            assert!(Instant::now() < deadline, "{what}: member 1 still runs");
            std::thread::sleep(Duration::from_millis(1));
        }

        all_deliver(&mut handles, &survivors, 20, &what);
        for m in survivors {
            let h = &handles[m];
            assert!(h.status().unwrap().is_active(), "{what}: member {m}");
            let sees_1 = h.with_engine(|e| e.view().is_alive(ProcessId(1))).unwrap();
            assert!(!sees_1, "{what}: member {m} still counts member 1 in");
        }
        shutdown.shutdown();
    }
}

#[test]
fn a_message_submitted_at_spawn_is_not_held_for_the_first_tick() {
    let _turn = wall_clock();
    // 200 ms rounds: a round clock armed before the startup barrier, whose
    // first round is a period away, holds this message for 200 ms.
    let round = Duration::from_millis(200);
    let budget = Duration::from_millis(50);
    let cfg = ProtocolConfig::new(5);
    let mut group = UdpGroup::spawn(cfg, round, 0.0, 47).unwrap();
    let submitted = Instant::now();
    let mid = group
        .handle(0)
        .submit(Bytes::from_static(b"first"), vec![])
        .unwrap();
    for m in 0..5 {
        loop {
            let left = (submitted + budget).saturating_duration_since(Instant::now());
            match group.handle(m).next_event(left) {
                Some(AppEvent::Delivered(msg)) => {
                    assert_eq!(msg.mid, mid);
                    break;
                }
                Some(_) => {}
                None => panic!("member {m}: no delivery within {budget:?} of spawn"),
            }
        }
    }
    group.shutdown();
}
