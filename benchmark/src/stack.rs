//! `stack_saturated`: the benchmark's own single-thread inline driver.
//!
//! Every layer a frame crosses in `crates/runtime/src/node.rs` —
//! `Node::submit` / `begin_round` / `poll_output`, `Node::encode`,
//! `Fragmenter::split`, a loopback `UdpSocket`, `Reassembler::accept`,
//! `Node::on_frame` — with the timer, the three threads per member and the
//! channels between them removed. Rounds run back to back (**closed
//! loop**: round `r + 1` starts when round `r`'s frames are all consumed),
//! so the run is CPU-bound on exactly those layers and a codec, envelope,
//! fragmentation, engine or syscall-batching gain shows as throughput.
//! The sockets are real and non-blocking; loopback hands a datagram to the
//! receiving socket inside `send_to`, so a sweep that finds every socket
//! empty means the round's traffic is consumed.
//!
//! This is also the traced workload: the driver is generic over
//! [`Probe`], and the traced run wraps each call in a span.

use std::io::ErrorKind;
use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

use bytes::Bytes;
use urcgc::{Node, Output};
use urcgc_metrics::Json;
use urcgc_runtime::{Fragmenter, Reassembler};
use urcgc_types::{GroupId, Mid, Pdu, ProcessId, ProtocolConfig, Round};

use crate::checks::{check_members, digests_json, MemberCheck};
use crate::loadgen::payload;
use crate::metrics::{Layers, Outcome};
use crate::stats::{
    exact_mismatch, latency_quantiles_ms, lower_quartile, process_cpu_secs, repeat_for,
};
use crate::trace::{Kind, NoProbe, Probe, SpanProbe};
use crate::RunArgs;

const GROUP: GroupId = GroupId(0);
const MTU: usize = 1400;
/// Rounds a repetition may run past its last submission before the
/// messages still missing count as failed.
const DRAIN_ROUNDS: u64 = 400;

/// Parameters of the inline-driver workload.
pub struct StackParams {
    /// Group size.
    pub n: usize,
    /// Payload bytes per message.
    pub payload: usize,
    /// Messages per repetition: message `k` is submitted by member
    /// `k % n` at the start of round `k / n`.
    pub msgs: u64,
}

struct Member {
    node: Node,
    socket: UdpSocket,
    frag: Fragmenter,
    reasm: Reassembler,
    check: MemberCheck,
}

/// Submission instants and delivery counts, per origin and sequence
/// number (dense: the labeler numbers each origin's messages 1, 2, …).
struct Tracker {
    n: usize,
    submit_ns: Vec<Vec<u64>>,
    seen: Vec<Vec<u8>>,
    latency_ns: Vec<u64>,
}

impl Tracker {
    fn submitted(&mut self, mid: Mid, at_ns: u64) {
        let o = mid.origin.index();
        debug_assert_eq!(mid.seq as usize, self.submit_ns[o].len() + 1);
        self.submit_ns[o].push(at_ns);
        self.seen[o].push(0);
    }

    /// Counts one delivery; on the last member's, records the latency.
    fn delivered(&mut self, mid: Mid, epoch: Instant) {
        let o = mid.origin.index();
        let Some(seen) = self
            .seen
            .get_mut(o)
            .and_then(|s| s.get_mut(mid.seq as usize - 1))
        else {
            return; // not one of ours; the member check reports it
        };
        *seen += 1;
        if *seen as usize == self.n {
            let now = epoch.elapsed().as_nanos() as u64;
            self.latency_ns
                .push(now - self.submit_ns[o][mid.seq as usize - 1]);
        }
    }
}

/// The group under test plus the driver's counters.
struct Stack {
    members: Vec<Member>,
    peers: Vec<SocketAddr>,
    tracker: Tracker,
    epoch: Instant,
    buf: Vec<u8>,
    round: u64,
    datagrams_tx: u64,
    datagrams_rx: u64,
    wire_bytes: u64,
    discarded: u64,
}

impl Stack {
    /// Binds the sockets, builds the nodes and delivers one warm-up
    /// message everywhere (the same shape as the UDP workloads' set-up).
    fn new<P: Probe>(p: &StackParams, seed: u64, probe: &mut P) -> Result<Stack, String> {
        let cfg = ProtocolConfig::new(p.n);
        let mut members = Vec::with_capacity(p.n);
        let mut peers = Vec::with_capacity(p.n);
        for i in 0..p.n {
            let socket = UdpSocket::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
            socket.set_nonblocking(true).map_err(|e| e.to_string())?;
            peers.push(socket.local_addr().map_err(|e| e.to_string())?);
            let me = ProcessId::from_index(i);
            members.push(Member {
                node: Node::single(me, GROUP, cfg.clone()),
                socket,
                frag: Fragmenter::new(me, MTU),
                reasm: Reassembler::new(Duration::from_secs(2)),
                check: MemberCheck::new(p.n),
            });
        }
        let mut stack = Stack {
            members,
            peers,
            tracker: Tracker {
                n: p.n,
                submit_ns: vec![Vec::new(); p.n],
                seen: vec![Vec::new(); p.n],
                latency_ns: Vec::new(),
            },
            epoch: Instant::now(),
            buf: vec![0u8; 64 * 1024],
            round: 0,
            datagrams_tx: 0,
            datagrams_rx: 0,
            wire_bytes: 0,
            discarded: 0,
        };
        stack.submit(0, payload(seed, usize::MAX, p.payload), probe)?;
        while stack.tracker.latency_ns.is_empty() {
            if stack.round > DRAIN_ROUNDS {
                return Err("warm-up message not delivered everywhere".into());
            }
            stack.run_round(probe)?;
        }
        stack.tracker.latency_ns.clear();
        Ok(stack)
    }

    fn submit<P: Probe>(
        &mut self,
        member: usize,
        body: Bytes,
        probe: &mut P,
    ) -> Result<(), String> {
        let at_ns = self.epoch.elapsed().as_nanos() as u64;
        probe.begin(Kind::Submit, member);
        let mid = self.members[member].node.submit(GROUP, body, &[]);
        let mid = mid.map_err(|e| format!("member {member} rejected a submit: {e}"))?;
        probe.touch(mid);
        probe.end();
        self.tracker.submitted(mid, at_ns);
        Ok(())
    }

    /// One protocol round: every member begins the round and flushes, then
    /// sockets are swept until a whole sweep finds them all empty.
    fn run_round<P: Probe>(&mut self, probe: &mut P) -> Result<(), String> {
        let round = Round(self.round);
        self.round += 1;
        let now = self.epoch.elapsed();
        for i in 0..self.members.len() {
            probe.begin(Kind::BeginRound, i);
            self.members[i].node.begin_round(round);
            probe.end();
            self.members[i].reasm.evict_expired(now);
            self.flush(i, probe)?;
        }
        loop {
            let mut progressed = false;
            for i in 0..self.members.len() {
                while self.receive_one(i, now, probe)? {
                    progressed = true;
                }
            }
            if !progressed {
                return Ok(());
            }
        }
    }

    /// Takes one datagram off member `i`'s socket, if any, and acts on it
    /// the way the runtime's driver loop does.
    fn receive_one<P: Probe>(
        &mut self,
        i: usize,
        now: Duration,
        probe: &mut P,
    ) -> Result<bool, String> {
        probe.begin(Kind::Receive, i);
        probe.begin(Kind::RecvFrom, i);
        let got = self.members[i].socket.recv_from(&mut self.buf);
        probe.end();
        let len = match got {
            Ok((len, _)) => len,
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                probe.end();
                return Ok(false);
            }
            Err(e) => return Err(format!("recv_from on member {i}: {e}")),
        };
        self.datagrams_rx += 1;
        let gram = Bytes::copy_from_slice(&self.buf[..len]);
        probe.begin(Kind::ReasmAccept, i);
        let complete = self.members[i].reasm.accept(gram, now);
        probe.end();
        if let Some((from, frame)) = complete {
            probe.begin(Kind::OnFrame, i);
            self.members[i].node.on_frame(from, &frame);
            probe.end();
            self.flush(i, probe)?;
        }
        probe.end();
        Ok(true)
    }

    /// Drains member `i`'s outputs: frames to the sockets, deliveries to
    /// the tracker and the member's ordering check.
    fn flush<P: Probe>(&mut self, i: usize, probe: &mut P) -> Result<(), String> {
        probe.begin(Kind::Flush, i);
        loop {
            probe.begin(Kind::PollOutput, i);
            let out = self.members[i].node.poll_output();
            probe.end();
            let Some((group, out)) = out else { break };
            match out {
                Output::Send { to, pdu } => self.transmit(i, group, &pdu, Some(to), probe)?,
                Output::Broadcast { pdu } => {
                    if let Pdu::Data(msg) = &*pdu {
                        probe.touch(msg.mid);
                    }
                    self.transmit(i, group, &pdu, None, probe)?;
                }
                Output::Deliver { msg } => {
                    probe.touch(msg.mid);
                    self.members[i].check.on_deliver(&msg);
                    self.tracker.delivered(msg.mid, self.epoch);
                }
                Output::Discarded { mids } => self.discarded += mids.len() as u64,
                Output::Confirm { .. } | Output::StatusChanged { .. } => {}
            }
        }
        probe.end();
        Ok(())
    }

    /// Encodes and fragments once, then sends to one peer or to all.
    fn transmit<P: Probe>(
        &mut self,
        i: usize,
        group: GroupId,
        pdu: &Pdu,
        to: Option<ProcessId>,
        probe: &mut P,
    ) -> Result<(), String> {
        let member = &mut self.members[i];
        probe.begin(Kind::EncodeGroup, i);
        let frame = member.node.encode(group, pdu);
        probe.end();
        probe.begin(Kind::FragSplit, i);
        let grams = member.frag.split(&frame);
        probe.end();
        for (dest, addr) in self.peers.iter().enumerate() {
            if dest == i || to.is_some_and(|t| t.index() != dest) {
                continue;
            }
            for gram in &grams {
                probe.begin(Kind::SendTo, i);
                let sent = member.socket.send_to(gram, addr);
                probe.end();
                sent.map_err(|e| format!("send_to from member {i}: {e}"))?;
                self.datagrams_tx += 1;
                self.wire_bytes += gram.len() as u64;
            }
        }
        Ok(())
    }
}

/// What one repetition measured. Everything in `exact` is a count that
/// must repeat identically for the same seed.
struct Rep {
    setup_s: f64,
    wall_s: f64,
    cpu_s: f64,
    /// p50, p90 and p99 of the submit → delivered-everywhere latencies,
    /// ms. (Not the samples: kept per repetition they would make the run's
    /// peak memory grow with the number of repetitions.)
    latency_ms: [f64; 3],
    exact: Exact,
    problems: Vec<String>,
    /// Member 0's per-origin order digests (equal on every member when
    /// `problems` is empty).
    digests: Vec<u64>,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Exact {
    delivered_everywhere: u64,
    rounds: u64,
    datagrams_tx: u64,
    datagrams_rx: u64,
    wire_bytes: u64,
}

fn run_rep<P: Probe>(p: &StackParams, seed: u64, probe: &mut P) -> Result<Rep, String> {
    let built = Instant::now();
    let mut stack = Stack::new(p, seed, probe)?;
    let setup_s = built.elapsed().as_secs_f64();
    let body = payload(seed, 0, p.payload);

    let cpu0 = process_cpu_secs();
    let started = Instant::now();
    let mut next = 0u64;
    let mut drain = 0u64;
    while (stack.tracker.latency_ns.len() as u64) < p.msgs && drain < DRAIN_ROUNDS {
        if next == p.msgs {
            drain += 1;
        }
        for member in 0..p.n {
            if next < p.msgs {
                stack.submit(member, body.clone(), probe)?;
                next += 1;
            }
        }
        stack.run_round(probe)?;
    }
    let wall_s = started.elapsed().as_secs_f64();
    let cpu_s = process_cpu_secs() - cpu0;

    let delivered_everywhere = stack.tracker.latency_ns.len() as u64;
    if delivered_everywhere == 0 {
        return Err("no message was delivered everywhere".into());
    }
    stack.tracker.latency_ns.sort_unstable();
    let statuses: Vec<_> = stack
        .members
        .iter()
        .map(|m| m.node.engine(GROUP).expect("hosted").status())
        .collect();
    let submitted: Vec<u64> = stack.tracker.seen.iter().map(|s| s.len() as u64).collect();
    let checks: Vec<MemberCheck> = stack.members.into_iter().map(|m| m.check).collect();
    let mut problems = check_members(
        &checks,
        &statuses,
        &submitted,
        delivered_everywhere == p.msgs,
    );
    if stack.datagrams_tx != stack.datagrams_rx {
        problems.push(format!(
            "loopback dropped datagrams: {} sent, {} received",
            stack.datagrams_tx, stack.datagrams_rx
        ));
    }
    if stack.discarded > 0 {
        problems.push(format!(
            "{} messages destroyed by orphan elimination",
            stack.discarded
        ));
    }
    Ok(Rep {
        setup_s,
        wall_s,
        cpu_s,
        latency_ms: latency_quantiles_ms(&stack.tracker.latency_ns),
        exact: Exact {
            delivered_everywhere,
            rounds: stack.round,
            datagrams_tx: stack.datagrams_tx,
            datagrams_rx: stack.datagrams_rx,
            wire_bytes: stack.wire_bytes,
        },
        problems,
        digests: checks[0].digests(),
    })
}

/// Runs the workload: repetitions of the same seeded cell for the time
/// budget ([`repeat_for`]), reporting each metric's lower quartile. A
/// traced run alternates untraced and traced repetitions, so the tracing
/// overhead is measured against the same machine state.
pub fn run(p: &StackParams, args: &RunArgs) -> Result<Outcome, String> {
    let mut traced: Vec<(Rep, SpanProbe)> = Vec::new();
    let plain = repeat_for(args.seconds, || {
        if args.trace {
            let mut probe = SpanProbe::new();
            let rep = run_rep(p, args.seed, &mut probe)?;
            traced.push((rep, probe));
        }
        run_rep(p, args.seed, &mut NoProbe)
    })?;

    let first = plain[0].exact;
    let mut problems: Vec<String> = plain.iter().flat_map(|r| r.problems.clone()).collect();
    let all = plain.iter().chain(traced.iter().map(|(r, _)| r));
    problems.extend(exact_mismatch(all.map(|r| r.exact)));
    let low = |f: &dyn Fn(&Rep) -> f64| lower_quartile(&plain.iter().map(f).collect::<Vec<_>>());
    let msgs = first.delivered_everywhere as f64;
    let msgs_per_s = msgs / low(&|r| r.wall_s);

    let mut layers = Layers::default();
    if args.trace {
        layers.set("loadgen.deliver_all_p99_ms", low(&|r| r.latency_ms[2]));
        layers.set("loadgen.latency_samples", msgs);
        layers.set("wire_bytes_per_msg", first.wire_bytes as f64 / msgs);
        // The traced repetition at the lower quartile of their wall times
        // speaks for the spans.
        let traced_wall = lower_quartile(&traced.iter().map(|(r, _)| r.wall_s).collect::<Vec<_>>());
        let (rep, probe) = traced
            .iter()
            .find(|(r, _)| r.wall_s == traced_wall)
            .expect("the lower quartile is one of the samples");
        let traced_rate = msgs / traced_wall;
        let wall_ns = (rep.wall_s + rep.setup_s) * 1e9;
        for (kind, ns, share) in [
            (Kind::SendTo, "link.send_to_ns", Some("link.send_to_share")),
            (
                Kind::RecvFrom,
                "link.recv_from_ns",
                Some("link.recv_from_share"),
            ),
            (
                Kind::OnFrame,
                "core.on_frame_ns",
                Some("core.on_frame_share"),
            ),
            (Kind::BeginRound, "core.begin_round_ns", None),
            (Kind::Submit, "core.submit_ns", None),
            (Kind::PollOutput, "core.poll_output_ns", None),
            (
                Kind::EncodeGroup,
                "types.encode_group_ns",
                Some("types.encode_group_share"),
            ),
            (Kind::FragSplit, "runtime.frag_split_ns", None),
            (Kind::ReasmAccept, "runtime.reasm_accept_ns", None),
        ] {
            let t = probe.layer(kind);
            layers.set(ns, t.mean_ns());
            if let Some(share) = share {
                layers.set(share, t.self_ns as f64 / wall_ns);
            }
        }
        layers.set("stack.span_sum_share", probe.covered_ns() as f64 / wall_ns);
        layers.set("stack.trace_overhead_share", 1.0 - traced_rate / msgs_per_s);
        write_trace(args, probe, wall_ns as u64);
    }

    Ok(Outcome {
        attempted: p.msgs,
        failed: p.msgs - first.delivered_everywhere,
        problems,
        setup_s: low(&|r| r.setup_s),
        msgs_per_s,
        p50_ms: low(&|r| r.latency_ms[0]),
        p90_ms: low(&|r| r.latency_ms[1]),
        cpu_ms_per_kmsg: low(&|r| r.cpu_s * 1e6 / msgs),
        layers,
        detail: Json::obj()
            .with("loop", "closed")
            .with("n", p.n)
            .with("payload_bytes", p.payload)
            .with("msgs_per_repetition", p.msgs)
            .with("repetitions", plain.len())
            .with(
                "repetition_wall_s",
                Json::Arr(plain.iter().map(|r| r.wall_s.into()).collect()),
            )
            .with("link", "host loopback")
            .with("rounds", first.rounds)
            .with("datagrams", first.datagrams_tx)
            .with("wire_bytes", first.wire_bytes)
            .with("order_digests", digests_json(&plain[0].digests)),
    })
}

/// Writes the span aggregates and sampled chains where the run's other
/// outputs go; a failure to write costs the file, not the run.
fn write_trace(args: &RunArgs, probe: &SpanProbe, wall_ns: u64) {
    let Some(dir) = &args.out_dir else { return };
    let path = dir.join(format!("trace-stack_saturated-seed{}.json", args.seed));
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, probe.to_json(wall_ns).render_pretty()));
    match written {
        Ok(()) => eprintln!(
            "span trace: {} ({} sampled messages)",
            path.display(),
            probe.sampled()
        ),
        Err(e) => eprintln!("span trace not written to {}: {e}", path.display()),
    }
}
