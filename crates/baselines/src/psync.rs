//! Executable Psync baseline (Peterson, Buchholz, Schlichting 1989).
//!
//! Psync maintains a **context graph**: each message explicitly lists the
//! messages at the leaves of the sender's current view of the conversation,
//! and a receiver delivers a message only when its whole context (ancestor
//! closure) has been delivered. Two behaviours the paper calls out are
//! modeled faithfully:
//!
//! * **flow control by deletion** — "it consists in the deletion of the
//!   messages exceeding a given upper bound, thus increasing the rate of
//!   omission failures" (Section 6): when the waiting buffer is full, the
//!   incoming message is dropped on the floor;
//! * **`mask_out` on failure** — a specialized operation "activated all
//!   over again whenever a failure occurs" that lets the group agree on the
//!   new composition; modeled as a blocking all-to-all exchange
//!   ([`crate::analytic::PsyncCost`]) during which delivery is frozen.

use std::collections::HashMap;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use urcgc_simnet::{FaultPlan, NetCtx, Node, SimNet, SimOptions};
use urcgc_types::{ProcessId, Round};

use crate::analytic::PsyncCost;
use crate::cbcast::Load;

/// A message in the context graph, identified by `(sender, seq)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PsMsg {
    /// Originating process.
    pub sender: ProcessId,
    /// Per-sender sequence number, from 1.
    pub seq: u64,
    /// Context: the leaves of the sender's graph when it sent this message.
    pub context: Vec<(ProcessId, u64)>,
    /// Round of generation.
    pub round: Round,
    /// Payload.
    pub payload: Bytes,
}

impl PsMsg {
    /// Encodes the message.
    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::new();
        b.put_u16_le(self.sender.0);
        b.put_u64_le(self.seq);
        b.put_u64_le(self.round.0);
        b.put_u16_le(self.context.len() as u16);
        for &(p, s) in &self.context {
            b.put_u16_le(p.0);
            b.put_u64_le(s);
        }
        b.put_u32_le(self.payload.len() as u32);
        b.put_slice(&self.payload);
        b.freeze()
    }

    /// Decodes a frame produced by [`PsMsg::encode`].
    pub fn decode(mut frame: Bytes) -> Option<PsMsg> {
        if frame.remaining() < 20 {
            return None;
        }
        let sender = ProcessId(frame.get_u16_le());
        let seq = frame.get_u64_le();
        let round = Round(frame.get_u64_le());
        let clen = frame.get_u16_le() as usize;
        if frame.remaining() < clen * 10 + 4 {
            return None;
        }
        let context = (0..clen)
            .map(|_| {
                let p = ProcessId(frame.get_u16_le());
                let s = frame.get_u64_le();
                (p, s)
            })
            .collect();
        let plen = frame.get_u32_le() as usize;
        if frame.remaining() < plen {
            return None;
        }
        let payload = frame.split_to(plen);
        Some(PsMsg {
            sender,
            seq,
            round,
            payload,
            context,
        })
    }
}

/// One Psync group member.
pub struct PsyncNode {
    me: ProcessId,
    n: usize,
    /// Per-sender delivered frontier: messages `1..=frontier[s]` from sender
    /// `s` have been delivered. Delivery is per-sender in-order (a message's
    /// context includes its own predecessor), so the delivered set is always
    /// a contiguous prefix and this vector carries the whole membership role
    /// of the old per-message map — in O(n) memory instead of O(messages).
    frontier: Vec<u64>,
    /// Delivered messages with rounds (probe; empty when `load.probe` is
    /// off — the frontier above keeps the protocol running without it).
    delivered: HashMap<(ProcessId, u64), Round>,
    /// Messages delivered here (always counted, probed or not).
    delivered_count: u64,
    /// Current leaves of the local context graph.
    leaves: Vec<(ProcessId, u64)>,
    /// Received but undeliverable messages, bounded by `waiting_bound`.
    waiting: Vec<PsMsg>,
    /// Upper bound on the waiting buffer (Psync's deletion flow control).
    waiting_bound: usize,
    load: Load,
    submitted: u64,
    next_seq: u64,
    seed_counter: u64,
    generated: HashMap<(ProcessId, u64), Round>,
    /// Messages deleted by the flow-control bound — induced omissions.
    pub induced_omissions: u64,
    /// Suspicion bookkeeping for mask_out.
    last_heard: Vec<Round>,
    view: Vec<bool>,
    suspicion_rounds: u64,
    mask_out_until: Option<Round>,
    /// Rounds spent frozen in mask_out.
    pub frozen_rounds: u64,
}

impl PsyncNode {
    /// Builds member `me` of an `n`-process Psync group with the given
    /// waiting-buffer bound.
    pub fn new(me: ProcessId, n: usize, waiting_bound: usize, load: Load) -> Self {
        PsyncNode {
            me,
            n,
            frontier: vec![0; n],
            delivered: HashMap::new(),
            delivered_count: 0,
            leaves: Vec::new(),
            waiting: Vec::new(),
            waiting_bound,
            load,
            submitted: 0,
            next_seq: 1,
            seed_counter: 0,
            generated: HashMap::new(),
            induced_omissions: 0,
            last_heard: vec![Round(0); n],
            view: vec![true; n],
            suspicion_rounds: 8,
            mask_out_until: None,
            frozen_rounds: 0,
        }
    }

    /// Delivered messages with their local delivery rounds.
    pub fn deliveries(&self) -> &HashMap<(ProcessId, u64), Round> {
        &self.delivered
    }

    /// Own generation rounds.
    pub fn generated(&self) -> &HashMap<(ProcessId, u64), Round> {
        &self.generated
    }

    /// Messages generated so far.
    pub fn submitted(&self) -> u64 {
        self.submitted
    }

    /// Messages delivered here (including own), counter-only.
    pub fn delivered_count(&self) -> u64 {
        self.delivered_count
    }

    /// Current waiting-buffer population.
    pub fn waiting_len(&self) -> usize {
        self.waiting.len()
    }

    /// Whether `(sender, seq)` has been delivered here (frontier membership;
    /// out-of-range senders — e.g. from a corrupted frame — are never
    /// delivered).
    fn is_delivered(&self, sender: ProcessId, seq: u64) -> bool {
        seq >= 1 && seq <= self.frontier.get(sender.index()).copied().unwrap_or(0)
    }

    fn context_satisfied(&self, msg: &PsMsg) -> bool {
        // In-order per sender plus full context delivered.
        let prev_ok = msg.seq == 1 || self.is_delivered(msg.sender, msg.seq - 1);
        prev_ok && msg.context.iter().all(|&(p, s)| self.is_delivered(p, s))
    }

    fn deliver(&mut self, msg: PsMsg, now: Round) {
        // The delivered message replaces its context entries as a leaf.
        self.leaves
            .retain(|k| *k != (msg.sender, msg.seq) && !msg.context.contains(k));
        self.leaves.push((msg.sender, msg.seq));
        debug_assert_eq!(
            msg.seq,
            self.frontier[msg.sender.index()] + 1,
            "per-sender delivery out of order"
        );
        self.frontier[msg.sender.index()] = msg.seq;
        self.delivered_count += 1;
        if self.load.probe {
            self.delivered.insert((msg.sender, msg.seq), now);
        }
    }

    fn drain(&mut self, now: Round) {
        if self.mask_out_until.is_some() {
            return;
        }
        loop {
            let idx = self.waiting.iter().position(|m| self.context_satisfied(m));
            match idx {
                Some(i) => {
                    let msg = self.waiting.swap_remove(i);
                    self.deliver(msg, now);
                }
                None => return,
            }
        }
    }

    fn maybe_mask_out(&mut self, now: Round, net: &mut NetCtx<'_>) {
        if self.mask_out_until.is_some() || now.0 < self.suspicion_rounds {
            return;
        }
        let suspects: Vec<ProcessId> = (0..self.n)
            .map(ProcessId::from_index)
            .filter(|&p| {
                p != self.me
                    && self.view[p.index()]
                    && now.0 - self.last_heard[p.index()].0 > self.suspicion_rounds
            })
            .collect();
        if suspects.is_empty() {
            return;
        }
        // mask_out: all-to-all agreement on the new membership, restarted
        // for each failure; delivery frozen meanwhile.
        let cost = PsyncCost { n: self.n };
        let share = cost
            .mask_out_msgs_for(suspects.len() as u32)
            .div_ceil(self.n as u64);
        for _ in 0..share {
            net.broadcast("psync-maskout", Bytes::from_static(&[0u8; 16]));
        }
        for p in suspects {
            self.view[p.index()] = false;
            self.waiting.retain(|m| m.sender != p);
        }
        self.mask_out_until = Some(Round(now.0 + 4 * self.n as u64 / 2));
    }
}

impl Node for PsyncNode {
    fn on_round(&mut self, round: Round, net: &mut NetCtx<'_>) {
        if let Some(until) = self.mask_out_until {
            if round < until {
                self.frozen_rounds += 1;
                return;
            }
            self.mask_out_until = None;
            self.drain(round);
        }
        self.maybe_mask_out(round, net);

        if self.submitted < self.load.total {
            self.seed_counter += 1;
            let x = (self.me.0 as u64 + 7)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(self.seed_counter.wrapping_mul(0xD6E8_FEB8_6659_FD93));
            let u = (x >> 11) as f64 / (1u64 << 53) as f64;
            if u < self.load.gen_prob {
                let seq = self.next_seq;
                self.next_seq += 1;
                let msg = PsMsg {
                    sender: self.me,
                    seq,
                    context: self.leaves.clone(),
                    round,
                    payload: Bytes::from(vec![0u8; self.load.payload_size]),
                };
                self.submitted += 1;
                if self.load.probe {
                    self.generated.insert((self.me, seq), round);
                }
                self.deliver(msg.clone(), round);
                net.broadcast("psync-data", msg.encode());
            }
        }
    }

    fn on_frame(&mut self, from: ProcessId, frame: Bytes, net: &mut NetCtx<'_>) {
        let now = net.round();
        self.last_heard[from.index()] = now;
        let Some(msg) = PsMsg::decode(frame) else {
            return;
        };
        if !self.view[msg.sender.index()] || self.is_delivered(msg.sender, msg.seq) {
            return;
        }
        if self.mask_out_until.is_none() && self.context_satisfied(&msg) {
            self.deliver(msg, now);
            self.drain(now);
        } else if self.waiting.len() >= self.waiting_bound {
            // Psync flow control: delete the overflow — an induced omission.
            self.induced_omissions += 1;
        } else {
            self.waiting.push(msg);
        }
    }

    fn is_done(&self) -> bool {
        self.submitted >= self.load.total && self.waiting.is_empty()
    }
}

/// Measured output of a Psync run.
pub struct PsyncReport {
    /// Rounds executed.
    pub rounds: u64,
    /// Delays (rtd) for messages delivered by every surviving member.
    pub delays: urcgc_metrics::DelayStats,
    /// Engine counters.
    pub stats: urcgc_simnet::SimStats,
    /// Flow-control deletions per node.
    pub induced_omissions: Vec<u64>,
    /// Fraction of generated messages delivered group-wide.
    pub delivery_ratio: f64,
}

/// Runs a Psync group to quiescence and reports.
pub fn run_psync_group(
    n: usize,
    waiting_bound: usize,
    load: Load,
    faults: FaultPlan,
    seed: u64,
    max_rounds: u64,
) -> PsyncReport {
    let nodes: Vec<PsyncNode> = (0..n)
        .map(|i| PsyncNode::new(ProcessId::from_index(i), n, waiting_bound, load))
        .collect();
    let mut net = SimNet::new(
        nodes,
        faults,
        SimOptions {
            max_rounds,
            seed,
            ..SimOptions::default()
        },
    );
    let rounds = net.run_until_settled(max_rounds, 4, SimNet::all_done);
    let alive: Vec<bool> = (0..n)
        .map(|i| !net.is_crashed(ProcessId::from_index(i)))
        .collect();
    let mut generated: HashMap<(ProcessId, u64), Round> = HashMap::new();
    for node in net.nodes() {
        generated.extend(node.generated().iter().map(|(&k, &v)| (k, v)));
    }
    let mut delays = urcgc_metrics::DelayStats::new();
    let mut fully = 0u64;
    for (&key, &gen) in &generated {
        let mut max_round = 0u64;
        let mut all = true;
        for (i, node) in net.nodes().iter().enumerate() {
            if !alive[i] {
                continue;
            }
            match node.deliveries().get(&key) {
                Some(r) => max_round = max_round.max(r.0),
                None => {
                    all = false;
                    break;
                }
            }
        }
        if all {
            fully += 1;
            delays.record(urcgc_simnet::rounds_to_rtd(
                max_round.saturating_sub(gen.0).max(1),
            ));
        }
    }
    let induced = net.nodes().iter().map(|nd| nd.induced_omissions).collect();
    let ratio = if generated.is_empty() {
        1.0
    } else {
        fully as f64 / generated.len() as f64
    };
    let stats = net.stats().clone();
    PsyncReport {
        rounds,
        delays,
        stats,
        induced_omissions: induced,
        delivery_ratio: ratio,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn msg_roundtrip() {
        let m = PsMsg {
            sender: ProcessId(1),
            seq: 4,
            context: vec![(ProcessId(0), 2), (ProcessId(2), 1)],
            round: Round(6),
            payload: Bytes::from_static(b"ctx"),
        };
        assert_eq!(PsMsg::decode(m.encode()), Some(m));
    }

    #[test]
    fn decode_rejects_truncation() {
        let m = PsMsg {
            sender: ProcessId(0),
            seq: 1,
            context: vec![(ProcessId(1), 1)],
            round: Round(0),
            payload: Bytes::from_static(b"z"),
        };
        let enc = m.encode();
        for cut in 0..enc.len() {
            let mut part = enc.clone();
            part.truncate(cut);
            assert_eq!(PsMsg::decode(part), None);
        }
    }

    #[test]
    fn context_graph_orders_delivery() {
        let report = run_psync_group(4, 64, Load::fixed(10, 8), FaultPlan::none(), 3, 1_000);
        assert_eq!(report.delivery_ratio, 1.0);
        assert!(report.delays.min().unwrap() >= 0.5);
        assert!(report.induced_omissions.iter().all(|&x| x == 0));
    }

    #[test]
    fn tiny_waiting_bound_induces_omissions() {
        // Heavy load + omissions + a 1-slot buffer: deletions must occur.
        let faults = FaultPlan::none().omission_rate(0.05);
        let report = run_psync_group(6, 1, Load::fixed(30, 8), faults, 5, 2_000);
        let total: u64 = report.induced_omissions.iter().sum();
        assert!(
            total > 0,
            "expected flow-control deletions, got {:?}",
            report.induced_omissions
        );
        assert!(report.delivery_ratio < 1.0);
    }

    #[test]
    fn mask_out_fires_on_crash() {
        let faults = FaultPlan::none().crash_at(ProcessId(3), Round(3));
        let report = run_psync_group(4, 64, Load::fixed(25, 8), faults, 7, 3_000);
        assert!(report.stats.traffic.get("psync-maskout").count > 0);
    }
}
