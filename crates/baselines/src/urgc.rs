//! URGC — the authors' *totally ordered* predecessor (\[APR93\], Section 2).
//!
//! The paper positions urcgc against its own total-order sibling: services
//! like ABCAST/urgc impose one group-wide processing order whose "order
//! values are autonomously defined by the service provider", whereas urcgc
//! lets applications publish causal relations and processes concurrent
//! sequences independently. This module implements a faithful-in-spirit
//! urgc using the same rotating-coordinator/subrun machinery:
//!
//! * processes broadcast unlabeled messages and *hold* them unprocessed;
//! * each subrun the coordinator assigns the next batch of global order
//!   values to every message it has seen, and broadcasts the batch;
//! * members process held messages strictly in batch order — a missing
//!   message **head-of-line blocks** everything ordered after it until
//!   recovered from the coordinator.
//!
//! That head-of-line blocking is precisely the concurrency cost the paper's
//! Section 2 motivates causal ordering with; `tests/baseline_comparison.rs`
//! and the `total_vs_causal` bench measure it.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use urcgc_history::History;
use urcgc_simnet::{FaultPlan, NetCtx, Node, SimNet, SimOptions};
use urcgc_types::{tag, DataMsg, Mid, ProcessId, Round, Subrun};

use crate::cbcast::Load;

/// A message identifier in the total-order service: (sender, sender-local
/// sequence).
pub type TotalId = (ProcessId, u64);

/// The history key for a total-order id (same keyspace as urcgc's table).
fn mid_of(id: TotalId) -> Mid {
    Mid::new(id.0, id.1)
}

/// Frames of the urgc wire protocol.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum UFrame {
    /// Application broadcast (unordered until a batch names it).
    Data {
        /// Sender.
        sender: ProcessId,
        /// Sender-local sequence.
        seq: u64,
        /// Generation round.
        round: Round,
        /// Payload.
        payload: Bytes,
    },
    /// Coordinator's order batch for one subrun: the listed messages get
    /// the next consecutive global order values.
    Batch {
        /// Subrun of the batch.
        subrun: Subrun,
        /// First global order value assigned by this batch.
        first_order: u64,
        /// Messages in their assigned order.
        ids: Vec<TotalId>,
    },
    /// Ask the coordinator (or any holder) to resend a message.
    Fetch {
        /// Who asks.
        requester: ProcessId,
        /// What they need.
        id: TotalId,
    },
    /// Ask a peer for the global order suffix starting at `from_order`
    /// (recovers lost batches).
    FetchOrder {
        /// Who asks.
        requester: ProcessId,
        /// First missing order value.
        from_order: u64,
    },
    /// Coordinator anti-entropy: the current global order length. A member
    /// whose own order is shorter missed a batch (possibly the final one of
    /// the run, after which no newer batch would ever reveal the gap) and
    /// pulls the suffix with [`UFrame::FetchOrder`].
    Digest {
        /// Sender (the subrun coordinator).
        sender: ProcessId,
        /// Global order length as known by the sender.
        order_len: u64,
    },
}

impl UFrame {
    /// Encodes the frame.
    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::new();
        match self {
            UFrame::Data {
                sender,
                seq,
                round,
                payload,
            } => {
                b.put_u8(tag::URGC_DATA);
                b.put_u16_le(sender.0);
                b.put_u64_le(*seq);
                b.put_u64_le(round.0);
                b.put_u32_le(payload.len() as u32);
                b.put_slice(payload);
            }
            UFrame::Batch {
                subrun,
                first_order,
                ids,
            } => {
                b.put_u8(tag::URGC_BATCH);
                b.put_u64_le(subrun.0);
                b.put_u64_le(*first_order);
                b.put_u16_le(ids.len() as u16);
                for (p, s) in ids {
                    b.put_u16_le(p.0);
                    b.put_u64_le(*s);
                }
            }
            UFrame::Fetch { requester, id } => {
                b.put_u8(tag::URGC_FETCH);
                b.put_u16_le(requester.0);
                b.put_u16_le(id.0 .0);
                b.put_u64_le(id.1);
            }
            UFrame::FetchOrder {
                requester,
                from_order,
            } => {
                b.put_u8(tag::URGC_FETCH_ORDER);
                b.put_u16_le(requester.0);
                b.put_u64_le(*from_order);
            }
            UFrame::Digest { sender, order_len } => {
                b.put_u8(tag::URGC_DIGEST);
                b.put_u16_le(sender.0);
                b.put_u64_le(*order_len);
            }
        }
        b.freeze()
    }

    /// Decodes a frame.
    pub fn decode(mut f: Bytes) -> Option<UFrame> {
        if f.remaining() < 1 {
            return None;
        }
        match f.get_u8() {
            tag::URGC_DATA => {
                if f.remaining() < 22 {
                    return None;
                }
                let sender = ProcessId(f.get_u16_le());
                let seq = f.get_u64_le();
                let round = Round(f.get_u64_le());
                let len = f.get_u32_le() as usize;
                if f.remaining() < len {
                    return None;
                }
                Some(UFrame::Data {
                    sender,
                    seq,
                    round,
                    payload: f.split_to(len),
                })
            }
            tag::URGC_BATCH => {
                if f.remaining() < 18 {
                    return None;
                }
                let subrun = Subrun(f.get_u64_le());
                let first_order = f.get_u64_le();
                let len = f.get_u16_le() as usize;
                if f.remaining() < len * 10 {
                    return None;
                }
                let ids = (0..len)
                    .map(|_| {
                        let p = ProcessId(f.get_u16_le());
                        let s = f.get_u64_le();
                        (p, s)
                    })
                    .collect();
                Some(UFrame::Batch {
                    subrun,
                    first_order,
                    ids,
                })
            }
            tag::URGC_FETCH => {
                if f.remaining() < 12 {
                    return None;
                }
                let requester = ProcessId(f.get_u16_le());
                let p = ProcessId(f.get_u16_le());
                let s = f.get_u64_le();
                Some(UFrame::Fetch {
                    requester,
                    id: (p, s),
                })
            }
            tag::URGC_FETCH_ORDER => {
                if f.remaining() < 10 {
                    return None;
                }
                let requester = ProcessId(f.get_u16_le());
                let from_order = f.get_u64_le();
                Some(UFrame::FetchOrder {
                    requester,
                    from_order,
                })
            }
            tag::URGC_DIGEST => {
                if f.remaining() < 10 {
                    return None;
                }
                let sender = ProcessId(f.get_u16_le());
                let order_len = f.get_u64_le();
                Some(UFrame::Digest { sender, order_len })
            }
            _ => None,
        }
    }
}

/// A urgc (total order) group member.
pub struct UrgcTotalNode {
    me: ProcessId,
    n: usize,
    load: Load,
    submitted: u64,
    next_seq: u64,
    seed_counter: u64,
    /// Messages received (or own) but possibly not yet ordered/processed.
    /// Backed by the same sharded, segmented table urcgc uses — the two
    /// services share buffer infrastructure, differing only in ordering.
    held: History,
    /// Ids already placed in the global order, in order; the prefix
    /// `processed_upto` of it has been processed.
    order: Vec<TotalId>,
    ordered_set: HashSet<TotalId>,
    processed_upto: usize,
    /// id → processing round (global-order delivery).
    deliveries: HashMap<TotalId, Round>,
    /// Own generation rounds.
    generated: HashMap<TotalId, Round>,
    /// As coordinator: ids seen but not yet ordered by anyone.
    /// (Everyone tracks this; only the subrun coordinator acts on it.)
    unordered: Vec<TotalId>,
    /// Global order length as known (next first_order).
    next_order: u64,
    /// Out-of-order batches buffered until the gap before them fills.
    pending_batches: HashMap<u64, Vec<TotalId>>,
}

impl UrgcTotalNode {
    /// Builds member `me` of an `n`-member total-order group.
    pub fn new(me: ProcessId, n: usize, load: Load) -> Self {
        UrgcTotalNode {
            me,
            n,
            load,
            submitted: 0,
            next_seq: 1,
            seed_counter: 0,
            held: History::new(n),
            order: Vec::new(),
            ordered_set: HashSet::new(),
            processed_upto: 0,
            deliveries: HashMap::new(),
            generated: HashMap::new(),
            unordered: Vec::new(),
            next_order: 0,
            pending_batches: HashMap::new(),
        }
    }

    /// Per-id delivery rounds.
    pub fn deliveries(&self) -> &HashMap<TotalId, Round> {
        &self.deliveries
    }

    /// Own generation rounds.
    pub fn generated(&self) -> &HashMap<TotalId, Round> {
        &self.generated
    }

    /// The global processing order as seen here (processed prefix).
    pub fn processed_order(&self) -> &[TotalId] {
        &self.order[..self.processed_upto]
    }

    /// Messages ordered but blocked (head-of-line) behind a missing one.
    pub fn blocked(&self) -> usize {
        self.order.len() - self.processed_upto
    }

    fn note_seen(&mut self, id: TotalId) {
        if !self.ordered_set.contains(&id) && !self.unordered.contains(&id) {
            self.unordered.push(id);
        }
    }

    fn try_process(&mut self, now: Round) {
        while self.processed_upto < self.order.len() {
            let id = self.order[self.processed_upto];
            if self.held.contains(mid_of(id)) {
                self.deliveries.insert(id, now);
                self.processed_upto += 1;
            } else {
                // Head-of-line blocked on a missing message.
                return;
            }
        }
    }

    /// Applies a batch, buffering out-of-order arrivals: the global order
    /// must be extended gap-free or members would disagree on it. Returns
    /// whether a gap is (still) open before the buffered batches.
    fn apply_batch(&mut self, first_order: u64, ids: Vec<TotalId>, now: Round) -> bool {
        if first_order > self.next_order {
            self.pending_batches.entry(first_order).or_insert(ids);
            return true;
        }
        if first_order < self.next_order {
            // Overlapping reply (we advanced since asking): keep only the
            // unseen tail.
            let skip = (self.next_order - first_order) as usize;
            if skip < ids.len() {
                self.extend_order(ids[skip..].to_vec());
                while let Some(next) = self.pending_batches.remove(&self.next_order) {
                    self.extend_order(next);
                }
                self.try_process(now);
            }
            return !self.pending_batches.is_empty();
        }
        self.extend_order(ids);
        // Absorb any buffered batches that are now contiguous.
        while let Some(ids) = self.pending_batches.remove(&self.next_order) {
            self.extend_order(ids);
        }
        self.try_process(now);
        !self.pending_batches.is_empty()
    }

    fn extend_order(&mut self, ids: Vec<TotalId>) {
        for id in ids {
            if self.ordered_set.insert(id) {
                self.order.push(id);
                self.unordered.retain(|&u| u != id);
            }
        }
        self.next_order = self.order.len() as u64;
    }
}

impl Node for UrgcTotalNode {
    fn on_round(&mut self, round: Round, net: &mut NetCtx<'_>) {
        // Generation.
        if self.submitted < self.load.total {
            self.seed_counter += 1;
            let x = (self.me.0 as u64 + 11)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(self.seed_counter.wrapping_mul(0x2545_F491_4F6C_DD1D));
            let u = (x >> 11) as f64 / (1u64 << 53) as f64;
            if u < self.load.gen_prob {
                let seq = self.next_seq;
                self.next_seq += 1;
                self.submitted += 1;
                let id = (self.me, seq);
                let payload = Bytes::from(vec![0u8; self.load.payload_size]);
                self.generated.insert(id, round);
                self.held.save(Arc::new(DataMsg {
                    mid: mid_of(id),
                    deps: vec![],
                    round,
                    payload: payload.clone(),
                }));
                self.note_seen(id);
                net.broadcast(
                    "urgc-data",
                    UFrame::Data {
                        sender: self.me,
                        seq,
                        round,
                        payload,
                    }
                    .encode(),
                );
            }
        }
        // Coordinator duty: in the decision round of our subrun, order
        // everything seen-but-unordered.
        let subrun = round.subrun();
        if !round.is_request_phase()
            && ProcessId::coordinator_for(subrun, self.n) == self.me
            && !self.unordered.is_empty()
        {
            let mut ids = std::mem::take(&mut self.unordered);
            ids.sort(); // deterministic service-provider order
            let first_order = self.next_order;
            net.broadcast(
                "urgc-batch",
                UFrame::Batch {
                    subrun,
                    first_order,
                    ids: ids.clone(),
                }
                .encode(),
            );
            let _ = self.apply_batch(first_order, ids, round);
        }
        // Coordinator anti-entropy: advertise the order length every
        // decision round we coordinate. Without this, a member that lost
        // the *final* batch of a run would never learn the order grew (no
        // newer batch arrives to expose the gap) and the group would
        // quiesce incomplete.
        if !round.is_request_phase()
            && ProcessId::coordinator_for(subrun, self.n) == self.me
            && self.next_order > 0
        {
            net.broadcast(
                "urgc-digest",
                UFrame::Digest {
                    sender: self.me,
                    order_len: self.next_order,
                }
                .encode(),
            );
        }
        // Order-gap recovery: while buffered batches sit behind a gap,
        // periodically re-ask a random-ish peer (the previous coordinator)
        // for the suffix.
        if !self.pending_batches.is_empty() && !round.is_request_phase() {
            let prev_coord = ProcessId::coordinator_for(Subrun(subrun.0.saturating_sub(1)), self.n);
            if prev_coord != self.me {
                net.send(
                    prev_coord,
                    "urgc-fetch-order",
                    UFrame::FetchOrder {
                        requester: self.me,
                        from_order: self.next_order,
                    }
                    .encode(),
                );
            }
        }
        // Head-of-line recovery: fetch the first missing ordered message
        // from whoever sent it (origin always holds its own messages).
        if self.processed_upto < self.order.len() && !round.is_request_phase() {
            let id = self.order[self.processed_upto];
            if !self.held.contains(mid_of(id)) && id.0 != self.me {
                net.send(
                    id.0,
                    "urgc-fetch",
                    UFrame::Fetch {
                        requester: self.me,
                        id,
                    }
                    .encode(),
                );
            }
        }
    }

    fn on_frame(&mut self, from: ProcessId, frame: Bytes, net: &mut NetCtx<'_>) {
        let now = net.round();
        match UFrame::decode(frame) {
            Some(UFrame::Data {
                sender,
                seq,
                round,
                payload,
            }) => {
                let id = (sender, seq);
                self.held.save(Arc::new(DataMsg {
                    mid: mid_of(id),
                    deps: vec![],
                    round,
                    payload,
                }));
                self.note_seen(id);
                self.try_process(now);
            }
            Some(UFrame::Batch {
                first_order, ids, ..
            }) => {
                let gap = self.apply_batch(first_order, ids, now);
                if gap {
                    // We missed an earlier batch: pull the order suffix
                    // from whoever just showed us a newer one.
                    net.send(
                        from,
                        "urgc-fetch-order",
                        UFrame::FetchOrder {
                            requester: self.me,
                            from_order: self.next_order,
                        }
                        .encode(),
                    );
                }
            }
            Some(UFrame::Fetch { requester, id }) => {
                if let Some(msg) = self.held.get(mid_of(id)) {
                    net.send(
                        requester,
                        "urgc-data",
                        UFrame::Data {
                            sender: id.0,
                            seq: id.1,
                            round: msg.round,
                            payload: msg.payload.clone(),
                        }
                        .encode(),
                    );
                }
            }
            Some(UFrame::Digest { sender, order_len }) if order_len > self.next_order => {
                net.send(
                    sender,
                    "urgc-fetch-order",
                    UFrame::FetchOrder {
                        requester: self.me,
                        from_order: self.next_order,
                    }
                    .encode(),
                );
            }
            Some(UFrame::Digest { .. }) => {}
            Some(UFrame::FetchOrder {
                requester,
                from_order,
            }) => {
                let from = from_order as usize;
                if from < self.order.len() {
                    net.send(
                        requester,
                        "urgc-batch",
                        UFrame::Batch {
                            subrun: now.subrun(),
                            first_order: from_order,
                            ids: self.order[from..].to_vec(),
                        }
                        .encode(),
                    );
                }
            }
            None => {}
        }
        let _ = from;
    }

    fn is_done(&self) -> bool {
        self.submitted >= self.load.total
            && self.processed_upto == self.order.len()
            && self.unordered.is_empty()
            && self.pending_batches.is_empty()
    }
}

/// Measured output of a total-order run.
pub struct UrgcReport {
    /// Rounds executed.
    pub rounds: u64,
    /// Delays (rtd) from generation to group-wide processing.
    pub delays: urcgc_metrics::DelayStats,
    /// Whether all members ended with identical processed orders.
    pub total_order_agrees: bool,
    /// Fraction of generated messages processed by every member.
    pub completeness: f64,
    /// Peak head-of-line blocked backlog observed at the end (diagnostic).
    pub stats: urcgc_simnet::SimStats,
}

/// Runs a total-order group to quiescence.
pub fn run_urgc_total(
    n: usize,
    load: Load,
    faults: FaultPlan,
    seed: u64,
    max_rounds: u64,
) -> UrgcReport {
    let nodes: Vec<UrgcTotalNode> = (0..n)
        .map(|i| UrgcTotalNode::new(ProcessId::from_index(i), n, load))
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
    let rounds = net.run_until_settled(max_rounds, 8, SimNet::all_done);
    let mut generated: HashMap<TotalId, Round> = HashMap::new();
    for node in net.nodes() {
        generated.extend(node.generated().iter().map(|(&k, &v)| (k, v)));
    }
    let mut delays = urcgc_metrics::DelayStats::new();
    let mut full = 0u64;
    for (&id, &gen) in &generated {
        let mut max_round = 0u64;
        let all = net.nodes().iter().all(|nd| match nd.deliveries().get(&id) {
            Some(r) => {
                max_round = max_round.max(r.0);
                true
            }
            None => false,
        });
        if all {
            full += 1;
            delays.record(urcgc_simnet::rounds_to_rtd(
                max_round.saturating_sub(gen.0).max(1),
            ));
        }
    }
    let orders: Vec<&[TotalId]> = net.nodes().iter().map(|nd| nd.processed_order()).collect();
    let min_len = orders.iter().map(|o| o.len()).min().unwrap_or(0);
    let total_order_agrees = orders
        .windows(2)
        .all(|w| w[0][..min_len] == w[1][..min_len]);
    let completeness = if generated.is_empty() {
        1.0
    } else {
        full as f64 / generated.len() as f64
    };
    let stats = net.stats().clone();
    UrgcReport {
        rounds,
        delays,
        total_order_agrees,
        completeness,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrips() {
        let frames = [
            UFrame::Data {
                sender: ProcessId(1),
                seq: 3,
                round: Round(4),
                payload: Bytes::from_static(b"pay"),
            },
            UFrame::Batch {
                subrun: Subrun(2),
                first_order: 9,
                ids: vec![(ProcessId(0), 1), (ProcessId(2), 5)],
            },
            UFrame::Fetch {
                requester: ProcessId(3),
                id: (ProcessId(0), 7),
            },
        ];
        for f in frames {
            assert_eq!(UFrame::decode(f.encode()), Some(f));
        }
        assert_eq!(UFrame::decode(Bytes::new()), None);
    }

    #[test]
    fn total_order_is_agreed_under_reliable_conditions() {
        let r = run_urgc_total(5, Load::fixed(8, 8), FaultPlan::none(), 3, 2_000);
        assert_eq!(r.completeness, 1.0);
        assert!(r.total_order_agrees);
        assert!(r.delays.min().unwrap() >= 0.5);
    }

    #[test]
    fn total_order_survives_omissions_via_fetch() {
        let faults = FaultPlan::none().omission_rate(0.02);
        let r = run_urgc_total(5, Load::fixed(10, 8), faults, 5, 8_000);
        assert_eq!(r.completeness, 1.0, "fetch path must heal losses");
        assert!(r.total_order_agrees);
    }

    #[test]
    fn head_of_line_blocking_raises_tail_delay_vs_floor() {
        // Under loss, some messages wait for a missing predecessor in the
        // global order even though they are causally unrelated.
        let faults = FaultPlan::none().omission_rate(0.05);
        let r = run_urgc_total(6, Load::fixed(12, 8), faults, 7, 10_000);
        assert_eq!(r.completeness, 1.0);
        assert!(
            r.delays.max().unwrap() >= 2.0,
            "expected head-of-line stalls, max delay {}",
            r.delays.max().unwrap()
        );
    }
}
