//! The urcgc protocol state machine (Section 4 of the paper).
//!
//! One [`Engine`] embodies one group member `p ∈ G`. It is strictly
//! sans-I/O: callers feed it round boundaries, decoded PDUs and application
//! submissions, and drain [`Output`] effects. All protocol rules live here:
//!
//! * **per-round behaviour** — at most one new application broadcast per
//!   round (the paper's maximum service rate of "one message a round"),
//!   gated by the distributed flow control of Figure 6 b;
//! * **per-subrun behaviour** — a request to the rotating coordinator in the
//!   first round; as coordinator, a decision computed and broadcast in the
//!   second;
//! * **causal processing** — a received message is processed only once all
//!   its published causes are; otherwise it waits;
//! * **failure handling** — embedded in the decision flow: `attempts`/`K`
//!   crash declaration, suicide on learning one's own declared death,
//!   leaving after `K` missed decisions or `R` fruitless recovery attempts,
//!   history cleaning on `full_group` decisions, orphan-sequence
//!   destruction on decided unrecoverable gaps.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::Arc;

use bytes::Bytes;

use urcgc_causal::{DeliveryTracker, Labeler, WaitingList};
use urcgc_history::{FlowControl, History, StabilityDelta, StabilityMatrix, StableVector};
use urcgc_types::{
    decode_pdu, DataMsg, Decision, GroupView, Mid, Pdu, ProcessId, ProtocolConfig, RecoveryBatch,
    RecoveryBatchRq, RecoveryReply, RecoveryRq, RecoveryRun, RecoveryWant, RequestMsg, Round,
    Subrun, WireError,
};

use crate::output::{EngineStats, Output, ProcessStatus, StatusReason, SubmitError};

/// How many subruns old a request may be and still enter the current
/// stability matrix. Contributions are monotone state, so folding in stale
/// ones is conservative (mins only shrink); the window lets the group
/// absorb stragglers whose latency exceeds one round (see
/// `Engine::handle_request`).
const REQUEST_STALENESS_SUBRUNS: u64 = 2;

/// The genesis decision every engine of an `n`-member group boots with. It
/// is immutable and a function of `n` alone, so the engines a thread builds
/// for one group size share the handle (a node hosting 1 000 groups would
/// otherwise build the same six vectors 1 000 times).
fn genesis(n: usize) -> Arc<Decision> {
    thread_local! {
        static LAST: RefCell<Option<Arc<Decision>>> = const { RefCell::new(None) };
    }
    LAST.with_borrow_mut(|last| match last {
        Some(d) if d.n() == n => d.clone(),
        _ => last.insert(Arc::new(Decision::genesis(n))).clone(),
    })
}

/// A group member executing the urcgc protocol.
pub struct Engine {
    me: ProcessId,
    cfg: ProtocolConfig,
    status: ProcessStatus,
    /// Why `status` left `Active` (`None` while active).
    status_reason: Option<StatusReason>,
    view: GroupView,
    labeler: Labeler,
    tracker: DeliveryTracker,
    waiting: WaitingList,
    history: History,
    flow: FlowControl,
    /// Most recent decision applied (starts at genesis). The allocation is
    /// the one the decision arrived in (or was computed into); outgoing
    /// requests and the coordinator's matrix share it.
    last_decision: Arc<Decision>,
    /// Subrun of the most recently applied decision, used for the
    /// missed-K-decisions exit rule. `None` until the first decision.
    last_decision_subrun: Option<Subrun>,
    /// Coordinator-side request accumulator for the subrun we coordinate,
    /// with the accumulated [`StabilityDelta`] its `record` calls emitted.
    matrix: Option<(Subrun, StabilityMatrix, StabilityDelta)>,
    /// Requests that arrived while no matrix was open (stragglers,
    /// forwarded requests racing the round boundary); folded into the next
    /// matrix if still within the staleness window. At most one per sender.
    request_stash: Vec<RequestMsg>,
    /// Labeled submissions awaiting their broadcast round (FIFO).
    pending: VecDeque<(Mid, Vec<Mid>, Bytes)>,
    outbox: VecDeque<Output>,
    current_round: Round,
    missed_decisions: u32,
    /// Consecutive subruns in which a known gap was asked for and nothing
    /// at all was processed since (any processing zeroes it).
    recovery_attempts: u32,
    /// Whether the current round's one broadcast is still unspent: set by
    /// a `begin_round` that found no backlog, cleared by the `submit` that
    /// takes it. False until the first round has begun.
    slot_free: bool,
    /// Whether a recovery ask went out since the last request round —
    /// which is also whether this subrun's one attempt has been charged
    /// against `R`.
    asked_this_subrun: bool,
    stats: EngineStats,
}

impl Engine {
    /// A fresh entity for process `me` under `cfg`.
    ///
    /// # Panics
    /// Panics if the configuration is invalid or `me` is outside the group.
    pub fn new(me: ProcessId, cfg: ProtocolConfig) -> Self {
        cfg.validate().expect("invalid protocol configuration");
        assert!(
            me.index() < cfg.n,
            "process {me} outside group of {}",
            cfg.n
        );
        let n = cfg.n;
        let flow = match cfg.history_threshold {
            Some(t) => FlowControl::with_threshold(t),
            None => FlowControl::disabled(),
        };
        Engine {
            me,
            status: ProcessStatus::Active,
            status_reason: None,
            view: GroupView::all_alive(n),
            labeler: Labeler::new(me, n, cfg.causality),
            tracker: DeliveryTracker::new(n),
            waiting: WaitingList::new(),
            history: History::new(n),
            flow,
            last_decision: genesis(n),
            last_decision_subrun: None,
            matrix: None,
            request_stash: Vec::new(),
            pending: VecDeque::new(),
            outbox: VecDeque::new(),
            current_round: Round(0),
            missed_decisions: 0,
            recovery_attempts: 0,
            slot_free: false,
            asked_this_subrun: false,
            stats: EngineStats::default(),
            cfg,
        }
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// This entity's process id.
    pub fn me(&self) -> ProcessId {
        self.me
    }

    /// Current life-cycle status.
    pub fn status(&self) -> ProcessStatus {
        self.status
    }

    /// Why the entity left `Active`, if it has (`None` while active). Lets
    /// harnesses distinguish a self-ejection (missed decisions, exhausted
    /// recovery) from a group verdict (declared crashed).
    pub fn status_reason(&self) -> Option<StatusReason> {
        self.status_reason
    }

    /// The protocol configuration.
    pub fn config(&self) -> &ProtocolConfig {
        &self.cfg
    }

    /// Whether the checker-only broken-purge knob is on (always false
    /// without the `checker-knobs` feature, where the field does not exist).
    #[inline]
    fn broken_purge_enabled(&self) -> bool {
        #[cfg(feature = "checker-knobs")]
        {
            self.cfg.broken_purge_before_stability
        }
        #[cfg(not(feature = "checker-knobs"))]
        {
            false
        }
    }

    /// The local group view.
    pub fn view(&self) -> &GroupView {
        &self.view
    }

    /// The most recent decision applied.
    pub fn last_decision(&self) -> &Decision {
        &self.last_decision
    }

    /// Live counters (gauges refreshed on read).
    pub fn stats(&self) -> EngineStats {
        let mut s = self.stats;
        s.waiting = self.waiting.len();
        s.history_len = self.history.len();
        s
    }

    /// Every state-population gauge in one read — history, waiting list,
    /// pending submissions, residency, and purge lag. Replaces the six
    /// per-gauge getters the API used to carry; the same struct is
    /// embedded in [`EngineSnapshot`](crate::output::EngineSnapshot).
    pub fn gauges(&self) -> crate::output::EngineGauges {
        crate::output::EngineGauges {
            history_len: self.history.len(),
            history_bytes: self.history.payload_bytes(),
            history_segments: self.history.segments_live(),
            purge_lag: self.purge_lag(),
            waiting_len: self.waiting.len(),
            pending_len: self.pending.len(),
        }
    }

    /// Highest contiguous sequence processed for origin `q`.
    pub fn last_processed(&self, q: ProcessId) -> u64 {
        self.tracker.last_processed(q)
    }

    /// Whether `mid` has been processed here.
    pub fn has_processed(&self, mid: Mid) -> bool {
        self.tracker.is_processed(mid)
    }

    /// Highest sequence purged from origin `q`'s local history (0 if
    /// nothing has been purged). Oracle-facing: the checker's
    /// stability-safety invariant compares this against every alive peer's
    /// processed frontier.
    pub fn history_purged_to(&self, q: ProcessId) -> u64 {
        self.history.stable_frontier(q)
    }

    /// How far processing runs ahead of group stability, in messages (the
    /// [`EngineGauges::purge_lag`](crate::output::EngineGauges) field).
    fn purge_lag(&self) -> u64 {
        (0..self.cfg.n)
            .map(|q| {
                let q = ProcessId::from_index(q);
                self.tracker
                    .last_processed(q)
                    .saturating_sub(self.history.stable_frontier(q))
            })
            .sum()
    }

    /// A point-in-time view of the whole entity — the operations/debugging
    /// surface (exported by the UDP runtime's stats channel).
    pub fn snapshot(&self) -> crate::output::EngineSnapshot {
        crate::output::EngineSnapshot {
            me: self.me.0,
            status: format!("{:?}", self.status),
            round: self.current_round.0,
            subrun: self.current_round.subrun().0,
            last_decision_subrun: self.last_decision_subrun.map(|s| s.0),
            last_decision_full_group: self.last_decision.full_group,
            frontier: self.tracker.last_processed_vector(),
            alive: self.view.flags().to_vec(),
            gauges: self.gauges(),
            missed_decisions: self.missed_decisions,
            recovery_attempts: self.recovery_attempts,
            stats: self.stats(),
        }
    }

    // ------------------------------------------------------------------
    // Inputs
    // ------------------------------------------------------------------

    /// `urcgc.data.Rq`: accepts an application message. `chosen_deps` names
    /// the messages this one causally depends on (interpreted per the
    /// configured [`CausalityMode`](urcgc_types::CausalityMode)). Returns
    /// the assigned mid; a [`Output::Confirm`] follows once the message is
    /// broadcast and locally processed.
    ///
    /// The paper's service rate is one message a round, not one message a
    /// round *boundary*: when the current round's slot is still free — a
    /// round has begun, it found no backlog, no earlier submission took it
    /// — and flow control allows, the message is broadcast before this
    /// call returns (drain the outbox afterwards). Otherwise it queues and
    /// [`begin_round`](Engine::begin_round) sends it, one a round, in
    /// submission order.
    pub fn submit(&mut self, payload: Bytes, chosen_deps: &[Mid]) -> Result<Mid, SubmitError> {
        if !self.status.is_active() {
            return Err(SubmitError::NotActive(self.status));
        }
        let (mid, deps) = self
            .labeler
            .label(chosen_deps)
            .map_err(|e| SubmitError::BadLabel(e.to_string()))?;
        self.pending.push_back((mid, deps, payload));
        // A free slot implies an empty backlog, so order is kept. A slot
        // that flow control refuses is spent all the same: the message
        // waits for the tick, which is where a blocked round is counted.
        if std::mem::take(&mut self.slot_free) && self.flow.may_generate(self.history.len()) {
            self.stats.immediate_submits += 1;
            self.broadcast_next_pending();
        }
        Ok(mid)
    }

    /// Advances the entity to `round` and performs its round actions.
    /// Drivers must call this once per round, monotonically.
    ///
    /// The tick is the fallback of the data path, not its trigger: it
    /// sends one backlog entry (or leaves the round's slot to the next
    /// [`submit`](Engine::submit)), and at a request round re-asks for a
    /// known gap only if nothing was asked since the previous one. A gap
    /// is first asked for when the decision that shows it is adopted.
    pub fn begin_round(&mut self, round: Round) {
        if !self.status.is_active() {
            return;
        }
        self.current_round = round;
        let subrun = round.subrun();

        if round.is_request_phase() {
            self.check_missed_decisions(subrun);
            if !self.status.is_active() {
                return;
            }
            self.maybe_broadcast_pending();
            self.send_request(subrun);
            // Lost decision + lost reply: nothing was asked since the last
            // request round, so nothing is on its way. The retry is the
            // ended subrun's attempt; the new subrun starts unasked.
            if !self.asked_this_subrun {
                self.attempt_recovery(true);
            }
            self.asked_this_subrun = false;
        } else {
            self.maybe_broadcast_pending();
            self.coordinator_decide(subrun);
        }
        #[cfg(debug_assertions)]
        self.debug_validate();
    }

    /// Internal-consistency checks run at every round boundary in debug
    /// builds (tests, examples): a violated invariant here means an engine
    /// bug, caught at the round it is introduced rather than rounds later
    /// as a mysterious protocol divergence.
    #[cfg(debug_assertions)]
    fn debug_validate(&self) {
        let n = self.cfg.n;
        debug_assert_eq!(self.last_decision.n(), n, "decision width drifted");
        debug_assert_eq!(self.view.n(), n, "view width drifted");
        // A message sitting in the waiting list must genuinely be blocked:
        // if all its causes are processed it should have been released.
        for msg in self.waiting.iter() {
            debug_assert!(
                !self.tracker.deliverable(&msg.deps),
                "releasable message {} stuck in waiting list",
                msg.mid
            );
        }
        // Everything the history holds has been processed here.
        for q in 0..n {
            let q = ProcessId::from_index(q);
            let hi = self.history.highest_seq(q);
            debug_assert!(
                hi == 0 || self.tracker.is_processed(Mid::new(q, hi)),
                "history holds unprocessed {q}#{hi}"
            );
        }
        // The adopted view never contradicts the adopted decision.
        for i in 0..n {
            if !self.last_decision.process_state[i] && self.last_decision_subrun.is_some() {
                debug_assert!(
                    !self.view.is_alive(ProcessId::from_index(i)),
                    "view resurrects a declared-crashed member"
                );
            }
        }
    }

    /// Feeds a decoded PDU received from `from`.
    ///
    /// Structurally invalid PDUs — fields naming processes outside the
    /// group, vectors of the wrong width — are silently dropped: a
    /// hostile frame, or a corrupted one that slipped past the frame
    /// trailer's checksum (callers that build `Pdu`s themselves never ran
    /// it), must never be able to panic or corrupt a group member. So is
    /// anything from a sender outside the group: `from` is wire-derived on
    /// a real network (the fragment header's unchecksummed `src`), and the
    /// recovery handlers answer *to* it.
    pub fn on_pdu(&mut self, from: ProcessId, pdu: Pdu) {
        if !self.status.is_active() || from.index() >= self.cfg.n || !self.pdu_is_well_formed(&pdu)
        {
            return;
        }
        match pdu {
            Pdu::Data(msg) => {
                self.handle_data(msg, false);
            }
            Pdu::Request(req) => self.handle_request(req),
            Pdu::Decision(d) => {
                self.apply_decision(&d);
            }
            Pdu::RecoveryRq(rq) => self.handle_recovery_rq(from, rq),
            Pdu::RecoveryReply(rep) => self.handle_recovery_reply(rep),
            Pdu::RecoveryBatchRq(rq) => self.handle_recovery_batch_rq(from, rq),
            Pdu::RecoveryBatch(batch) => self.handle_recovery_batch(batch),
        }
    }

    /// Convenience: decodes a wire frame and feeds it to [`Engine::on_pdu`].
    pub fn on_frame(&mut self, from: ProcessId, frame: &Bytes) -> Result<(), WireError> {
        let pdu = decode_pdu(frame)?;
        self.on_pdu(from, pdu);
        Ok(())
    }

    /// Drains the next pending effect.
    pub fn poll_output(&mut self) -> Option<Output> {
        self.outbox.pop_front()
    }

    /// Structural validation of incoming PDUs (see [`Engine::on_pdu`]).
    fn pdu_is_well_formed(&self, pdu: &Pdu) -> bool {
        let n = self.cfg.n;
        let mid_ok = |m: &Mid| m.origin.index() < n && m.seq > 0;
        let data_ok = |d: &DataMsg| mid_ok(&d.mid) && d.deps.iter().all(mid_ok);
        let decision_ok = |d: &Decision| {
            d.stable.len() == n
                && d.attempts.len() == n
                && d.process_state.len() == n
                && d.max_processed.len() == n
                && d.min_waiting.len() == n
                && d.covered.len() == n
                && d.coordinator.index() < n
                && d.max_processed.iter().all(|m| m.holder.index() < n)
        };
        match pdu {
            Pdu::Data(d) => data_ok(d.as_ref()),
            Pdu::Request(r) => {
                r.sender.index() < n
                    && r.last_processed.len() == n
                    && r.waiting.len() == n
                    && decision_ok(&r.prev_decision)
            }
            Pdu::Decision(d) => decision_ok(d),
            Pdu::RecoveryRq(rq) => {
                rq.requester.index() < n && rq.origin.index() < n && rq.after_seq <= rq.upto_seq
            }
            Pdu::RecoveryReply(rep) => {
                rep.responder.index() < n
                    && rep.origin.index() < n
                    && rep.messages.iter().all(|m| data_ok(m.as_ref()))
            }
            Pdu::RecoveryBatchRq(rq) => {
                rq.requester.index() < n
                    && rq.wants.len() <= n
                    && rq
                        .wants
                        .iter()
                        .all(|w| w.origin.index() < n && w.after_seq <= w.upto_seq)
            }
            Pdu::RecoveryBatch(batch) => {
                batch.responder.index() < n
                    && batch.runs.len() <= n
                    && batch.runs.iter().all(|r| {
                        r.origin.index() < n && r.messages.iter().all(|m| data_ok(m.as_ref()))
                    })
            }
        }
    }

    // ------------------------------------------------------------------
    // Round actions
    // ------------------------------------------------------------------

    /// The missed-decisions exit rule, evaluated at each subrun start: the
    /// decision for subrun `s−1` should have arrived by the first round of
    /// subrun `s`.
    ///
    /// The paper's rule is "a process that fails to receive from `K`
    /// consecutive coordinators autonomously leaves the group", and
    /// Lemma 4.1 makes precise that only **non-crashed** coordinators
    /// count. A process in a miss streak cannot yet distinguish its own
    /// receive omissions from coordinator crashes (a crashed coordinator
    /// broadcasts to nobody and merely "defers the decision to the next
    /// subrun"), so the miss budget is sized as `K` plus the `f` allowance
    /// the deployment is configured for: up to `f` of the missed subruns
    /// may be deferrals rather than evidence of our own failure.
    fn check_missed_decisions(&mut self, subrun: Subrun) {
        if subrun.0 == 0 {
            return;
        }
        let expected = Subrun(subrun.0 - 1);
        if self.last_decision_subrun.is_some_and(|s| s >= expected) {
            self.missed_decisions = 0;
        } else {
            self.missed_decisions += 1;
            if self.missed_decisions >= self.cfg.k + self.cfg.max_coordinator_crashes {
                self.transition(ProcessStatus::Left, StatusReason::MissedKDecisions);
            }
        }
    }

    /// The tick's half of the one-message-a-round rule: sends the oldest
    /// backlog entry, subject to flow control, or — with no backlog —
    /// leaves the round's slot free for [`Engine::submit`].
    fn maybe_broadcast_pending(&mut self) {
        self.slot_free = self.pending.is_empty();
        if self.slot_free {
            return;
        }
        if !self.flow.may_generate(self.history.len()) {
            self.stats.flow_blocked_rounds += 1;
            return;
        }
        self.broadcast_next_pending();
    }

    /// Broadcasts and processes the oldest pending submission, stamped
    /// with the round whose slot it takes.
    fn broadcast_next_pending(&mut self) {
        let (mid, deps, payload) = self.pending.pop_front().expect("caller checked non-empty");
        let msg = Arc::new(DataMsg {
            mid,
            deps,
            round: self.current_round,
            payload,
        });
        // One allocation serves the broadcast, the history table and the
        // local delivery: everything downstream shares the handle.
        self.outbox.push_back(Output::Broadcast {
            pdu: Arc::new(Pdu::Data(Arc::clone(&msg))),
        });
        // "…broadcasts the message to the group and processes it."
        self.process_now(msg);
        self.drain_waiting_from(mid);
        self.outbox.push_back(Output::Confirm { mid });
    }

    /// Sends this subrun's request to the rotating coordinator (or records
    /// it directly when we are the coordinator). Either way the previous
    /// decision travels as a handle to the allocation the engine holds.
    fn send_request(&mut self, subrun: Subrun) {
        let Some(coordinator) = self.view.next_live_coordinator(subrun) else {
            // Nobody alive to coordinate: the group is gone.
            self.transition(ProcessStatus::Left, StatusReason::MissedKDecisions);
            return;
        };
        let last_processed = self.tracker.last_processed_vector();
        let waiting = self.waiting.waiting_vector(self.cfg.n);
        if coordinator == self.me {
            // Self-contribution: no request message is materialized.
            let mut matrix = StabilityMatrix::new(self.cfg.n);
            let mut delta = matrix.record(self.me, last_processed, waiting, &self.last_decision);
            // Fold in stashed straggler/forwarded requests that are still
            // within the staleness window.
            for stashed in std::mem::take(&mut self.request_stash) {
                if stashed.subrun.0 + REQUEST_STALENESS_SUBRUNS >= subrun.0 {
                    delta.merge(matrix.record(
                        stashed.sender,
                        stashed.last_processed,
                        stashed.waiting,
                        &stashed.prev_decision,
                    ));
                }
            }
            self.matrix = Some((subrun, matrix, delta));
        } else {
            self.matrix = None;
            self.outbox.push_back(Output::Send {
                to: coordinator,
                pdu: Box::new(Pdu::Request(RequestMsg {
                    sender: self.me,
                    subrun,
                    last_processed,
                    waiting,
                    prev_decision: Arc::clone(&self.last_decision),
                    forwarded: false,
                })),
            });
        }
    }

    /// As coordinator: fold received requests into this subrun's decision
    /// and broadcast it.
    fn coordinator_decide(&mut self, subrun: Subrun) {
        let Some((s, matrix, delta)) = self.matrix.take() else {
            return;
        };
        if s != subrun {
            return;
        }
        // Built into its shared allocation once: the broadcast and our own
        // adoption below are handles to it.
        let decision = Arc::new(matrix.compute(subrun, self.me, self.cfg.k, &self.last_decision));
        // The accumulated delta can drive this decision's purge directly —
        // but only when it provably describes the same purge the stable
        // vector would: the delta claims exactness, its baseline matches
        // the full-group decision we last applied, the new decision is
        // itself full-group, and — decisions can be lost in transit, so the
        // matrix's `freshest_prev` may sit ahead of what we applied — the
        // union of our current purge frontier and the delta's ranges
        // actually reaches the decision's stable vector. Anything else
        // falls back to the vector sweep.
        let hint_ok = decision.full_group
            && matrix.delta_exact()
            && matrix
                .freshest_prev()
                .is_some_and(|p| p.full_group && self.last_decision_subrun == Some(p.subrun))
            && {
                let mut covered: Vec<u64> = (0..self.cfg.n)
                    .map(|q| self.history.stable_frontier(ProcessId::from_index(q)))
                    .collect();
                for r in delta.ranges() {
                    let c = &mut covered[r.origin.index()];
                    *c = (*c).max(r.upto_seq);
                }
                decision
                    .stable
                    .iter()
                    .enumerate()
                    .all(|(q, &s)| s <= covered[q])
            };
        self.stats.decisions_made += 1;
        self.outbox.push_back(Output::Broadcast {
            pdu: Arc::new(Pdu::Decision(Arc::clone(&decision))),
        });
        self.apply_decision_inner(&decision, if hint_ok { Some(&delta) } else { None });
    }

    // ------------------------------------------------------------------
    // Message processing
    // ------------------------------------------------------------------

    /// Handles an application data message (fresh from the wire or pulled
    /// out of a peer's history). Returns whether it was processed now.
    fn handle_data(&mut self, msg: Arc<DataMsg>, via_recovery: bool) -> bool {
        if msg.mid.origin.index() >= self.cfg.n {
            // A malformed or hostile frame naming an origin outside the
            // group must not disturb (let alone panic) the entity.
            return false;
        }
        if self.tracker.is_processed(msg.mid) {
            return false; // duplicate
        }
        if self.tracker.deliverable(&msg.deps) {
            if via_recovery {
                self.stats.recovered += 1;
            }
            let mid = msg.mid;
            self.process_now(msg);
            self.drain_waiting_from(mid);
            true
        } else {
            let tracker = &self.tracker;
            let parked = self.waiting.park(msg, |m| tracker.is_processed(m));
            debug_assert!(parked, "a non-deliverable message must park");
            false
        }
    }

    /// Unconditionally processes `msg`: marks it, saves it to history,
    /// emits the indication. History and delivery share the same handle —
    /// nothing is copied.
    fn process_now(&mut self, msg: Arc<DataMsg>) {
        let newly = self.tracker.mark_processed(msg.mid);
        debug_assert!(newly, "process_now on an already-processed message");
        self.labeler.note_processed(msg.mid);
        self.history.save(Arc::clone(&msg));
        self.stats.processed += 1;
        self.recovery_attempts = 0; // progress: earlier asks were not fruitless
        self.outbox.push_back(Output::Deliver { msg });
    }

    /// Releases waiting messages unblocked by processing `root`, cascading
    /// wave by wave until no release unblocks another. Each wake touches
    /// only the dependents of the mid just processed, and each wave is
    /// sorted by mid — reproducing, release for release, the order of the
    /// old full-rescan fixpoint (the sweep-JSON determinism oracle).
    ///
    /// Completeness relies on the engine invariant checked in
    /// `debug_validate`: a parked message always has at least one
    /// unprocessed cause, so only the mid just processed (and, inductively,
    /// mids released here) can unblock anything.
    fn drain_waiting_from(&mut self, root: Mid) {
        let mut wave = self.waiting.wake(root);
        while !wave.is_empty() {
            let mut next = Vec::new();
            for msg in wave {
                let mid = msg.mid;
                if !self.tracker.is_processed(mid) {
                    debug_assert!(
                        self.tracker.deliverable(&msg.deps),
                        "woken message {mid} is not deliverable"
                    );
                    self.process_now(msg);
                }
                next.extend(self.waiting.wake(mid));
            }
            next.sort_by_key(|m| m.mid);
            wave = next;
        }
    }

    // ------------------------------------------------------------------
    // Coordinator input
    // ------------------------------------------------------------------

    /// Handles a member request — ours to collect, or a straggler's to
    /// salvage.
    ///
    /// The happy path records the request into the open stability matrix;
    /// requests tagged with an *earlier* subrun are accepted too (their
    /// state is monotone, so folding them in is conservative) as long as
    /// they are within [`REQUEST_STALENESS_SUBRUNS`]. A request that
    /// arrives while we are not collecting — a straggler that addressed an
    /// expired coordinator, or a forwarded request racing the round
    /// boundary — is stashed for our own next matrix and, if it has not
    /// been forwarded before, relayed once to the *next* subrun's
    /// coordinator so its sender's `attempts` counter keeps being reset.
    /// Without this, any member whose latency exceeds one round would be
    /// declared crashed regardless of `K` (its requests would always reach
    /// coordinators whose collection window had closed).
    fn handle_request(&mut self, req: RequestMsg) {
        // Decision circulation: a request can carry a decision newer than
        // anything we have seen (e.g. we missed the previous broadcast).
        self.apply_decision(&req.prev_decision);
        if !self.status.is_active() {
            return; // the carried decision may have declared us dead
        }
        let current = self.current_round.subrun();
        let fresh = req.subrun.0 + REQUEST_STALENESS_SUBRUNS >= current.0;
        if !fresh {
            return;
        }
        if let Some((subrun, matrix, delta)) = &mut self.matrix {
            if req.subrun <= *subrun {
                delta.merge(matrix.record(
                    req.sender,
                    req.last_processed,
                    req.waiting,
                    &req.prev_decision,
                ));
                return;
            }
        }
        // Not collecting (or the request is ahead of our matrix): salvage.
        if !req.forwarded && req.sender != self.me {
            let mut fwd = req.clone();
            fwd.forwarded = true;
            if let Some(next) = self.view.next_live_coordinator(current.next()) {
                if next != self.me {
                    self.outbox.push_back(Output::Send {
                        to: next,
                        pdu: Box::new(Pdu::Request(fwd)),
                    });
                }
            }
        }
        self.request_stash.retain(|r| r.sender != req.sender);
        if self.request_stash.len() < self.cfg.n {
            self.request_stash.push(req);
        }
    }

    // ------------------------------------------------------------------
    // Decisions
    // ------------------------------------------------------------------

    /// Adopts `d` if it is newer than the current decision; applies history
    /// cleaning, view updates, suicide, and orphan destruction. Returns
    /// whether it was adopted. Adoption keeps a handle to `d`'s allocation;
    /// a decision is never copied, adopted or not.
    fn apply_decision(&mut self, d: &Arc<Decision>) -> bool {
        self.apply_decision_inner(d, None)
    }

    /// [`Engine::apply_decision`] with an optional purge hint: the
    /// coordinator's accumulated [`StabilityDelta`], passed only when
    /// `coordinator_decide` has proven it equivalent to `d.stable`.
    fn apply_decision_inner(&mut self, d: &Arc<Decision>, hint: Option<&StabilityDelta>) -> bool {
        // "Newer" is judged against the last *applied* decision; before any
        // decision has been applied, even a subrun-0 decision supersedes
        // the synthetic genesis value the engine boots with. Carried
        // genesis values themselves (inside early requests) are never
        // adopted — they are boot state, not decisions.
        let newer = match self.last_decision_subrun {
            None => true,
            Some(s) => d.subrun > s,
        };
        if d.n() != self.cfg.n || !newer || d.is_genesis() {
            return false;
        }
        self.stats.decisions_applied += 1;
        self.last_decision_subrun = Some(d.subrun);
        self.missed_decisions = 0;
        self.view.merge_from_decision(&d.process_state);

        if !d.process_state[self.me.index()] {
            // The group has declared us crashed: commit suicide.
            self.last_decision = Arc::clone(d);
            self.transition(ProcessStatus::Suicided, StatusReason::DeclaredCrashed);
            return true;
        }

        if d.full_group {
            let report = if self.broken_purge_enabled() {
                // Checker-only deliberate bug (see the config field docs):
                // purge to the group *maximum* instead of the stable
                // minimum, so any lagging process loses its recovery source.
                let maxed: Vec<u64> = d.max_processed.iter().map(|m| m.seq).collect();
                self.history.advance_stability(&StableVector::new(&maxed))
            } else if let Some(delta) = hint {
                self.history
                    .advance_stability_hinted(&StableVector::new(&d.stable), delta)
            } else {
                self.history
                    .advance_stability(&StableVector::new(&d.stable))
            };
            self.stats.purged_messages += report.messages as u64;
            self.stats.purged_segments += report.segments_freed as u64;
            // Orphan-sequence destruction: only acted upon on full_group
            // decisions, when min_waiting/max_processed reflect the whole
            // (alive) group.
            let mut doomed_all: Vec<Mid> = Vec::new();
            for q in 0..self.cfg.n {
                let q = ProcessId::from_index(q);
                if d.orphan_gap(q) {
                    let from_seq = d.max_processed[q.index()].seq + 1;
                    doomed_all.extend(self.waiting.discard_origin_suffix(q, from_seq));
                }
            }
            if !doomed_all.is_empty() {
                doomed_all.sort();
                doomed_all.dedup();
                self.stats.discarded += doomed_all.len() as u64;
                self.outbox
                    .push_back(Output::Discarded { mids: doomed_all });
            }
        }
        self.last_decision = Arc::clone(d);
        // The gap this decision shows is asked for now, not at a fixed
        // phase of the next subrun.
        self.attempt_recovery(false);
        true
    }

    // ------------------------------------------------------------------
    // Recovery from history
    // ------------------------------------------------------------------

    /// Serves a peer's recovery request out of our history.
    fn handle_recovery_rq(&mut self, from: ProcessId, rq: RecoveryRq) {
        if rq.origin.index() >= self.cfg.n {
            return;
        }
        let messages = self.history.range(rq.origin, rq.after_seq, rq.upto_seq);
        if messages.is_empty() {
            return;
        }
        self.outbox.push_back(Output::Send {
            to: from,
            pdu: Box::new(Pdu::RecoveryReply(RecoveryReply {
                responder: self.me,
                origin: rq.origin,
                messages,
            })),
        });
    }

    fn handle_recovery_reply(&mut self, rep: RecoveryReply) {
        for msg in rep.messages {
            self.handle_data(msg, true);
        }
    }

    /// Serves a batched recovery request: every requested origin's range is
    /// sliced from history and the non-empty runs are coalesced into a
    /// single [`RecoveryBatch`] frame back to the requester.
    fn handle_recovery_batch_rq(&mut self, from: ProcessId, rq: RecoveryBatchRq) {
        let runs: Vec<RecoveryRun> = rq
            .wants
            .iter()
            .filter(|w| w.origin.index() < self.cfg.n)
            .map(|w| RecoveryRun {
                origin: w.origin,
                messages: self.history.range(w.origin, w.after_seq, w.upto_seq),
            })
            .filter(|r| !r.messages.is_empty())
            .collect();
        if runs.is_empty() {
            return;
        }
        self.outbox.push_back(Output::Send {
            to: from,
            pdu: Box::new(Pdu::RecoveryBatch(RecoveryBatch {
                responder: self.me,
                runs,
            })),
        });
    }

    /// Unpacks a batched recovery answer; each run feeds the ordinary data
    /// path, exactly as the equivalent per-origin replies would.
    fn handle_recovery_batch(&mut self, batch: RecoveryBatch) {
        for run in batch.runs {
            for msg in run.messages {
                self.handle_data(msg, true);
            }
        }
    }

    /// If the latest decision shows some process has processed further
    /// than we have on any sequence (`max_processed[q] > last_processed[q]`
    /// — how Lemma 4.1 says a process "learns the omission"), asks that
    /// most-updated process for the gap. This covers both parked messages
    /// waiting on missing causes *and* tail losses where nothing later
    /// arrived to park. Called when a decision is adopted (the moment the
    /// gap becomes known) and, as `retry`, from a request round that no
    /// ask preceded since the last one.
    ///
    /// One attempt against `R` is one subrun of the local clock in which
    /// a known gap was asked for, however many adoptions asked in it:
    /// decisions queued behind a stall arrive in one burst, and must not
    /// burn a budget the paper sizes in subruns (`R > 2K + f`). `R`
    /// consecutive attempts without processing progress and the entity
    /// leaves the group.
    fn attempt_recovery(&mut self, retry: bool) {
        let mut sent_any = false;
        // Batched framing groups the per-origin asks by holder: one
        // RecoveryBatchRq per distinct most-updated peer instead of one
        // RecoveryRq per origin. Holders are visited in origin order, so
        // the per-holder want lists stay origin-sorted deterministically.
        let mut batches: Vec<(ProcessId, Vec<RecoveryWant>)> = Vec::new();
        for q in 0..self.cfg.n {
            let q = ProcessId::from_index(q);
            let maxp = self.last_decision.max_processed[q.index()];
            let lp = self.tracker.last_processed(q);
            if maxp.seq <= lp || maxp.holder == self.me || !self.view.is_alive(maxp.holder) {
                continue;
            }
            self.stats.recovery_requests += 1;
            self.stats.recovery_retries += u32::from(retry);
            sent_any = true;
            if self.cfg.batched_recovery {
                let want = RecoveryWant {
                    origin: q,
                    after_seq: lp,
                    upto_seq: maxp.seq,
                };
                match batches.iter_mut().find(|(h, _)| *h == maxp.holder) {
                    Some((_, wants)) => wants.push(want),
                    None => batches.push((maxp.holder, vec![want])),
                }
            } else {
                self.outbox.push_back(Output::Send {
                    to: maxp.holder,
                    pdu: Box::new(Pdu::RecoveryRq(RecoveryRq {
                        requester: self.me,
                        origin: q,
                        after_seq: lp,
                        upto_seq: maxp.seq,
                    })),
                });
            }
        }
        for (holder, wants) in batches {
            self.outbox.push_back(Output::Send {
                to: holder,
                pdu: Box::new(Pdu::RecoveryBatchRq(RecoveryBatchRq {
                    requester: self.me,
                    wants,
                })),
            });
        }
        if !sent_any {
            self.recovery_attempts = 0;
        } else if !std::mem::replace(&mut self.asked_this_subrun, true) {
            self.recovery_attempts += 1;
            if self.recovery_attempts > self.cfg.r {
                self.transition(ProcessStatus::Left, StatusReason::RecoveryExhausted);
            }
        }
    }

    // ------------------------------------------------------------------

    fn transition(&mut self, status: ProcessStatus, reason: StatusReason) {
        if self.status == status {
            return;
        }
        self.status = status;
        self.status_reason = Some(reason);
        self.outbox
            .push_back(Output::StatusChanged { status, reason });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use urcgc_types::MaxProcessed;

    const N: usize = 3;

    fn cfg() -> ProtocolConfig {
        ProtocolConfig::new(N)
    }

    /// The paper's literal per-origin recovery framing, for tests that
    /// assert on `RecoveryRq` shapes (batching is the default now).
    fn unbatched_cfg() -> ProtocolConfig {
        cfg().with_unbatched_recovery()
    }

    fn engines() -> Vec<Engine> {
        (0..N)
            .map(|i| Engine::new(ProcessId::from_index(i), cfg()))
            .collect()
    }

    /// Drains every engine's outbox and routes Send/Broadcast to peers,
    /// collecting local effects. One call ≈ instantaneous network.
    #[allow(clippy::needless_range_loop)] // mutate one engine while fanning to others
    fn route(engines: &mut [Engine]) -> Vec<(ProcessId, Output)> {
        let mut effects = Vec::new();
        loop {
            let mut moved = false;
            for i in 0..engines.len() {
                let me = engines[i].me();
                while let Some(out) = engines[i].poll_output() {
                    moved = true;
                    match out {
                        Output::Send { to, pdu } => engines[to.index()].on_pdu(me, *pdu),
                        Output::Broadcast { pdu } => {
                            for j in 0..engines.len() {
                                if j != i {
                                    // Shallow: data and decisions are behind Arcs.
                                    engines[j].on_pdu(me, Pdu::clone(&pdu));
                                }
                            }
                        }
                        other => effects.push((me, other)),
                    }
                }
            }
            if !moved {
                return effects;
            }
        }
    }

    fn run_round(engines: &mut [Engine], round: u64) -> Vec<(ProcessId, Output)> {
        for e in engines.iter_mut() {
            e.begin_round(Round(round));
        }
        route(engines)
    }

    #[test]
    fn submit_broadcast_deliver_confirm() {
        let mut es = engines();
        let mid = es[0].submit(Bytes::from_static(b"hi"), &[]).unwrap();
        assert_eq!(mid, Mid::new(ProcessId(0), 1));
        let effects = run_round(&mut es, 0);
        let delivered: Vec<ProcessId> = effects
            .iter()
            .filter(|(_, o)| matches!(o, Output::Deliver { msg } if msg.mid == mid))
            .map(|&(p, _)| p)
            .collect();
        assert_eq!(delivered.len(), N, "all three processes processed it");
        assert!(effects.iter().any(
            |(p, o)| *p == ProcessId(0) && matches!(o, Output::Confirm { mid: m } if *m == mid)
        ));
        for e in &es {
            assert!(e.has_processed(mid));
            assert_eq!(e.gauges().history_len, 1);
        }
    }

    #[test]
    fn causal_chain_waits_for_predecessor() {
        let mut es = engines();
        // p0 submits two chained messages; deliver m2 to p1 before m1.
        let m1 = es[0].submit(Bytes::from_static(b"1"), &[]).unwrap();
        let m2 = es[0].submit(Bytes::from_static(b"2"), &[]).unwrap();
        // Extract the data PDUs manually (p0 sends one per round).
        es[0].begin_round(Round(0));
        let mut pdus = Vec::new();
        while let Some(o) = es[0].poll_output() {
            if let Output::Broadcast { pdu } = o {
                if let Pdu::Data(d) = &*pdu {
                    pdus.push(Arc::clone(d));
                }
            }
        }
        es[0].begin_round(Round(1));
        while let Some(o) = es[0].poll_output() {
            if let Output::Broadcast { pdu } = o {
                if let Pdu::Data(d) = &*pdu {
                    pdus.push(Arc::clone(d));
                }
            }
        }
        assert_eq!(pdus.len(), 2);
        // Out-of-order arrival at p1.
        es[1].on_pdu(ProcessId(0), Pdu::Data(Arc::clone(&pdus[1])));
        assert!(!es[1].has_processed(m2), "m2 must wait for m1");
        assert_eq!(es[1].gauges().waiting_len, 1);
        es[1].on_pdu(ProcessId(0), Pdu::Data(Arc::clone(&pdus[0])));
        assert!(es[1].has_processed(m1));
        assert!(es[1].has_processed(m2), "waiting m2 released after m1");
        // Delivery order: m1 then m2.
        let mut order = Vec::new();
        while let Some(o) = es[1].poll_output() {
            if let Output::Deliver { msg } = o {
                order.push(msg.mid);
            }
        }
        assert_eq!(order, vec![m1, m2]);
    }

    #[test]
    fn duplicates_are_suppressed() {
        let mut es = engines();
        es[0].submit(Bytes::from_static(b"x"), &[]).unwrap();
        run_round(&mut es, 0);
        let before = es[1].stats().processed;
        // Replay the same data message.
        let replay = DataMsg {
            mid: Mid::new(ProcessId(0), 1),
            deps: vec![],
            round: Round(0),
            payload: Bytes::from_static(b"x"),
        };
        es[1].on_pdu(ProcessId(0), Pdu::data(replay));
        assert_eq!(es[1].stats().processed, before);
        assert_eq!(
            es[1].gauges().waiting_len,
            0,
            "a replay must not park either"
        );
    }

    #[test]
    fn coordinator_produces_full_group_decision() {
        let mut es = engines();
        // Round 0 (request phase of subrun 0, coordinator p0).
        run_round(&mut es, 0);
        // Round 1: decision phase.
        let effects = run_round(&mut es, 1);
        let _ = effects;
        for e in &es {
            let d = e.last_decision();
            assert_eq!(d.subrun, Subrun(0));
            assert_eq!(d.coordinator, ProcessId(0));
            assert!(d.full_group, "all three requests reached p0");
        }
        assert_eq!(es[0].stats().decisions_made, 1);
    }

    #[test]
    fn history_cleans_after_stability() {
        let mut es = engines();
        es[0].submit(Bytes::from_static(b"a"), &[]).unwrap();
        run_round(&mut es, 0); // broadcast + requests (lp not yet counting a)
        run_round(&mut es, 1); // decision of subrun 0
        assert!(es.iter().all(|e| e.gauges().history_len == 1));
        // Subrun 1: requests now report last_processed = 1 for origin 0.
        run_round(&mut es, 2);
        run_round(&mut es, 3); // decision of subrun 1: stable[0] = 1
        for e in &es {
            assert_eq!(
                e.gauges().history_len,
                0,
                "{} should have cleaned after stability",
                e.me()
            );
        }
    }

    #[test]
    fn rotating_coordinator_changes_each_subrun() {
        let mut es = engines();
        for r in 0..6 {
            run_round(&mut es, r);
        }
        // After subruns 0,1,2 the coordinators were p0,p1,p2.
        assert_eq!(es[0].stats().decisions_made, 1);
        assert_eq!(es[1].stats().decisions_made, 1);
        assert_eq!(es[2].stats().decisions_made, 1);
    }

    #[test]
    fn suicide_on_declared_crashed() {
        let mut e = Engine::new(ProcessId(1), cfg());
        let mut d = Decision::genesis(N);
        d.subrun = Subrun(3);
        d.process_state[1] = false;
        e.on_pdu(ProcessId(0), Pdu::decision(d));
        assert_eq!(e.status(), ProcessStatus::Suicided);
        let mut saw = false;
        while let Some(o) = e.poll_output() {
            if let Output::StatusChanged { status, reason } = o {
                assert_eq!(status, ProcessStatus::Suicided);
                assert_eq!(reason, StatusReason::DeclaredCrashed);
                saw = true;
            }
        }
        assert!(saw);
        // A dead entity accepts nothing.
        assert!(e.submit(Bytes::new(), &[]).is_err());
    }

    #[test]
    fn leaves_after_missing_k_decisions() {
        // Isolated engine in a group of 6: drives rounds but never receives
        // any decision. Miss budget = K + f allowance = 2 + 1 = 3.
        let mut e = Engine::new(ProcessId(1), ProtocolConfig::new(6).with_k(2));
        let mut left = false;
        for r in 0..30 {
            e.begin_round(Round(r));
            while let Some(o) = e.poll_output() {
                if let Output::StatusChanged { status, reason } = o {
                    assert_eq!(status, ProcessStatus::Left);
                    assert_eq!(reason, StatusReason::MissedKDecisions);
                    left = true;
                }
            }
            if left {
                // p1 coordinates subrun 1 itself (resetting its own clock
                // with its self-made decision); the miss streak then runs
                // over subruns 2, 3, 4 and hits the K + f = 3 budget at the
                // request phase of subrun 5 (round 10).
                assert_eq!(r, 10);
                break;
            }
        }
        assert!(left);
    }

    #[test]
    fn stale_decision_is_ignored() {
        let mut e = Engine::new(ProcessId(0), cfg());
        let mut newer = Decision::genesis(N);
        newer.subrun = Subrun(5);
        assert!(e.apply_decision(&Arc::new(newer)));
        let mut stale = Decision::genesis(N);
        stale.subrun = Subrun(2);
        stale.process_state[0] = false; // malicious staleness
        assert!(!e.apply_decision(&Arc::new(stale)));
        assert_eq!(e.status(), ProcessStatus::Active);
    }

    #[test]
    fn recovery_request_targets_most_updated() {
        let mut e = Engine::new(ProcessId(2), unbatched_cfg());
        // A message from p0 with seq 2 arrives; seq 1 was missed.
        let msg = DataMsg {
            mid: Mid::new(ProcessId(0), 2),
            deps: vec![Mid::new(ProcessId(0), 1)],
            round: Round(0),
            payload: Bytes::new(),
        };
        e.on_pdu(ProcessId(0), Pdu::data(msg));
        assert_eq!(e.gauges().waiting_len, 1);
        // A decision names p1 as most updated for origin 0.
        let mut d = Decision::genesis(N);
        d.subrun = Subrun(1);
        d.max_processed[0] = MaxProcessed {
            holder: ProcessId(1),
            seq: 2,
        };
        e.on_pdu(ProcessId(0), Pdu::decision(d));
        // Adopting the decision is what asks: no round has to begin.
        let mut asked = None;
        while let Some(o) = e.poll_output() {
            if let Output::Send { to, pdu } = o {
                if let Pdu::RecoveryRq(rq) = *pdu {
                    asked = Some((to, rq));
                }
            }
        }
        let (to, rq) = asked.expect("recovery request sent");
        assert_eq!(to, ProcessId(1));
        assert_eq!(rq.origin, ProcessId(0));
        assert_eq!(rq.after_seq, 0);
        assert_eq!(rq.upto_seq, 2);
    }

    #[test]
    fn recovery_is_served_from_history_and_heals() {
        let mut es = engines();
        // p0 processes two of its own messages.
        es[0].submit(Bytes::from_static(b"1"), &[]).unwrap();
        es[0].submit(Bytes::from_static(b"2"), &[]).unwrap();
        es[0].begin_round(Round(0));
        es[0].begin_round(Round(1));
        while es[0].poll_output().is_some() {}
        // p2 asks p0 for the range.
        es[0].on_pdu(
            ProcessId(2),
            Pdu::RecoveryRq(RecoveryRq {
                requester: ProcessId(2),
                origin: ProcessId(0),
                after_seq: 0,
                upto_seq: 2,
            }),
        );
        let mut reply = None;
        while let Some(o) = es[0].poll_output() {
            if let Output::Send { to, pdu } = o {
                if let Pdu::RecoveryReply(r) = *pdu {
                    assert_eq!(to, ProcessId(2));
                    reply = Some(r);
                }
            }
        }
        let reply = reply.expect("recovery served");
        assert_eq!(reply.messages.len(), 2);
        // Feeding the reply processes both in order.
        let mut e2 = Engine::new(ProcessId(2), cfg());
        e2.on_pdu(ProcessId(0), Pdu::RecoveryReply(reply));
        assert_eq!(e2.last_processed(ProcessId(0)), 2);
        assert_eq!(e2.stats().recovered, 2);
    }

    #[test]
    fn sender_outside_the_group_is_dropped_not_answered() {
        // A well-formed recovery request for held messages, arriving with a
        // sender id the group does not have (`N` itself is the edge case):
        // the reply would be addressed to that id, so nothing may be queued.
        let mut e = Engine::new(ProcessId(0), cfg());
        e.submit(Bytes::from_static(b"1"), &[]).unwrap();
        e.begin_round(Round(0));
        while e.poll_output().is_some() {}
        let rq = RecoveryRq {
            requester: ProcessId(2),
            origin: ProcessId(0),
            after_seq: 0,
            upto_seq: 1,
        };
        for stray in [N as u16, u16::MAX] {
            e.on_pdu(ProcessId(stray), Pdu::RecoveryRq(rq));
            e.on_pdu(
                ProcessId(stray),
                Pdu::RecoveryBatchRq(RecoveryBatchRq {
                    requester: ProcessId(2),
                    wants: vec![RecoveryWant {
                        origin: rq.origin,
                        after_seq: rq.after_seq,
                        upto_seq: rq.upto_seq,
                    }],
                }),
            );
            assert!(e.poll_output().is_none(), "answered stray sender {stray}");
        }
        // The same request from a member is served.
        e.on_pdu(ProcessId(2), Pdu::RecoveryRq(rq));
        assert!(matches!(
            e.poll_output(),
            Some(Output::Send {
                to: ProcessId(2),
                ..
            })
        ));
    }

    #[test]
    fn batched_recovery_coalesces_asks_and_heals() {
        // p2 lags on two origins whose most-updated holder is p0: batched
        // framing must emit ONE RecoveryBatchRq (instead of two
        // RecoveryRqs), and the served RecoveryBatch must heal both gaps.
        let cfg = ProtocolConfig::new(N);
        let mut holder = Engine::new(ProcessId(0), cfg.clone());
        holder.submit(Bytes::from_static(b"a1"), &[]).unwrap();
        holder.begin_round(Round(0));
        while holder.poll_output().is_some() {}
        // Hand-feed p1's message so p0's history also holds origin 1.
        holder.on_pdu(
            ProcessId(1),
            Pdu::data(DataMsg {
                mid: Mid::new(ProcessId(1), 1),
                deps: vec![],
                round: Round(0),
                payload: Bytes::from_static(b"b1"),
            }),
        );
        while holder.poll_output().is_some() {}

        let mut lagger = Engine::new(ProcessId(2), cfg);
        let mut d = Decision::genesis(N);
        d.subrun = Subrun(1);
        d.max_processed[0] = MaxProcessed {
            holder: ProcessId(0),
            seq: 1,
        };
        d.max_processed[1] = MaxProcessed {
            holder: ProcessId(0),
            seq: 1,
        };
        lagger.on_pdu(ProcessId(0), Pdu::decision(d));
        let mut batch_rqs = Vec::new();
        while let Some(o) = lagger.poll_output() {
            if let Output::Send { to, pdu } = o {
                match *pdu {
                    Pdu::RecoveryBatchRq(rq) => batch_rqs.push((to, rq)),
                    Pdu::RecoveryRq(_) => panic!("batched config must not emit per-origin asks"),
                    _ => {}
                }
            }
        }
        assert_eq!(batch_rqs.len(), 1, "one frame per holder");
        let (to, rq) = batch_rqs.pop().unwrap();
        assert_eq!(to, ProcessId(0));
        assert_eq!(rq.wants.len(), 2);
        assert_eq!(lagger.stats().recovery_requests, 2, "stats count origins");

        holder.on_pdu(ProcessId(2), Pdu::RecoveryBatchRq(rq));
        let mut batch = None;
        while let Some(o) = holder.poll_output() {
            if let Output::Send { to, pdu } = o {
                if let Pdu::RecoveryBatch(b) = *pdu {
                    assert_eq!(to, ProcessId(2));
                    batch = Some(b);
                }
            }
        }
        let batch = batch.expect("batched recovery served");
        assert_eq!(batch.runs.len(), 2, "both origins in one frame");
        lagger.on_pdu(ProcessId(0), Pdu::RecoveryBatch(batch));
        assert_eq!(lagger.last_processed(ProcessId(0)), 1);
        assert_eq!(lagger.last_processed(ProcessId(1)), 1);
        assert_eq!(lagger.stats().recovered, 2);
    }

    #[test]
    fn unbatched_config_never_emits_batch_pdus() {
        let mut e = Engine::new(ProcessId(2), unbatched_cfg());
        let mut d = Decision::genesis(N);
        d.subrun = Subrun(1);
        d.max_processed[0] = MaxProcessed {
            holder: ProcessId(0),
            seq: 1,
        };
        d.max_processed[1] = MaxProcessed {
            holder: ProcessId(0),
            seq: 1,
        };
        e.on_pdu(ProcessId(0), Pdu::decision(d));
        let mut rqs = 0;
        while let Some(o) = e.poll_output() {
            if let Output::Send { pdu, .. } = o {
                match *pdu {
                    Pdu::RecoveryRq(_) => rqs += 1,
                    Pdu::RecoveryBatchRq(_) => panic!("unbatched config emits per-origin frames"),
                    _ => {}
                }
            }
        }
        assert_eq!(rqs, 2);
    }

    #[test]
    fn purge_stats_track_stability_cleaning() {
        let mut es = engines();
        es[0].submit(Bytes::from_static(b"a"), &[]).unwrap();
        run_round(&mut es, 0);
        run_round(&mut es, 1);
        run_round(&mut es, 2);
        run_round(&mut es, 3); // decision of subrun 1: stable[0] = 1 → purge
        for e in &es {
            assert_eq!(e.stats().purged_messages, 1, "{}", e.me());
            assert_eq!(
                e.stats().purged_segments,
                1,
                "drained boundary segment freed"
            );
            assert_eq!(
                e.gauges().purge_lag,
                0,
                "processing and stability agree at quiescence"
            );
        }
    }

    #[test]
    fn leaves_after_r_fruitless_recovery_attempts() {
        let cfg = ProtocolConfig::new(N).with_k(1); // R = 2K + f + 1 = 4
        let mut e = Engine::new(ProcessId(2), cfg);
        // Park a message blocked on a missing cause.
        e.on_pdu(
            ProcessId(0),
            Pdu::data(DataMsg {
                mid: Mid::new(ProcessId(0), 2),
                deps: vec![Mid::new(ProcessId(0), 1)],
                round: Round(0),
                payload: Bytes::new(),
            }),
        );
        let mut left = false;
        for s in 1..20u64 {
            // Feed a decision every subrun (so missed-K never fires) naming
            // p1 as most updated; p1 never answers.
            let mut d = Decision::genesis(N);
            d.subrun = Subrun(s);
            d.max_processed[0] = MaxProcessed {
                holder: ProcessId(1),
                seq: 2,
            };
            e.on_pdu(ProcessId(1), Pdu::decision(d));
            e.begin_round(Subrun(s).request_round());
            e.begin_round(Subrun(s).decision_round());
            while let Some(o) = e.poll_output() {
                if let Output::StatusChanged { status, reason } = o {
                    assert_eq!(status, ProcessStatus::Left);
                    assert_eq!(reason, StatusReason::RecoveryExhausted);
                    left = true;
                }
            }
            if left {
                break;
            }
        }
        assert!(left, "entity must leave after R attempts");
    }

    /// A decision for `subrun` that names p1 as holding p0#2.
    fn gap_decision(subrun: u64) -> Pdu {
        let mut d = Decision::genesis(N);
        d.subrun = Subrun(subrun);
        d.max_processed[0] = MaxProcessed {
            holder: ProcessId(1),
            seq: 2,
        };
        Pdu::decision(d)
    }

    /// Drains the outbox, counting data broadcasts and recovery asks.
    fn drain_counts(e: &mut Engine) -> (usize, usize) {
        let (mut data, mut asks) = (0, 0);
        while let Some(o) = e.poll_output() {
            match o {
                Output::Broadcast { pdu } if matches!(*pdu, Pdu::Data(_)) => data += 1,
                Output::Send { pdu, .. }
                    if matches!(*pdu, Pdu::RecoveryRq(_) | Pdu::RecoveryBatchRq(_)) =>
                {
                    asks += 1
                }
                _ => {}
            }
        }
        (data, asks)
    }

    #[test]
    fn a_round_has_one_slot_and_the_first_submission_takes_it() {
        let mut e = Engine::new(ProcessId(0), cfg());
        // Before any round has begun nothing may leave: the UDP runtime
        // accepts submissions inside its startup barrier.
        e.submit(Bytes::from_static(b"a"), &[]).unwrap();
        assert_eq!(drain_counts(&mut e).0, 0);
        e.begin_round(Round(0));
        assert_eq!(drain_counts(&mut e).0, 1, "the backlog leaves at the tick");
        // Round 0's slot went to the backlog.
        e.submit(Bytes::from_static(b"b"), &[]).unwrap();
        assert_eq!(drain_counts(&mut e).0, 0);
        e.begin_round(Round(1));
        assert_eq!(drain_counts(&mut e).0, 1);
        // Round 2 begins with nothing to send: its slot is free, once.
        e.begin_round(Round(2));
        assert_eq!(drain_counts(&mut e).0, 0);
        let c = e.submit(Bytes::from_static(b"c"), &[]).unwrap();
        assert!(e.has_processed(c), "sent and processed inside submit");
        assert_eq!(drain_counts(&mut e).0, 1);
        e.submit(Bytes::from_static(b"d"), &[]).unwrap();
        assert_eq!(drain_counts(&mut e).0, 0, "second submission queues");
        assert_eq!(e.gauges().pending_len, 1);
        e.begin_round(Round(3));
        assert_eq!(drain_counts(&mut e).0, 1);
        assert_eq!(e.stats().immediate_submits, 1);
    }

    #[test]
    fn a_flow_blocked_submission_queues_and_the_round_counts_once() {
        let cfg = ProtocolConfig::new(N).with_history_threshold(1);
        let mut e = Engine::new(ProcessId(0), cfg);
        e.begin_round(Round(0));
        e.submit(Bytes::from_static(b"a"), &[]).unwrap();
        assert_eq!(drain_counts(&mut e).0, 1, "history empty: slot taken");
        e.begin_round(Round(1));
        // History holds 1 >= threshold: both submissions queue, and a round
        // is only counted as blocked when its tick finds the backlog stuck.
        e.submit(Bytes::from_static(b"b"), &[]).unwrap();
        e.submit(Bytes::from_static(b"c"), &[]).unwrap();
        assert_eq!(drain_counts(&mut e).0, 0);
        assert_eq!(e.gauges().pending_len, 2);
        assert_eq!(e.stats().flow_blocked_rounds, 0);
        e.begin_round(Round(2));
        assert_eq!(drain_counts(&mut e).0, 0);
        assert_eq!(e.stats().flow_blocked_rounds, 1);
    }

    #[test]
    fn decisions_adopted_inside_one_round_charge_one_attempt() {
        let mut e = Engine::new(ProcessId(2), cfg());
        e.begin_round(Round(2));
        drain_counts(&mut e);
        // A stalled driver hands over eight queued decisions at once.
        for s in 1..=8 {
            e.on_pdu(ProcessId(1), gap_decision(s));
        }
        assert_eq!(drain_counts(&mut e).1, 8, "every adoption asks");
        assert_eq!(e.snapshot().recovery_attempts, 1);
        assert_eq!(e.stats().recovery_retries, 0);
    }

    #[test]
    fn a_known_gap_is_asked_for_once_per_subrun_with_or_without_a_decision() {
        // Nobody ever answers p2. Of every three subruns it adopts a
        // peer's decision in one, its own (as coordinator) in the next and
        // none in the third, where the request round's retry stands in.
        let mut e = Engine::new(ProcessId(2), cfg());
        let r = e.config().r;
        e.begin_round(Subrun(1).request_round());
        drain_counts(&mut e);
        for s in 1..40u32 {
            if s % 3 == 1 {
                e.on_pdu(ProcessId(1), gap_decision(s.into()));
            }
            e.begin_round(Subrun(s.into()).decision_round());
            let adopted = drain_counts(&mut e).1;
            assert_eq!(adopted, usize::from(s % 3 != 0), "subrun {s}");
            e.begin_round(Subrun(u64::from(s) + 1).request_round());
            if !e.status().is_active() {
                assert_eq!(e.status_reason(), Some(StatusReason::RecoveryExhausted));
                assert_eq!(s, r + 1, "one attempt a subrun, R + 1 of them");
                assert_eq!(e.stats().recovery_retries, (r + 1) / 3);
                return;
            }
            assert_eq!(adopted + drain_counts(&mut e).1, 1, "subrun {s}");
            assert_eq!(e.snapshot().recovery_attempts, s);
        }
        panic!("entity must leave after R attempts");
    }

    #[test]
    fn orphan_destruction_discards_waiting_suffix() {
        let mut e = Engine::new(ProcessId(1), cfg());
        // Waiting: p0#3 (depends on p0#2, lost) and p2#1 depending on p0#3.
        e.on_pdu(
            ProcessId(0),
            Pdu::data(DataMsg {
                mid: Mid::new(ProcessId(0), 3),
                deps: vec![Mid::new(ProcessId(0), 2)],
                round: Round(0),
                payload: Bytes::new(),
            }),
        );
        e.on_pdu(
            ProcessId(2),
            Pdu::data(DataMsg {
                mid: Mid::new(ProcessId(2), 1),
                deps: vec![Mid::new(ProcessId(0), 3)],
                round: Round(0),
                payload: Bytes::new(),
            }),
        );
        assert_eq!(e.gauges().waiting_len, 2);
        // Full-group decision: p0 crashed, best alive holder has seq 1,
        // min_waiting 3 → gap.
        let mut d = Decision::genesis(N);
        d.subrun = Subrun(2);
        d.full_group = true;
        d.process_state[0] = false;
        d.max_processed[0] = MaxProcessed {
            holder: ProcessId(1),
            seq: 1,
        };
        d.min_waiting[0] = 3;
        e.on_pdu(ProcessId(2), Pdu::decision(d));
        assert_eq!(e.gauges().waiting_len, 0, "orphan suffix destroyed");
        let mut discarded = Vec::new();
        while let Some(o) = e.poll_output() {
            if let Output::Discarded { mids } = o {
                discarded = mids;
            }
        }
        assert_eq!(
            discarded,
            vec![Mid::new(ProcessId(0), 3), Mid::new(ProcessId(2), 1)]
        );
        assert_eq!(e.stats().discarded, 2);
    }

    #[test]
    fn flow_control_defers_generation() {
        let cfg = ProtocolConfig::new(N).with_history_threshold(1);
        let mut e = Engine::new(ProcessId(0), cfg);
        e.submit(Bytes::from_static(b"a"), &[]).unwrap();
        e.submit(Bytes::from_static(b"b"), &[]).unwrap();
        e.begin_round(Round(0));
        // First send went out; history now holds 1 ≥ threshold.
        assert_eq!(e.gauges().pending_len, 1);
        e.begin_round(Round(1));
        assert_eq!(
            e.gauges().pending_len,
            1,
            "second send blocked by flow control"
        );
        assert!(e.stats().flow_blocked_rounds >= 1);
        // Simulate cleaning: a full-group decision with stable[0] = 1.
        let mut d = Decision::genesis(N);
        d.subrun = Subrun(1);
        d.stable = vec![1, 0, 0];
        e.on_pdu(ProcessId(1), Pdu::decision(d));
        assert_eq!(e.gauges().history_len, 0);
        e.begin_round(Round(2));
        assert_eq!(e.gauges().pending_len, 0, "unblocked after cleaning");
    }

    #[test]
    fn single_process_group_self_coordinates() {
        let mut e = Engine::new(ProcessId(0), ProtocolConfig::new(1));
        e.submit(Bytes::from_static(b"solo"), &[]).unwrap();
        for r in 0..6 {
            e.begin_round(Round(r));
            while e.poll_output().is_some() {}
        }
        assert_eq!(e.status(), ProcessStatus::Active);
        assert_eq!(e.last_processed(ProcessId(0)), 1);
        assert_eq!(e.gauges().history_len, 0, "self-stability cleans history");
        assert_eq!(e.stats().decisions_made, 3);
    }

    #[test]
    #[should_panic(expected = "outside group")]
    fn engine_owner_must_be_in_group() {
        let _ = Engine::new(ProcessId(9), cfg());
    }
}
