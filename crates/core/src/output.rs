//! Engine effects and status types.

use core::fmt;
use std::sync::Arc;

use urcgc_types::{DataMsg, Mid, Pdu, ProcessId};

/// Life-cycle state of a protocol entity.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ProcessStatus {
    /// Participating normally.
    #[default]
    Active,
    /// Committed suicide after learning the group declared it crashed
    /// (Section 4: "when an alive process notices it is supposed dead, it
    /// commits suicide").
    Suicided,
    /// Left the group autonomously — after failing to receive from `K`
    /// consecutive coordinators, or after `R` unsuccessful recovery
    /// attempts.
    Left,
}

impl ProcessStatus {
    /// Whether the entity still participates in the protocol.
    pub fn is_active(self) -> bool {
        matches!(self, ProcessStatus::Active)
    }
}

/// Why a status change happened.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StatusReason {
    /// A decision carried `process_state[me] == false`.
    DeclaredCrashed,
    /// `K` consecutive subruns elapsed without receiving any decision.
    MissedKDecisions,
    /// `R` consecutive recovery attempts made no progress.
    RecoveryExhausted,
}

impl fmt::Display for StatusReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            StatusReason::DeclaredCrashed => "declared crashed by the group",
            StatusReason::MissedKDecisions => "missed K consecutive coordinator decisions",
            StatusReason::RecoveryExhausted => "R recovery attempts without progress",
        };
        f.write_str(s)
    }
}

/// An effect produced by the engine, drained via
/// [`Engine::poll_output`](crate::Engine::poll_output).
#[derive(Clone, Debug)]
pub enum Output {
    /// Transmit `pdu` to one destination. Unicast is the rare path
    /// (requests, recovery); boxing keeps the hot outbox variants small.
    Send {
        /// Destination process.
        to: ProcessId,
        /// The protocol data unit to encode and ship.
        pdu: Box<Pdu>,
    },
    /// Transmit `pdu` to every other group member. The PDU is shared — the
    /// transport encodes it once and fans the frame out, so an n-way
    /// broadcast never deep-copies the message body per destination.
    Broadcast {
        /// The protocol data unit to encode (once) and ship to everyone.
        pdu: Arc<Pdu>,
    },
    /// `urcgc.data.Ind`: a message has been *processed* — hand it to the
    /// application. Emitted in causal order. The handle is shared with the
    /// engine's history buffer.
    Deliver {
        /// The processed message.
        msg: Arc<DataMsg>,
    },
    /// `urcgc.data.Conf`: the local entity has broadcast and processed the
    /// application's own submission.
    Confirm {
        /// The mid assigned to the submission.
        mid: Mid,
    },
    /// Waiting messages were destroyed by orphan-sequence elimination.
    Discarded {
        /// The destroyed mids, sorted.
        mids: Vec<Mid>,
    },
    /// The entity changed life-cycle state.
    StatusChanged {
        /// New status.
        status: ProcessStatus,
        /// What triggered it.
        reason: StatusReason,
    },
}

/// Rejected submissions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The entity is no longer active.
    NotActive(ProcessStatus),
    /// The dependency list was rejected by the labeler.
    BadLabel(String),
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::NotActive(s) => write!(f, "entity is not active (status {s:?})"),
            SubmitError::BadLabel(e) => write!(f, "invalid causal label: {e}"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Counters the engine maintains for observability and experiments.
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineStats {
    /// Messages processed (own + foreign).
    pub processed: u64,
    /// Messages currently parked in the waiting list (gauge).
    pub waiting: usize,
    /// Current history population (gauge).
    pub history_len: usize,
    /// Recovery requests sent, one per lagging origin per ask: first asks
    /// (made when the decision that shows the gap is adopted) plus
    /// [`recovery_retries`](EngineStats::recovery_retries).
    pub recovery_requests: u64,
    /// The part of `recovery_requests` re-asked from a request round that
    /// no ask preceded — a decision and a reply were both lost. A high
    /// share means replies are not getting through. (32 bits, like
    /// `immediate_submits`: the pair takes one word, and `Engine` — one per
    /// hosted group — stays the size it was.)
    pub recovery_retries: u32,
    /// Messages recovered from peers' histories.
    pub recovered: u64,
    /// Messages destroyed by orphan elimination.
    pub discarded: u64,
    /// Rounds that began with a backlog flow control would not let out.
    pub flow_blocked_rounds: u64,
    /// Submissions broadcast inside `submit`, in a round whose slot was
    /// still free, instead of waiting for the next round to begin.
    pub immediate_submits: u32,
    /// Decisions applied.
    pub decisions_applied: u64,
    /// Decisions computed as coordinator.
    pub decisions_made: u64,
    /// Messages freed from history by stability purges.
    pub purged_messages: u64,
    /// Whole history segments freed by stability purges (each drop is O(1);
    /// purge cost scales with this counter, not with message population).
    pub purged_segments: u64,
}

/// Every state-population gauge of an [`Engine`](crate::Engine), read in
/// one call ([`Engine::gauges`](crate::Engine::gauges)).
///
/// These six numbers used to be six separate getters; one typed struct
/// keeps the observation surface in lockstep across the simulator, the
/// soak harnesses, the UDP runtime, and [`EngineSnapshot`] — a new gauge
/// is added here once and every layer sees it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineGauges {
    /// History population, in messages (Figure 6's "history length").
    pub history_len: usize,
    /// Payload bytes resident in the history table.
    pub history_bytes: usize,
    /// Live history segments (capacity actually allocated; the soak
    /// harness tracks this as "history residency").
    pub history_segments: usize,
    /// How far processing runs ahead of group stability, in messages: the
    /// sum over origins of `last_processed − stable_frontier` — the
    /// population the next full-group purge could free.
    pub purge_lag: u64,
    /// Waiting-list population.
    pub waiting_len: usize,
    /// Submissions accepted but not yet broadcast.
    pub pending_len: usize,
}

impl EngineGauges {
    /// Whether the entity holds no undelivered backlog — no submission
    /// waiting to be broadcast and no message parked for missing causes.
    /// The common prefix of every quiescence predicate in the workspace.
    pub fn is_drained(&self) -> bool {
        self.pending_len == 0 && self.waiting_len == 0
    }
}

/// A serializable point-in-time view of an [`Engine`](crate::Engine) — see
/// [`Engine::snapshot`](crate::Engine::snapshot).
#[derive(Clone, Debug)]
pub struct EngineSnapshot {
    /// This member's id.
    pub me: u16,
    /// Life-cycle status (Debug rendering).
    pub status: String,
    /// Current round.
    pub round: u64,
    /// Current subrun.
    pub subrun: u64,
    /// Subrun of the last applied decision, if any.
    pub last_decision_subrun: Option<u64>,
    /// Whether the last applied decision covered the full alive group.
    pub last_decision_full_group: bool,
    /// Per-origin contiguous processing frontier.
    pub frontier: Vec<u64>,
    /// Per-member liveness in the local view.
    pub alive: Vec<bool>,
    /// State-population gauges at snapshot time.
    pub gauges: EngineGauges,
    /// Consecutive subruns without a decision.
    pub missed_decisions: u32,
    /// Consecutive fruitless recovery attempts.
    pub recovery_attempts: u32,
    /// Counters.
    pub stats: EngineStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn active_is_the_only_participating_status() {
        assert!(ProcessStatus::Active.is_active());
        assert!(!ProcessStatus::Suicided.is_active());
        assert!(!ProcessStatus::Left.is_active());
    }

    #[test]
    fn reasons_render() {
        assert!(StatusReason::DeclaredCrashed
            .to_string()
            .contains("crashed"));
        assert!(StatusReason::MissedKDecisions.to_string().contains("K"));
        assert!(StatusReason::RecoveryExhausted.to_string().contains("R"));
    }

    #[test]
    fn submit_errors_render() {
        let e = SubmitError::NotActive(ProcessStatus::Left);
        assert!(e.to_string().contains("Left"));
        let e = SubmitError::BadLabel("nope".into());
        assert!(e.to_string().contains("nope"));
    }
}
