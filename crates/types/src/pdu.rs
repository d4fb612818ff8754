//! Protocol data units exchanged by urcgc entities.
//!
//! Four PDU families exist (Sections 4–5): application **data** broadcasts,
//! per-subrun **requests** from members to the rotating coordinator,
//! coordinator **decision** broadcasts, and point-to-point **recovery**
//! request/reply pairs served from the history buffer.

use std::sync::Arc;

use bytes::Bytes;

use crate::decision::Decision;
use crate::id::{Mid, ProcessId, Round, Subrun};

/// An application message as it travels on the wire: its unique [`Mid`], the
/// explicit list of mids it causally depends on (Definition 3.1 — the `list`
/// field), the round it was generated in, and the opaque payload.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DataMsg {
    /// Unique identifier of this message.
    pub mid: Mid,
    /// Direct causal predecessors published by the sender. Under the
    /// intermediate interpretation this holds at most one mid per origin.
    pub deps: Vec<Mid>,
    /// Round in which the sender generated the message (used by the
    /// experiment harness to measure end-to-end delay in round units).
    pub round: Round,
    /// Application payload.
    pub payload: Bytes,
}

/// The request a member sends to the current coordinator in the first round
/// of every subrun.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RequestMsg {
    /// Requesting process.
    pub sender: ProcessId,
    /// Subrun this request belongs to.
    pub subrun: Subrun,
    /// `last_processed[j]`: highest sequence number of origin `p_j` this
    /// process has processed (length `n`).
    pub last_processed: Vec<u64>,
    /// `waiting[j]`: oldest sequence number of origin `p_j` sitting in this
    /// process's waiting list ([`crate::id::NO_SEQ`] if none; length `n`).
    pub waiting: Vec<u64>,
    /// The most recent decision this process received — how decisions
    /// reliably circulate from coordinator `c−1` to coordinator `c`. Shared
    /// with the sender's engine: a decision is immutable once computed, so
    /// carrying it costs a refcount bump.
    pub prev_decision: Arc<Decision>,
    /// Whether this request has already been forwarded once by an
    /// ex-coordinator (straggler absorption; prevents forwarding loops).
    pub forwarded: bool,
}

/// Point-to-point recovery request: "send me origin `origin`'s messages with
/// sequence numbers in `(after_seq, upto_seq]` from your history".
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RecoveryRq {
    /// The lagging process asking for messages.
    pub requester: ProcessId,
    /// Sequence origin to recover.
    pub origin: ProcessId,
    /// Recover messages with `seq > after_seq` …
    pub after_seq: u64,
    /// … up to and including `upto_seq`.
    pub upto_seq: u64,
}

/// Reply to a [`RecoveryRq`]: the recovered messages, in sequence order.
/// May carry fewer messages than asked for if the responder's history has
/// already been cleaned past `after_seq` or it never processed that far.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RecoveryReply {
    /// The process serving the recovery.
    pub responder: ProcessId,
    /// Origin the messages belong to.
    pub origin: ProcessId,
    /// Recovered messages in increasing `seq` order. Shared with the
    /// responder's history buffer — building a reply never deep-copies
    /// message bodies.
    pub messages: Vec<Arc<DataMsg>>,
}

/// One origin's worth of a batched recovery ask: the `(after, upto]` window
/// a [`RecoveryBatchRq`] wants for that origin.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RecoveryWant {
    /// Sequence origin to recover.
    pub origin: ProcessId,
    /// Recover messages with `seq > after_seq` …
    pub after_seq: u64,
    /// … up to and including `upto_seq`.
    pub upto_seq: u64,
}

/// Batched recovery request: every per-origin window a lagging process wants
/// from one holder, coalesced into a single PDU
/// (`ProtocolConfig::batched_recovery`). Semantically equivalent to one
/// [`RecoveryRq`] per element of `wants`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RecoveryBatchRq {
    /// The lagging process asking for messages.
    pub requester: ProcessId,
    /// Per-origin recovery windows, in increasing origin order.
    pub wants: Vec<RecoveryWant>,
}

/// One origin's worth of a batched recovery answer.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RecoveryRun {
    /// Origin the messages belong to.
    pub origin: ProcessId,
    /// Recovered messages in increasing `seq` order, shared with the
    /// responder's history buffer (never deep-copied).
    pub messages: Vec<Arc<DataMsg>>,
}

/// Reply to a [`RecoveryBatchRq`]: one run of recovered messages per
/// requested origin, all in a single frame. Semantically equivalent to one
/// [`RecoveryReply`] per element of `runs`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RecoveryBatch {
    /// The process serving the recovery.
    pub responder: ProcessId,
    /// Per-origin recovered runs, in increasing origin order.
    pub runs: Vec<RecoveryRun>,
}

/// Every PDU the urcgc protocol puts on the wire.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Pdu {
    /// Application data broadcast. The message body is reference-counted so
    /// one submit can fan out to every destination, the history buffer, and
    /// the local delivery queue without deep-copying `deps`/payload.
    Data(Arc<DataMsg>),
    /// Member → coordinator subrun request.
    Request(RequestMsg),
    /// Coordinator → group decision broadcast. Immutable once computed and
    /// reference-counted: the broadcast, every adopting engine, the requests
    /// that circulate it and the next coordinator's matrix share one
    /// allocation.
    Decision(Arc<Decision>),
    /// Lagging process → most-updated process recovery ask.
    RecoveryRq(RecoveryRq),
    /// Recovery answer served from history.
    RecoveryReply(RecoveryReply),
    /// Coalesced recovery ask (batched framing; counts as
    /// [`PduKind::RecoveryRq`] traffic).
    RecoveryBatchRq(RecoveryBatchRq),
    /// Coalesced recovery answer (batched framing; counts as
    /// [`PduKind::RecoveryReply`] traffic).
    RecoveryBatch(RecoveryBatch),
}

impl Pdu {
    /// Wraps a freshly built [`DataMsg`] for the wire.
    pub fn data(msg: DataMsg) -> Pdu {
        Pdu::Data(Arc::new(msg))
    }

    /// Wraps a freshly computed [`Decision`] for the wire.
    pub fn decision(decision: Decision) -> Pdu {
        Pdu::Decision(Arc::new(decision))
    }

    /// Short tag for traffic accounting (stable across runs; used as a map
    /// key by the simulator's traffic meter).
    pub fn kind(&self) -> PduKind {
        match self {
            Pdu::Data(_) => PduKind::Data,
            Pdu::Request(_) => PduKind::Request,
            Pdu::Decision(_) => PduKind::Decision,
            Pdu::RecoveryRq(_) | Pdu::RecoveryBatchRq(_) => PduKind::RecoveryRq,
            Pdu::RecoveryReply(_) | Pdu::RecoveryBatch(_) => PduKind::RecoveryReply,
        }
    }

    /// Whether this PDU is protocol control traffic (everything except
    /// application data) — the quantity Table 1 accounts.
    pub fn is_control(&self) -> bool {
        !matches!(self, Pdu::Data(_))
    }
}

/// Discriminant-only view of [`Pdu`] for metrics keys.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum PduKind {
    /// Application data broadcast.
    Data,
    /// Member → coordinator request.
    Request,
    /// Coordinator decision broadcast.
    Decision,
    /// Recovery request.
    RecoveryRq,
    /// Recovery reply.
    RecoveryReply,
}

impl PduKind {
    /// All kinds, for exhaustive reporting.
    pub const ALL: [PduKind; 5] = [
        PduKind::Data,
        PduKind::Request,
        PduKind::Decision,
        PduKind::RecoveryRq,
        PduKind::RecoveryReply,
    ];

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            PduKind::Data => "data",
            PduKind::Request => "request",
            PduKind::Decision => "decision",
            PduKind::RecoveryRq => "recovery-rq",
            PduKind::RecoveryReply => "recovery-reply",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::NO_SEQ;

    fn sample_data() -> DataMsg {
        DataMsg {
            mid: Mid::new(ProcessId(1), 2),
            deps: vec![Mid::new(ProcessId(0), 1)],
            round: Round(4),
            payload: Bytes::from_static(b"hello"),
        }
    }

    #[test]
    fn kind_matches_variant() {
        assert_eq!(Pdu::data(sample_data()).kind(), PduKind::Data);
        let rq = RecoveryRq {
            requester: ProcessId(0),
            origin: ProcessId(1),
            after_seq: NO_SEQ,
            upto_seq: 3,
        };
        assert_eq!(Pdu::RecoveryRq(rq).kind(), PduKind::RecoveryRq);
    }

    #[test]
    fn control_classification_excludes_data() {
        assert!(!Pdu::data(sample_data()).is_control());
        assert!(Pdu::decision(Decision::genesis(2)).is_control());
    }

    #[test]
    fn all_kinds_have_unique_labels() {
        let labels: std::collections::HashSet<_> = PduKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), PduKind::ALL.len());
    }

    #[test]
    fn batched_recovery_pdus_account_as_their_unbatched_kinds() {
        let rq = Pdu::RecoveryBatchRq(RecoveryBatchRq {
            requester: ProcessId(0),
            wants: vec![RecoveryWant {
                origin: ProcessId(1),
                after_seq: NO_SEQ,
                upto_seq: 3,
            }],
        });
        assert_eq!(rq.kind(), PduKind::RecoveryRq);
        assert!(rq.is_control());
        let reply = Pdu::RecoveryBatch(RecoveryBatch {
            responder: ProcessId(1),
            runs: vec![RecoveryRun {
                origin: ProcessId(1),
                messages: vec![Arc::new(sample_data())],
            }],
        });
        assert_eq!(reply.kind(), PduKind::RecoveryReply);
        assert!(reply.is_control());
    }
}
