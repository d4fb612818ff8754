#![warn(missing_docs)]

//! Core identifiers, protocol data units, and the wire codec shared by every
//! crate in the URCGC reproduction.
//!
//! The paper — Aiello, Pagani, Rossi, *Causal Ordering in Reliable Group
//! Communications* (SIGCOMM 1993) — defines a small protocol vocabulary:
//!
//! * every application message carries a unique **mid** plus the list of mids
//!   it causally depends on (Definition 3.1);
//! * once per *subrun* each process sends a **request** to the rotating
//!   coordinator containing its `last_processed` vector, the oldest waiting
//!   mid per sequence, and the most recent **decision** it received;
//! * the coordinator answers with a new **decision** carrying the stability
//!   frontier, failure-attempt counters, the decided group view, the most
//!   updated process per sequence and the `min_waiting` vector;
//! * point-to-point **recovery** PDUs pull missed messages out of a peer's
//!   history buffer.
//!
//! All of these are defined here together with a deterministic, compact
//! binary encoding ([`wire`]). The encoding is hand-rolled (rather than
//! delegated to `serde`) because the evaluation section of the paper reports
//! *byte sizes* of control messages (Table 1): the experiment harness
//! measures the real encoded size of every PDU that crosses the simulated
//! network.

pub mod config;
pub mod decision;
pub mod error;
pub mod fnv;
pub mod group;
pub mod id;
pub mod pdu;
pub mod tag;
pub mod view;
pub mod wire;

pub use config::{CausalityMode, ConfigError, ProtocolConfig};
pub use decision::{Decision, MaxProcessed};
pub use error::WireError;
pub use fnv::{fnv1a_32, fnv1a_64, Fnv32, Fnv64};
pub use group::{
    decode_group, encode_group, group_of, is_group_frame, GroupEnvelopeError, GroupFrame,
    GROUP_HEADER_LEN,
};
pub use id::{GroupId, Mid, ProcessId, Round, Subrun, NO_SEQ};
pub use pdu::{
    DataMsg, Pdu, PduKind, RecoveryBatch, RecoveryBatchRq, RecoveryReply, RecoveryRq, RecoveryRun,
    RecoveryWant, RequestMsg,
};
pub use view::GroupView;
pub use wire::{decode_pdu, encode_pdu, frame_kind, FrameCache, WireDecode, WireEncode};
