#![warn(missing_docs)]

//! The t-service transport abstraction of Section 5.
//!
//! The paper mounts the urcgc entities on abstract transport SAPs whose
//! service is `t.data.Rq(m, h, v, d)`: deliver data `d` to the destination
//! set `m` with **n-unicast semantics**, retransmitting until at least `h`
//! of the destinations have received it (the voting function `v` is unused
//! by urcgc). Two properties are load-bearing:
//!
//! * the primitive **never fails** — after the retry budget is exhausted it
//!   confirms anyway, and the urcgc layer's own history recovery covers the
//!   residue (this is what makes urcgc independent of transport QoS);
//! * with `h = 1` (or no transport at all) the entity sits directly on a
//!   datagram subnetwork — the configuration all the paper's simulations
//!   use — while larger `h` shifts retransmission *down* the stack and
//!   reduces recovery-from-history traffic.
//!
//! [`TransportEntity`] is a sans-I/O state machine (same pattern as
//! `urcgc::Engine`): feed frames and ticks, drain [`TOutput`] effects. It
//! also performs fragmentation/reassembly so service data units larger than
//! the network MTU travel as multiple frames ("useful when there is the
//! need of fragmenting and assembling the urcgc data units to fit the
//! network packet size").

//! ```
//! use bytes::Bytes;
//! use urcgc_transport::{TOutput, TransportConfig, TransportEntity};
//! use urcgc_types::ProcessId;
//!
//! let mut sender = TransportEntity::new(ProcessId(0), TransportConfig::default());
//! let mut receiver = TransportEntity::new(ProcessId(1), TransportConfig::default());
//! sender.t_data_rq(&[ProcessId(1)], 1, Bytes::from_static(b"payload"));
//! // Carry frames sender → receiver, acks back, until the Ind arrives.
//! while let Some(out) = sender.poll_output() {
//!     if let TOutput::Send { frame, .. } = out {
//!         receiver.on_frame(ProcessId(0), frame);
//!     }
//! }
//! let mut got = None;
//! while let Some(out) = receiver.poll_output() {
//!     match out {
//!         TOutput::Send { frame, .. } => sender.on_frame(ProcessId(1), frame),
//!         TOutput::Ind { data, .. } => got = Some(data),
//!         _ => {}
//!     }
//! }
//! assert_eq!(got.as_deref(), Some(&b"payload"[..]));
//! ```

pub mod entity;
pub mod frame;
pub mod relay;

pub use entity::{TOutput, TransportConfig, TransportEntity, XferId};
pub use frame::{fragment, parity, rebuild, TFrame, DATA_HEADER_LEN, PARITY_HEADER_LEN};
pub use relay::{
    decode_relay, encode_relay, encode_relay_into, is_relay_frame, RelayError, RelayFrame,
    RelaySeen, RELAY_HEADER_LEN, RELAY_RESIDUE_MAX,
};
