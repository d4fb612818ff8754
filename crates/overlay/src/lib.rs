#![warn(missing_docs)]

//! Overlay dissemination: breaking the n-unicast barrier.
//!
//! The paper's transport service broadcasts by n-unicast — every process
//! sends every `data`/`decision` frame to all n−1 peers, which is what
//! caps the soak at n ≈ 100. This crate adds the layer that lifts that
//! cap: a deterministic, seeded overlay [`Plan`] (degree-bounded k-ary
//! tree, or an infect-and-die gossip variant) and the per-process
//! [`Disseminator`] that expands each logical broadcast into O(degree)
//! enveloped sends and forwards received envelopes hop by hop, so
//! per-process fan-out stays flat as n grows.
//!
//! Design constraints inherited from the protocol:
//!
//! * **Determinism** — the overlay is a pure function of `(seed, alive
//!   view)`; replays and the checker stay bit-exact.
//! * **Crash tolerance without new machinery** — a crash re-parents the
//!   overlay (every process recomputes the plan from its updated group
//!   view), and any frames lost in the gap are healed by the engine's
//!   existing recovery-from-history, the same way single-hop omissions
//!   are.
//! * **Control stays direct** — only logical broadcasts (`data`,
//!   `decision`) ride the overlay; requests, recovery, and handoff
//!   traffic keep their single-hop unicast semantics.

pub mod dissem;
pub mod plan;

pub use dissem::{Disseminator, RelayDisposition};
pub use plan::{OverlayConfig, OverlayMode, Plan};
pub use urcgc_transport::relay::{is_relay_frame, RELAY_HEADER_LEN};
