#![warn(missing_docs)]

//! Threaded UDP runtime: the paper's prototype, on real sockets.
//!
//! Section 7 announces "a first prototype of the algorithm … currently
//! under development over an Ethernet LAN … among a group of processes
//! being run on a set of Unix workstations". This crate is that prototype:
//! each group member is its protocol state behind one lock and a pair of
//! plain `std::thread`s around a blocking `std::net::UdpSocket` — a
//! receiver (startup barrier, loss injection, then every datagram straight
//! into the engine) and a round ticker (the wall-clock replacement for the
//! simulator's round clock); the application's own thread is the third
//! party, doing its `submit` under the same lock ([`node`]). No async
//! runtime is involved, so the crate builds in the same offline
//! environment as the rest of the workspace.
//!
//! The [`Engine`](urcgc::Engine) inside each member is byte-for-byte the
//! same state machine the simulator drives — the whole point of the
//! sans-I/O design. Around it:
//!
//! * [`frag`] fits engine frames into datagrams (MTU fragmentation, one
//!   XOR parity datagram per multi-fragment frame so that a lost fragment
//!   is rebuilt on arrival, and timeout-evicting reassembly, on the
//!   transport codec's wire format);
//! * [`proxy`] is a drop/duplicate/delay UDP middlebox for fault
//!   injection *between* address spaces;
//! * [`report`] defines the `urcgc-node/1` / `urcgc-cluster/1` documents
//!   the multi-process harness exchanges, feeding
//!   [`urcgc_check::check_cluster`];
//! * the `loopback-cluster` binary spawns N OS processes behind the proxy
//!   and gates the run on the checker's end-of-run oracles — the
//!   real-network CI gate;
//! * the `urcgc_node` binary runs one member as a standalone process (a
//!   minimal group chat, and the deployment skeleton).
//!
//! The API is deliberately the shape an async variant would expose —
//! `UdpGroup::spawn`, `ProcessHandle::{submit, next_event, status,
//! snapshot, kill}`, `spawn_member` — with blocking methods where the
//! earlier tokio edition had `async fn`s. Porting back onto an async
//! runtime is a transport swap, not a redesign: the two threads become two
//! tasks and the lock an async mutex (or one task that selects over socket
//! and timer and owns the state outright); everything above
//! [`ProcessHandle`] is unchanged.
//!
//! ```no_run
//! use bytes::Bytes;
//! use std::time::Duration;
//! use urcgc_runtime::{AppEvent, UdpGroup};
//! use urcgc_types::ProtocolConfig;
//!
//! let cfg = ProtocolConfig::new(3);
//! let mut group = UdpGroup::spawn(cfg, Duration::from_millis(5), 0.0, 1).unwrap();
//! let mid = group.handle(0).submit(Bytes::from_static(b"hi"), vec![]).unwrap();
//! // Await delivery on another member.
//! while let Some(ev) = group.handle(1).next_event(Duration::from_secs(5)) {
//!     if let AppEvent::Delivered(msg) = ev {
//!         assert_eq!(msg.mid, mid);
//!         break;
//!     }
//! }
//! group.shutdown();
//! ```

pub mod frag;
pub mod group;
pub mod node;
pub mod proxy;
pub mod report;

pub use frag::{Fragmenter, Reassembler};
pub use group::UdpGroup;
pub use node::{
    spawn_member, spawn_member_on, AppEvent, GroupError, GroupShutdown, NetStats, NodeOptions,
    ProcessHandle,
};
pub use proxy::{LossyProxy, ProxyOptions, ProxyStats};
pub use report::{check_delivery_log, order_digests, ClusterReport, NodeReport};
/// The quiescence rule the in-model members terminate on, so real-network
/// harnesses stop on the same condition.
pub use urcgc::sim::workload_quiescent;
