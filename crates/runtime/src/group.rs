//! In-process convenience: a whole group on localhost sockets.
//!
//! [`UdpGroup`] spawns `cfg.n` members, each on its own `127.0.0.1:0`
//! socket with its own two threads ([`spawn_member_on`]) — one OS
//! process, `n` real members talking real UDP. This is the test and
//! example harness; real deployments run one member per OS process via
//! [`spawn_member`](crate::spawn_member) (see the `loopback-cluster` and
//! `urcgc_node` binaries).

use std::net::UdpSocket;
use std::time::Duration;

use crate::node::{spawn_member_on, GroupError, GroupShutdown, NodeOptions, ProcessHandle};
use urcgc_types::{ProcessId, ProtocolConfig};

/// A running group of urcgc processes on localhost UDP sockets.
pub struct UdpGroup {
    handles: Vec<ProcessHandle>,
    shutdown: GroupShutdown,
}

impl UdpGroup {
    /// Binds `cfg.n` UDP sockets on localhost and spawns one member per
    /// socket. `loss` is a Bernoulli drop probability applied to every
    /// received datagram (fault injection on real sockets); `seed` makes
    /// the injector deterministic.
    pub fn spawn(
        cfg: ProtocolConfig,
        round_duration: Duration,
        loss: f64,
        seed: u64,
    ) -> Result<UdpGroup, GroupError> {
        UdpGroup::spawn_with(
            cfg,
            NodeOptions::default()
                .round_duration(round_duration)
                .loss(loss, seed),
        )
    }

    /// [`spawn`](UdpGroup::spawn) with full [`NodeOptions`] control. Each
    /// member derives its own loss-injector seed from `opts.seed`.
    pub fn spawn_with(cfg: ProtocolConfig, opts: NodeOptions) -> Result<UdpGroup, GroupError> {
        cfg.validate()
            .map_err(|e| GroupError::Rejected(e.to_string()))?;
        let n = cfg.n;
        let mut sockets = Vec::with_capacity(n);
        let mut addrs = Vec::with_capacity(n);
        for _ in 0..n {
            let sock = UdpSocket::bind("127.0.0.1:0")?;
            addrs.push(sock.local_addr()?);
            sockets.push(sock);
        }
        let mut handles = Vec::with_capacity(n);
        let mut shutdown = GroupShutdown::empty();
        for (i, sock) in sockets.into_iter().enumerate() {
            let me = ProcessId::from_index(i);
            let member_opts = NodeOptions {
                seed: opts.seed ^ (i as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F),
                ..opts.clone()
            };
            let (handle, member_shutdown) =
                spawn_member_on(sock, me, addrs.clone(), cfg.clone(), member_opts)?;
            handles.push(handle);
            shutdown.merge(member_shutdown);
        }
        Ok(UdpGroup { handles, shutdown })
    }

    /// Number of members.
    pub fn n(&self) -> usize {
        self.handles.len()
    }

    /// Mutable access to one member's handle.
    pub fn handle(&mut self, i: usize) -> &mut ProcessHandle {
        &mut self.handles[i]
    }

    /// Splits the group into its handles (for moving to worker threads).
    pub fn into_handles(self) -> (Vec<ProcessHandle>, GroupShutdown) {
        (self.handles, self.shutdown)
    }

    /// Stops all members and joins their threads.
    pub fn shutdown(self) {
        self.shutdown.shutdown();
    }
}
