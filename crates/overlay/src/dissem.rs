//! The [`Disseminator`]: the hop-by-hop relay layer between the engine and
//! the transport.
//!
//! The engine keeps emitting *logical* broadcasts ([`Output::Broadcast`]
//! upstream); the disseminator expands each one into an enveloped send to
//! the process's O(degree) overlay children instead of n−1 unicasts, and
//! turns every received envelope into (at most) one local delivery plus an
//! O(degree) forward of the *same* envelope bytes. Control traffic never
//! passes through here — requests, recovery, and coordinator handoff stay
//! direct unicast, because they are point-to-point by nature and their
//! loss-recovery semantics (R retries, K missed-decision bound) assume a
//! single hop.

use bytes::{Bytes, BytesMut};
use urcgc_transport::relay::{decode_relay, encode_relay_into, RelaySeen, RELAY_HEADER_LEN};
use urcgc_types::{frame_kind, PduKind, ProcessId};

use crate::plan::{OverlayConfig, Plan};

/// What to do with a received relay frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RelayDisposition {
    /// First sighting: hand `inner` to the engine as if sent by `origin`,
    /// and re-send `envelope` (the received bytes, refcount-cloned) to
    /// each of `forward`.
    Deliver {
        /// Logical sender of the broadcast.
        origin: ProcessId,
        /// The unwrapped engine frame (zero-copy slice of the envelope).
        inner: Bytes,
        /// Overlay children to forward the envelope to.
        forward: Vec<ProcessId>,
        /// The envelope to forward, byte-identical to what arrived.
        envelope: Bytes,
    },
    /// Already seen `(origin, seq)` (redundant path or re-parent overlap):
    /// drop silently.
    Duplicate,
    /// Not a valid relay envelope (corruption): drop, count as
    /// undecodable.
    Undecodable,
}

/// Per-process overlay relay state.
pub struct Disseminator {
    me: ProcessId,
    /// Group cardinality: an envelope naming an origin at or past it is
    /// not from this group.
    n: usize,
    plan: Plan,
    /// Next sequence number for this process's own broadcasts.
    next_seq: u64,
    /// Forward-once dedup over `(origin, seq)`.
    seen: RelaySeen,
    /// Warm envelope-encode arena (one shared allocation per broadcast).
    wrap_buf: BytesMut,
    /// Broadcasts this process originated.
    originated: u64,
    /// Fresh envelopes this process forwarded onward (frames, not bytes).
    forwarded: u64,
    /// Envelopes dropped as duplicates.
    duplicates: u64,
    /// View changes that re-parented the overlay.
    reparents: u64,
}

impl Disseminator {
    /// Builds the relay layer for process `me` of a group of `n` (all
    /// initially alive).
    pub fn new(me: ProcessId, n: usize, cfg: OverlayConfig) -> Disseminator {
        Disseminator {
            me,
            n,
            plan: Plan::build(cfg, &vec![true; n]),
            next_seq: 0,
            seen: RelaySeen::new(),
            wrap_buf: BytesMut::new(),
            originated: 0,
            forwarded: 0,
            duplicates: 0,
            reparents: 0,
        }
    }

    /// Re-plans if the engine's alive view changed (crash-triggered
    /// re-parenting). Call with the engine's current view flags before
    /// every send/receive batch; a no-op while the view is stable.
    pub fn sync_view(&mut self, alive: &[bool]) {
        if self.plan.rebuild(alive) {
            self.reparents += 1;
        }
    }

    /// Wraps one logical broadcast: returns the envelope and the overlay
    /// children to send it to. The inner frame is copied once into the
    /// envelope; each listed destination shares the same allocation.
    pub fn broadcast(&mut self, inner: &[u8]) -> (Bytes, Vec<ProcessId>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.originated += 1;
        // Mark our own broadcast seen so a cycle (possible under gossip or
        // transient re-parenting) never re-forwards it from here.
        self.seen.insert(self.me, seq);
        self.wrap_buf.clear();
        self.wrap_buf.reserve(RELAY_HEADER_LEN + inner.len());
        encode_relay_into(self.me, seq, inner, &mut self.wrap_buf);
        let envelope = Bytes::copy_from_slice(&self.wrap_buf);
        let targets = self.plan.fanout(self.me, seq, self.me);
        (envelope, targets)
    }

    /// Classifies a received relay envelope: deliver-and-forward on first
    /// sight, drop duplicates, reject corruption.
    pub fn on_frame(&mut self, frame: &Bytes) -> RelayDisposition {
        let Ok(relay) = decode_relay(frame) else {
            return RelayDisposition::Undecodable;
        };
        // The origin sizes the dedup table and becomes the engine's `from`:
        // the wire must not choose either.
        if relay.origin.index() >= self.n {
            return RelayDisposition::Undecodable;
        }
        if !self.seen.insert(relay.origin, relay.seq) {
            self.duplicates += 1;
            return RelayDisposition::Duplicate;
        }
        let mut forward = self.plan.fanout(relay.origin, relay.seq, self.me);
        if self.drops_decision_forwards() && frame_kind(&relay.inner) == Some(PduKind::Decision) {
            forward.clear();
        }
        if !forward.is_empty() {
            self.forwarded += 1;
        }
        RelayDisposition::Deliver {
            origin: relay.origin,
            inner: relay.inner,
            forward,
            envelope: frame.clone(),
        }
    }

    fn drops_decision_forwards(&self) -> bool {
        self.plan_config().drops_decision_forwards()
    }

    fn plan_config(&self) -> &OverlayConfig {
        self.plan.config()
    }

    /// Broadcasts originated here.
    pub fn originated(&self) -> u64 {
        self.originated
    }

    /// Fresh envelopes forwarded onward from here.
    pub fn forwarded(&self) -> u64 {
        self.forwarded
    }

    /// Envelopes dropped as duplicates here.
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// Crash-triggered re-parenting events observed here.
    pub fn reparents(&self) -> u64 {
        self.reparents
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::OverlayConfig;

    fn frame(byte: u8) -> Bytes {
        // Looks like a data PDU (tag 1) to frame_kind; content irrelevant.
        Bytes::from(vec![1u8, byte, byte])
    }

    /// Floods one broadcast from `origin` through a full group of
    /// disseminators, counting frames sent per process. Returns
    /// (deliveries, per-process sends).
    fn flood(n: usize, cfg: OverlayConfig, origin: usize) -> (usize, Vec<usize>) {
        let mut nodes: Vec<Disseminator> = (0..n)
            .map(|i| Disseminator::new(ProcessId::from_index(i), n, cfg.clone()))
            .collect();
        let (env, targets) = nodes[origin].broadcast(&frame(7));
        let mut sends = vec![0usize; n];
        sends[origin] = targets.len();
        let mut inflight: Vec<(ProcessId, Bytes)> =
            targets.into_iter().map(|t| (t, env.clone())).collect();
        let mut delivered = 0usize;
        while let Some((to, env)) = inflight.pop() {
            match nodes[to.index()].on_frame(&env) {
                RelayDisposition::Deliver {
                    forward, envelope, ..
                } => {
                    delivered += 1;
                    sends[to.index()] += forward.len();
                    for t in forward {
                        inflight.push((t, envelope.clone()));
                    }
                }
                RelayDisposition::Duplicate => {}
                RelayDisposition::Undecodable => panic!("clean flood corrupted"),
            }
        }
        (delivered, sends)
    }

    #[test]
    fn tree_flood_reaches_everyone_with_degree_bounded_sends() {
        for n in [2usize, 5, 37, 100] {
            let (delivered, sends) = flood(n, OverlayConfig::tree(3, 5), 0);
            assert_eq!(delivered, n - 1, "n={n}");
            assert!(
                sends.iter().all(|&s| s <= 3),
                "n={n}: fan-out exceeded degree: {sends:?}"
            );
            let total: usize = sends.iter().sum();
            assert_eq!(total, n - 1, "tree sends exactly n-1 frames");
        }
    }

    #[test]
    fn gossip_flood_sends_stay_degree_bounded() {
        let n = 60;
        let (delivered, sends) = flood(n, OverlayConfig::gossip(4, 9), 3);
        // Gossip is probabilistic: most members hear it, none exceeds its
        // fan-out bound, and the total is O(n·degree), far below n².
        assert!(delivered > n / 2, "only {delivered} of {n} reached");
        assert!(sends.iter().all(|&s| s <= 4), "{sends:?}");
        let total: usize = sends.iter().sum();
        assert!(total <= n * 4);
    }

    #[test]
    fn duplicates_are_dropped_not_reforwarded() {
        let n = 10;
        let cfg = OverlayConfig::tree(2, 1);
        let mut origin = Disseminator::new(ProcessId(0), n, cfg.clone());
        let mut relay = Disseminator::new(ProcessId(1), n, cfg);
        let (env, _) = origin.broadcast(&frame(1));
        let first = relay.on_frame(&env);
        assert!(matches!(first, RelayDisposition::Deliver { .. }));
        assert_eq!(relay.on_frame(&env), RelayDisposition::Duplicate);
        assert_eq!(relay.duplicates(), 1);
    }

    #[test]
    fn own_broadcast_is_never_reforwarded_from_origin() {
        let mut d = Disseminator::new(ProcessId(2), 8, OverlayConfig::gossip(2, 4));
        let (env, _) = d.broadcast(&frame(3));
        // A gossip cycle hands the envelope back to its origin.
        assert_eq!(d.on_frame(&env), RelayDisposition::Duplicate);
    }

    #[test]
    fn forwarded_envelope_bytes_are_shared_not_copied() {
        let n = 16;
        let cfg = OverlayConfig::tree(2, 2);
        let mut origin = Disseminator::new(ProcessId(0), n, cfg.clone());
        let (env, targets) = origin.broadcast(&frame(9));
        let mut relay = Disseminator::new(targets[0], n, cfg);
        match relay.on_frame(&env) {
            RelayDisposition::Deliver {
                envelope, inner, ..
            } => {
                assert_eq!(envelope.as_ptr(), env.as_ptr(), "zero-copy forward");
                assert_eq!(
                    inner.as_ptr() as usize,
                    env.as_ptr() as usize + RELAY_HEADER_LEN,
                    "zero-copy unwrap"
                );
            }
            other => panic!("expected delivery, got {other:?}"),
        }
    }

    #[test]
    fn reparenting_routes_around_a_crashed_relay() {
        let n = 20;
        let cfg = OverlayConfig::tree(2, 6);
        let mut nodes: Vec<Disseminator> = (0..n)
            .map(|i| Disseminator::new(ProcessId::from_index(i), n, cfg.clone()))
            .collect();
        // Crash one first-hop relay of origin 0, sync everyone's view.
        let (_, targets) = nodes[0].broadcast(&frame(0));
        let dead = targets[0];
        let mut alive = vec![true; n];
        alive[dead.index()] = false;
        for d in &mut nodes {
            d.sync_view(&alive);
        }
        assert!(nodes[0].reparents() >= 1);
        // The next broadcast floods to every survivor without the dead
        // relay.
        let (env, targets) = nodes[0].broadcast(&frame(1));
        let mut inflight: Vec<(ProcessId, Bytes)> =
            targets.into_iter().map(|t| (t, env.clone())).collect();
        let mut delivered = vec![false; n];
        while let Some((to, env)) = inflight.pop() {
            assert_ne!(to, dead, "nobody routes to the corpse");
            if let RelayDisposition::Deliver {
                forward, envelope, ..
            } = nodes[to.index()].on_frame(&env)
            {
                delivered[to.index()] = true;
                for t in forward {
                    inflight.push((t, envelope.clone()));
                }
            }
        }
        let reached = delivered.iter().filter(|&&d| d).count();
        assert_eq!(reached, n - 2, "all survivors minus the origin");
    }

    #[test]
    fn corrupted_envelopes_are_undecodable() {
        let mut d = Disseminator::new(ProcessId(0), 4, OverlayConfig::tree(2, 0));
        let (env, _) = d.broadcast(&frame(5));
        let mut raw = env.to_vec();
        raw[2] ^= 0xFF;
        let mut other = Disseminator::new(ProcessId(1), 4, OverlayConfig::tree(2, 0));
        assert_eq!(
            other.on_frame(&Bytes::from(raw)),
            RelayDisposition::Undecodable
        );
    }

    #[test]
    fn origin_outside_the_group_never_touches_the_dedup_table() {
        let n = 4;
        let mut d = Disseminator::new(ProcessId(1), n, OverlayConfig::tree(2, 0));
        for stray in [n as u16, u16::MAX] {
            let env = urcgc_transport::relay::encode_relay(ProcessId(stray), 0, &frame(1));
            assert_eq!(d.on_frame(&env), RelayDisposition::Undecodable);
        }
        assert_eq!(d.seen.tracked_origins(), 0, "the wire sized the table");
        assert_eq!(d.duplicates(), 0);
        // The last member's id is the largest one accepted.
        let env = urcgc_transport::relay::encode_relay(ProcessId(3), 0, &frame(1));
        assert!(matches!(d.on_frame(&env), RelayDisposition::Deliver { .. }));
        assert_eq!(d.seen.tracked_origins(), n);
    }

    #[cfg(feature = "checker-knobs")]
    #[test]
    fn broken_relay_drops_decision_forwards_but_still_delivers() {
        let n = 30;
        let cfg = OverlayConfig::tree(2, 3).with_drop_decision_forwards();
        let mut origin = Disseminator::new(ProcessId(0), n, cfg.clone());
        // Tag 3 = decision PDU.
        let decision = Bytes::from(vec![3u8, 0, 0]);
        let (env, targets) = origin.broadcast(&decision);
        let mut relay = Disseminator::new(targets[0], n, cfg.clone());
        match relay.on_frame(&env) {
            RelayDisposition::Deliver { forward, .. } => {
                assert!(forward.is_empty(), "broken relay must not forward");
            }
            other => panic!("expected local delivery, got {other:?}"),
        }
        // Data frames still forward — only decisions are dropped.
        let mut origin2 = Disseminator::new(ProcessId(0), n, cfg.clone());
        let (env, targets) = origin2.broadcast(&frame(1));
        let mut relay2 = Disseminator::new(targets[0], n, cfg);
        match relay2.on_frame(&env) {
            RelayDisposition::Deliver { forward, .. } => assert!(!forward.is_empty()),
            other => panic!("expected delivery, got {other:?}"),
        }
    }
}
