//! The protocol-agnostic node interface.
//!
//! urcgc processes, CBCAST processes, and Psync processes all drive the same
//! simulator through this trait; the experiment harness only swaps the node
//! implementation.

use bytes::Bytes;
use urcgc_types::{ProcessId, Round};

/// A frame queued for transmission during the current round.
#[derive(Clone, Debug)]
pub struct Outgoing {
    /// Destination process.
    pub to: ProcessId,
    /// Traffic-accounting category (usually the PDU kind label).
    pub kind: &'static str,
    /// Encoded frame.
    pub frame: Bytes,
    /// Whether this is an overlay *forward* of a frame received from
    /// another process (vs. traffic this node originated). Splits the
    /// per-process `frames_sent`/`frames_relayed` gauges.
    pub relayed: bool,
}

/// Per-round sending context handed to a node.
///
/// Sends are queued, not instantaneous: frames sent during round `r` arrive
/// at the start of round `r+1` (one half-rtd of latency). The simulator
/// applies send-omission faults *after* the node returns, so a node cannot
/// observe its own failures — exactly the paper's model, where `send` "can
/// be interrupted by a failure, and only a subset of the destination
/// processes could receive the message".
#[derive(Debug)]
pub struct NetCtx<'a> {
    me: ProcessId,
    n: usize,
    round: Round,
    out: &'a mut Vec<Outgoing>,
    /// Bytes of frames encoded fresh during this invocation (each unique
    /// frame counted once).
    encoded_bytes: u64,
    /// Bytes put on the wire by refcount-sharing an already-counted frame
    /// (fan-out clones beyond the first copy).
    shared_bytes: u64,
    /// Bytes re-sent unchanged as overlay forwards of frames received from
    /// another process (refcount clones of the arrived allocation).
    relayed_bytes: u64,
}

impl<'a> NetCtx<'a> {
    pub(crate) fn new(me: ProcessId, n: usize, round: Round, out: &'a mut Vec<Outgoing>) -> Self {
        NetCtx {
            me,
            n,
            round,
            out,
            encoded_bytes: 0,
            shared_bytes: 0,
            relayed_bytes: 0,
        }
    }

    /// (encoded, shared, relayed) byte deltas accumulated by this
    /// invocation; the engine folds them into [`crate::SimStats`].
    pub(crate) fn share_gauge(&self) -> (u64, u64, u64) {
        (self.encoded_bytes, self.shared_bytes, self.relayed_bytes)
    }

    /// The node this context belongs to.
    pub fn me(&self) -> ProcessId {
        self.me
    }

    /// Group cardinality.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The current round.
    pub fn round(&self) -> Round {
        self.round
    }

    /// Queues a unicast frame (counted as freshly encoded bytes).
    pub fn send(&mut self, to: ProcessId, kind: &'static str, frame: Bytes) {
        self.encoded_bytes += frame.len() as u64;
        self.out.push(Outgoing {
            to,
            kind,
            frame,
            relayed: false,
        });
    }

    /// Queues an overlay *forward*: a frame received from another process,
    /// re-sent unchanged (the caller clones the arrived [`Bytes`] handle —
    /// no new encoding happens). Counted in the relayed gauge and in this
    /// process's `frames_relayed`, keeping the originated-vs-relayed split
    /// honest at every layer.
    pub fn send_relayed(&mut self, to: ProcessId, kind: &'static str, frame: Bytes) {
        self.relayed_bytes += frame.len() as u64;
        self.out.push(Outgoing {
            to,
            kind,
            frame,
            relayed: true,
        });
    }

    /// Queues the same frame to each of `targets`: the first copy is counted
    /// as freshly encoded, every further one as a refcount-shared clone —
    /// the one fan-out loop behind overlay broadcasts, the client-server
    /// core and [`NetCtx::broadcast`]. An empty target list sends nothing.
    pub fn multicast(
        &mut self,
        targets: impl IntoIterator<Item = ProcessId>,
        kind: &'static str,
        frame: Bytes,
    ) {
        let before = self.out.len();
        self.out.extend(targets.into_iter().map(|to| Outgoing {
            to,
            kind,
            frame: frame.clone(),
            relayed: false,
        }));
        let copies = (self.out.len() - before) as u64;
        if copies > 0 {
            self.encoded_bytes += frame.len() as u64;
            self.shared_bytes += frame.len() as u64 * (copies - 1);
        }
    }

    /// Queues the same frame to every *other* group member (n−1 unicasts —
    /// the `n`-unicast semantics of the paper's transport service with no
    /// required replies), with [`NetCtx::multicast`]'s byte accounting.
    pub fn broadcast(&mut self, kind: &'static str, frame: Bytes) {
        let me = self.me;
        let others = (0..self.n)
            .map(ProcessId::from_index)
            .filter(|&to| to != me);
        self.multicast(others, kind, frame);
    }

    /// Number of frames queued so far this round (for tests).
    pub fn queued(&self) -> usize {
        self.out.len()
    }
}

/// A simulated process.
pub trait Node {
    /// Called once per round *after* the round's deliveries, in process-id
    /// order. The node performs its protocol actions and queues sends.
    fn on_round(&mut self, round: Round, net: &mut NetCtx<'_>);

    /// Called for each frame delivered to this node at the start of a round,
    /// before [`Node::on_round`]. Frames are delivered in (sender, queue)
    /// order, deterministically.
    fn on_frame(&mut self, from: ProcessId, frame: Bytes, net: &mut NetCtx<'_>);

    /// Whether this node considers its workload complete. The simulator
    /// stops early once every non-crashed node reports `true`.
    fn is_done(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn broadcast_excludes_self() {
        let mut out = Vec::new();
        let mut ctx = NetCtx::new(ProcessId(1), 4, Round(0), &mut out);
        ctx.broadcast("data", Bytes::from_static(b"x"));
        assert_eq!(ctx.queued(), 3);
        let dests: Vec<u16> = out.iter().map(|o| o.to.0).collect();
        assert_eq!(dests, vec![0, 2, 3]);
    }

    #[test]
    fn multicast_counts_first_copy_encoded_and_the_rest_shared() {
        let mut out = Vec::new();
        let mut ctx = NetCtx::new(ProcessId(0), 5, Round(0), &mut out);
        ctx.multicast([], "data", Bytes::from_static(b"12345678"));
        assert_eq!(ctx.queued(), 0, "empty target list sends nothing");
        assert_eq!(ctx.share_gauge(), (0, 0, 0));
        ctx.multicast(
            [ProcessId(3), ProcessId(1), ProcessId(4)],
            "data",
            Bytes::from_static(b"12345678"),
        );
        assert_eq!(ctx.share_gauge(), (8, 16, 0));
        // A single target is all encoded, nothing shared.
        ctx.multicast([ProcessId(2)], "ctl", Bytes::from_static(b"123"));
        assert_eq!(ctx.share_gauge(), (11, 16, 0));
        let queued: Vec<(u16, &str, bool)> =
            out.iter().map(|o| (o.to.0, o.kind, o.relayed)).collect();
        assert_eq!(
            queued,
            vec![
                (3, "data", false),
                (1, "data", false),
                (4, "data", false),
                (2, "ctl", false)
            ],
            "targets keep their order"
        );
    }

    #[test]
    fn send_queues_in_order() {
        let mut out = Vec::new();
        let mut ctx = NetCtx::new(ProcessId(0), 2, Round(3), &mut out);
        assert_eq!(ctx.round(), Round(3));
        assert_eq!(ctx.me(), ProcessId(0));
        assert_eq!(ctx.n(), 2);
        ctx.send(ProcessId(1), "a", Bytes::from_static(b"1"));
        ctx.send(ProcessId(1), "b", Bytes::from_static(b"2"));
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].kind, "a");
        assert_eq!(out[1].kind, "b");
    }
}
