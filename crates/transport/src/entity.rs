//! The transport entity state machine.

use std::collections::{BTreeMap, HashMap, HashSet};

use bytes::{Bytes, BytesMut};
use urcgc_types::ProcessId;

use crate::frame::TFrame;

/// Sender-local transfer identifier.
pub type XferId = u64;

/// Transport parameters.
#[derive(Clone, Copy, Debug)]
pub struct TransportConfig {
    /// Maximum fragment payload per frame.
    pub mtu: usize,
    /// Retransmission interval in ticks.
    pub retx_interval: u64,
    /// Retry budget per transfer; when exhausted the transfer confirms
    /// regardless (the primitive never fails).
    pub max_retries: u32,
    /// Coalesce a tick's retransmissions to one wire frame per
    /// destination ([`TFrame::Batch`]). On by default: batching amortizes
    /// per-datagram cost over every queued fragment without changing what
    /// the receiver reassembles. It does change the frame population the
    /// simulator sees, so the digest-gated sweep documents were re-pinned
    /// when this default flipped; set to `false` for per-fragment framing.
    pub batch_retransmissions: bool,
}

impl Default for TransportConfig {
    fn default() -> Self {
        TransportConfig {
            mtu: 512,
            retx_interval: 2,
            max_retries: 4,
            batch_retransmissions: true,
        }
    }
}

/// Effects drained from the entity.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TOutput {
    /// Transmit `frame` to `to`.
    Send {
        /// Destination.
        to: ProcessId,
        /// Encoded transport frame.
        frame: Bytes,
    },
    /// `t.data.Conf`: the transfer reached its `h` threshold (or exhausted
    /// its retries — the primitive never fails).
    Confirm {
        /// The confirmed transfer.
        xfer: XferId,
        /// How many destinations had fully acked at confirmation time.
        acked: usize,
    },
    /// `t.data.Ind`: a complete service data unit arrived from `from`.
    Ind {
        /// Originating process.
        from: ProcessId,
        /// Reassembled data.
        data: Bytes,
    },
}

struct OutgoingXfer {
    fragments: Vec<Bytes>,
    dests: Vec<ProcessId>,
    h: usize,
    acked: HashSet<ProcessId>,
    retries_left: u32,
    next_retx_tick: u64,
    confirmed: bool,
}

struct Reassembly {
    frag_count: u16,
    got: HashMap<u16, Bytes>,
}

/// A transport entity attached to one t-SAP.
pub struct TransportEntity {
    me: ProcessId,
    cfg: TransportConfig,
    tick: u64,
    next_xfer: XferId,
    /// In-flight transfers, ordered by id so retransmissions in
    /// [`on_tick`](Self::on_tick) go out in creation order — hash-map
    /// iteration here made whole-simulation traces nondeterministic by
    /// reordering resends and shifting the simnet's per-frame RNG draws.
    outgoing: BTreeMap<XferId, OutgoingXfer>,
    reassembly: HashMap<(ProcessId, XferId), Reassembly>,
    /// Transfers already fully delivered upward (dedup of retransmissions).
    delivered: HashSet<(ProcessId, XferId)>,
    outbox: Vec<TOutput>,
}

impl TransportEntity {
    /// A fresh entity for process `me`.
    pub fn new(me: ProcessId, cfg: TransportConfig) -> Self {
        assert!(cfg.mtu > 0, "MTU must be positive");
        TransportEntity {
            me,
            cfg,
            tick: 0,
            next_xfer: 1,
            outgoing: BTreeMap::new(),
            reassembly: HashMap::new(),
            delivered: HashSet::new(),
            outbox: Vec::new(),
        }
    }

    /// `t.data.Rq(m, h, v, d)` (the voting function `v` is not used by the
    /// urcgc protocol): starts a transfer of `data` to `dests`,
    /// retransmitting until `h` of them acknowledge. Returns the transfer
    /// id; a [`TOutput::Confirm`] follows.
    ///
    /// # Panics
    /// Panics if `dests` is empty or `h` exceeds the destination count.
    pub fn t_data_rq(&mut self, dests: &[ProcessId], h: usize, data: Bytes) -> XferId {
        assert!(!dests.is_empty(), "empty destination set");
        assert!(
            (1..=dests.len()).contains(&h),
            "h = {h} outside 1..={}",
            dests.len()
        );
        let xfer = self.next_xfer;
        self.next_xfer += 1;

        let fragments = crate::frame::fragment(xfer, self.me, self.cfg.mtu, &data);
        for &to in dests {
            for frame in &fragments {
                self.outbox.push(TOutput::Send {
                    to,
                    frame: frame.clone(),
                });
            }
        }
        self.outgoing.insert(
            xfer,
            OutgoingXfer {
                fragments,
                dests: dests.to_vec(),
                h,
                acked: HashSet::new(),
                retries_left: self.cfg.max_retries,
                next_retx_tick: self.tick + self.cfg.retx_interval,
                confirmed: false,
            },
        );
        xfer
    }

    /// Feeds a received frame.
    pub fn on_frame(&mut self, from: ProcessId, raw: Bytes) {
        let Some(frame) = TFrame::decode(raw) else {
            return;
        };
        match frame {
            // The t-service repairs loss by retransmission; parity is the
            // UDP runtime's.
            TFrame::Parity { .. } => {}
            TFrame::Batch { frames } => {
                // Decode rejects nested batches, so this recurses once.
                for inner in frames {
                    self.on_frame(from, inner);
                }
            }
            TFrame::Ack { xfer, src } => {
                if let Some(x) = self.outgoing.get_mut(&xfer) {
                    if x.dests.contains(&src) {
                        x.acked.insert(src);
                        if !x.confirmed && x.acked.len() >= x.h {
                            // The h threshold is met: confirm and stop
                            // retransmitting — "retransmission is used to
                            // ensure that at least h of them receive the
                            // message" (§5); reaching the remaining
                            // destinations is the upper layer's business
                            // (urcgc recovers them from history).
                            x.confirmed = true;
                            let acked = x.acked.len();
                            self.outgoing.remove(&xfer);
                            self.outbox.push(TOutput::Confirm { xfer, acked });
                        }
                    }
                }
            }
            TFrame::Data {
                xfer,
                src,
                frag_index,
                frag_count,
                payload,
            } => {
                let key = (src, xfer);
                if self.delivered.contains(&key) {
                    // Duplicate of a completed transfer: re-ack, don't
                    // re-deliver.
                    self.push_ack(from, xfer);
                    return;
                }
                let entry = self.reassembly.entry(key).or_insert_with(|| Reassembly {
                    frag_count,
                    got: HashMap::new(),
                });
                if entry.frag_count != frag_count {
                    return; // inconsistent fragmentation: drop
                }
                entry.got.insert(frag_index, payload);
                if entry.got.len() == frag_count as usize {
                    let mut entry = self.reassembly.remove(&key).expect("just present");
                    let data = if frag_count == 1 {
                        // Borrowed fast path: a lone fragment's payload is
                        // already a zero-copy view into the received
                        // datagram — hand it up as-is.
                        entry.got.remove(&0).expect("sole fragment present")
                    } else {
                        // Multi-fragment SDUs get exactly one assembly
                        // buffer, sized up front.
                        let total: usize = entry.got.values().map(Bytes::len).sum();
                        let mut data = BytesMut::with_capacity(total);
                        for i in 0..frag_count {
                            data.extend_from_slice(&entry.got[&i]);
                        }
                        data.freeze()
                    };
                    self.delivered.insert(key);
                    self.push_ack(from, xfer);
                    self.outbox.push(TOutput::Ind { from: src, data });
                }
            }
        }
    }

    fn push_ack(&mut self, to: ProcessId, xfer: XferId) {
        self.outbox.push(TOutput::Send {
            to,
            frame: TFrame::Ack { xfer, src: self.me }.encode(),
        });
    }

    /// Advances the retransmission clock one tick.
    pub fn on_tick(&mut self) {
        self.tick += 1;
        let tick = self.tick;
        let mut finished: Vec<XferId> = Vec::new();
        let mut resends: Vec<(ProcessId, Bytes)> = Vec::new();
        let mut confirms: Vec<(XferId, usize)> = Vec::new();
        for (&xfer, x) in self.outgoing.iter_mut() {
            if tick < x.next_retx_tick {
                continue;
            }
            if x.retries_left == 0 {
                // Retry budget exhausted: the primitive never fails — it
                // confirms with however many acks arrived.
                if !x.confirmed {
                    confirms.push((xfer, x.acked.len()));
                }
                finished.push(xfer);
                continue;
            }
            x.retries_left -= 1;
            x.next_retx_tick = tick + self.cfg.retx_interval;
            for &to in &x.dests {
                if x.acked.contains(&to) {
                    continue;
                }
                for frame in &x.fragments {
                    resends.push((to, frame.clone()));
                }
            }
        }
        for (xfer, acked) in confirms {
            self.outbox.push(TOutput::Confirm { xfer, acked });
        }
        for xfer in finished {
            self.outgoing.remove(&xfer);
        }
        if self.cfg.batch_retransmissions {
            // One wire frame per destination: group this tick's resends by
            // destination, preserving first-appearance order (which is
            // creation order, keeping traces deterministic).
            let mut order: Vec<ProcessId> = Vec::new();
            let mut per_dest: HashMap<ProcessId, Vec<Bytes>> = HashMap::new();
            for (to, frame) in resends {
                per_dest
                    .entry(to)
                    .or_insert_with(|| {
                        order.push(to);
                        Vec::new()
                    })
                    .push(frame);
            }
            for to in order {
                let frames = per_dest.remove(&to).expect("grouped above");
                let frame = if frames.len() == 1 {
                    frames.into_iter().next().expect("len checked")
                } else {
                    TFrame::Batch { frames }.encode()
                };
                self.outbox.push(TOutput::Send { to, frame });
            }
        } else {
            for (to, frame) in resends {
                self.outbox.push(TOutput::Send { to, frame });
            }
        }
    }

    /// Drains the next effect.
    pub fn poll_output(&mut self) -> Option<TOutput> {
        if self.outbox.is_empty() {
            None
        } else {
            Some(self.outbox.remove(0))
        }
    }

    /// Number of transfers still awaiting acknowledgements.
    pub fn in_flight(&self) -> usize {
        self.outgoing.len()
    }

    /// Number of partially reassembled incoming transfers.
    pub fn reassembling(&self) -> usize {
        self.reassembly.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Small helper: collect non-Send outputs on the receiver.
    impl TransportEntity {
        fn drain_inds(&mut self) -> Vec<TOutput> {
            let mut out = Vec::new();
            while let Some(o) = self.poll_output() {
                if !matches!(o, TOutput::Send { .. }) {
                    out.push(o);
                }
            }
            out
        }
    }

    #[test]
    fn single_fragment_transfer_confirms_and_indicates() {
        let mut a = TransportEntity::new(ProcessId(0), TransportConfig::default());
        let mut b = TransportEntity::new(ProcessId(1), TransportConfig::default());
        let xfer = a.t_data_rq(&[ProcessId(1)], 1, Bytes::from_static(b"hello"));

        // a → b data.
        let mut a_confirm = None;
        while let Some(o) = a.poll_output() {
            match o {
                TOutput::Send { frame, .. } => b.on_frame(ProcessId(0), frame),
                TOutput::Confirm { xfer: x, acked } => a_confirm = Some((x, acked)),
                _ => {}
            }
        }
        assert!(a_confirm.is_none(), "no confirm before ack");
        // b's effects: Ind + ack back to a.
        let mut got_ind = false;
        while let Some(o) = b.poll_output() {
            match o {
                TOutput::Send { frame, .. } => a.on_frame(ProcessId(1), frame),
                TOutput::Ind { from, data } => {
                    assert_eq!(from, ProcessId(0));
                    assert_eq!(&data[..], b"hello");
                    got_ind = true;
                }
                _ => {}
            }
        }
        assert!(got_ind);
        while let Some(o) = a.poll_output() {
            if let TOutput::Confirm { xfer: x, acked } = o {
                assert_eq!(x, xfer);
                assert_eq!(acked, 1);
                a_confirm = Some((x, acked));
            }
        }
        assert!(a_confirm.is_some());
        assert_eq!(a.in_flight(), 0);
    }

    #[test]
    fn large_sdu_fragments_and_reassembles() {
        let cfg = TransportConfig {
            mtu: 16,
            ..Default::default()
        };
        let mut a = TransportEntity::new(ProcessId(0), cfg);
        let mut b = TransportEntity::new(ProcessId(1), cfg);
        let data: Vec<u8> = (0..100u8).collect();
        a.t_data_rq(&[ProcessId(1)], 1, Bytes::from(data.clone()));
        let mut frames = Vec::new();
        while let Some(o) = a.poll_output() {
            if let TOutput::Send { frame, .. } = o {
                frames.push(frame);
            }
        }
        assert_eq!(frames.len(), 7, "100 bytes / 16-byte MTU = 7 fragments");
        // Deliver out of order.
        frames.reverse();
        let mut ind = None;
        for f in frames {
            b.on_frame(ProcessId(0), f);
        }
        while let Some(o) = b.poll_output() {
            if let TOutput::Ind { data: d, .. } = o {
                ind = Some(d);
            }
        }
        assert_eq!(ind.unwrap(), Bytes::from(data));
        assert_eq!(b.reassembling(), 0);
    }

    #[test]
    fn retransmission_recovers_a_dropped_frame() {
        let cfg = TransportConfig {
            mtu: 512,
            retx_interval: 1,
            max_retries: 5,
            ..Default::default()
        };
        let mut a = TransportEntity::new(ProcessId(0), cfg);
        let mut b = TransportEntity::new(ProcessId(1), cfg);
        a.t_data_rq(&[ProcessId(1)], 1, Bytes::from_static(b"persist"));
        // Drop the first transmission entirely.
        while a.poll_output().is_some() {}
        // Tick: retransmission goes out and is delivered.
        a.on_tick();
        let mut delivered = false;
        while let Some(o) = a.poll_output() {
            if let TOutput::Send { frame, .. } = o {
                b.on_frame(ProcessId(0), frame);
            }
        }
        while let Some(o) = b.poll_output() {
            match o {
                TOutput::Send { frame, .. } => a.on_frame(ProcessId(1), frame),
                TOutput::Ind { data, .. } => {
                    assert_eq!(&data[..], b"persist");
                    delivered = true;
                }
                _ => {}
            }
        }
        assert!(delivered);
        let confirms: Vec<_> = std::iter::from_fn(|| a.poll_output())
            .filter(|o| matches!(o, TOutput::Confirm { .. }))
            .collect();
        assert_eq!(confirms.len(), 1);
    }

    #[test]
    fn batched_retransmission_coalesces_per_destination_and_heals() {
        let cfg = TransportConfig {
            mtu: 16,
            retx_interval: 1,
            max_retries: 5,
            batch_retransmissions: true,
        };
        let mut a = TransportEntity::new(ProcessId(0), cfg);
        let mut b = TransportEntity::new(ProcessId(1), cfg);
        let data: Vec<u8> = (0..100u8).collect();
        a.t_data_rq(&[ProcessId(1), ProcessId(2)], 2, Bytes::from(data.clone()));
        while a.poll_output().is_some() {} // first transmission lost
        a.on_tick();
        let resends: Vec<(ProcessId, Bytes)> = std::iter::from_fn(|| a.poll_output())
            .filter_map(|o| match o {
                TOutput::Send { to, frame } => Some((to, frame)),
                _ => None,
            })
            .collect();
        // 7 fragments × 2 unacked destinations coalesce to 2 wire frames.
        assert_eq!(resends.len(), 2, "one frame per destination");
        assert_eq!(resends[0].0, ProcessId(1));
        assert_eq!(resends[1].0, ProcessId(2));
        // The batch reassembles into the original SDU on the receiver.
        b.on_frame(ProcessId(0), resends[0].1.clone());
        let ind = b
            .drain_inds()
            .into_iter()
            .find_map(|o| match o {
                TOutput::Ind { data, .. } => Some(data),
                _ => None,
            })
            .expect("batched resend delivers");
        assert_eq!(ind, Bytes::from(data));
    }

    #[test]
    fn single_frame_resends_stay_unbatched() {
        let cfg = TransportConfig {
            mtu: 512,
            retx_interval: 1,
            max_retries: 5,
            batch_retransmissions: true,
        };
        let mut a = TransportEntity::new(ProcessId(0), cfg);
        a.t_data_rq(&[ProcessId(1)], 1, Bytes::from_static(b"solo"));
        while a.poll_output().is_some() {}
        a.on_tick();
        let frames: Vec<Bytes> = std::iter::from_fn(|| a.poll_output())
            .filter_map(|o| match o {
                TOutput::Send { frame, .. } => Some(frame),
                _ => None,
            })
            .collect();
        assert_eq!(frames.len(), 1);
        assert!(
            matches!(TFrame::decode(frames[0].clone()), Some(TFrame::Data { .. })),
            "a lone fragment needs no batch envelope"
        );
    }

    #[test]
    fn duplicate_transfer_reacked_not_redelivered() {
        let mut a = TransportEntity::new(ProcessId(0), TransportConfig::default());
        let mut b = TransportEntity::new(ProcessId(1), TransportConfig::default());
        a.t_data_rq(&[ProcessId(1)], 1, Bytes::from_static(b"once"));
        let mut frames = Vec::new();
        while let Some(o) = a.poll_output() {
            if let TOutput::Send { frame, .. } = o {
                frames.push(frame);
            }
        }
        b.on_frame(ProcessId(0), frames[0].clone());
        b.on_frame(ProcessId(0), frames[0].clone()); // duplicate
        let inds: Vec<_> = b
            .drain_inds()
            .into_iter()
            .filter(|o| matches!(o, TOutput::Ind { .. }))
            .collect();
        assert_eq!(inds.len(), 1, "exactly one indication");
    }

    #[test]
    fn h_threshold_gates_confirmation() {
        let dests = [ProcessId(1), ProcessId(2), ProcessId(3)];
        let mut a = TransportEntity::new(ProcessId(0), TransportConfig::default());
        let xfer = a.t_data_rq(&dests, 2, Bytes::from_static(b"x"));
        while a.poll_output().is_some() {}
        a.on_frame(
            ProcessId(1),
            TFrame::Ack {
                xfer,
                src: ProcessId(1),
            }
            .encode(),
        );
        assert!(
            std::iter::from_fn(|| a.poll_output()).count() == 0,
            "one ack < h = 2: no confirm yet"
        );
        a.on_frame(
            ProcessId(2),
            TFrame::Ack {
                xfer,
                src: ProcessId(2),
            }
            .encode(),
        );
        let confirms: Vec<_> = std::iter::from_fn(|| a.poll_output()).collect();
        assert!(matches!(confirms[..], [TOutput::Confirm { acked: 2, .. }]));
        // Reaching h ends the transfer: no residual retransmission (the
        // urcgc layer's history recovery covers the third destination).
        assert_eq!(a.in_flight(), 0);
        a.on_frame(
            ProcessId(3),
            TFrame::Ack {
                xfer,
                src: ProcessId(3),
            }
            .encode(),
        );
        assert_eq!(a.in_flight(), 0, "late ack is harmless");
    }

    #[test]
    fn never_fails_confirms_after_retry_exhaustion() {
        let cfg = TransportConfig {
            mtu: 512,
            retx_interval: 1,
            max_retries: 2,
            ..Default::default()
        };
        let mut a = TransportEntity::new(ProcessId(0), cfg);
        let xfer = a.t_data_rq(&[ProcessId(1)], 1, Bytes::from_static(b"void"));
        while a.poll_output().is_some() {} // all frames lost
        let mut confirm = None;
        for _ in 0..10 {
            a.on_tick();
            while let Some(o) = a.poll_output() {
                if let TOutput::Confirm { xfer: x, acked } = o {
                    confirm = Some((x, acked));
                }
            }
            if confirm.is_some() {
                break;
            }
        }
        assert_eq!(confirm, Some((xfer, 0)), "confirms with zero acks");
        assert_eq!(a.in_flight(), 0);
    }

    #[test]
    fn ack_from_non_destination_is_ignored() {
        let mut a = TransportEntity::new(ProcessId(0), TransportConfig::default());
        let xfer = a.t_data_rq(&[ProcessId(1)], 1, Bytes::from_static(b"x"));
        while a.poll_output().is_some() {}
        a.on_frame(
            ProcessId(5),
            TFrame::Ack {
                xfer,
                src: ProcessId(5),
            }
            .encode(),
        );
        assert_eq!(a.in_flight(), 1, "spoofed ack must not complete transfer");
    }

    #[test]
    #[should_panic(expected = "h = 4 outside")]
    fn h_larger_than_dest_set_panics() {
        let mut a = TransportEntity::new(ProcessId(0), TransportConfig::default());
        let _ = a.t_data_rq(&[ProcessId(1)], 4, Bytes::new());
    }

    #[test]
    fn single_fragment_indication_borrows_the_datagram() {
        // Borrowed decode: an SDU that fits one fragment must come back up
        // as a zero-copy view into the received datagram, not a fresh
        // allocation.
        let mut a = TransportEntity::new(ProcessId(0), TransportConfig::default());
        let mut b = TransportEntity::new(ProcessId(1), TransportConfig::default());
        a.t_data_rq(&[ProcessId(1)], 1, Bytes::from_static(b"view into me"));
        let datagram = std::iter::from_fn(|| a.poll_output())
            .find_map(|o| match o {
                TOutput::Send { frame, .. } => Some(frame),
                _ => None,
            })
            .expect("one fragment sent");
        b.on_frame(ProcessId(0), datagram.clone());
        let ind = b
            .drain_inds()
            .into_iter()
            .find_map(|o| match o {
                TOutput::Ind { data, .. } => Some(data),
                _ => None,
            })
            .expect("delivered");
        assert_eq!(&ind[..], b"view into me");
        let outer = datagram.as_ptr() as usize;
        let inner = ind.as_ptr() as usize;
        assert!(
            inner >= outer && inner + ind.len() <= outer + datagram.len(),
            "indication re-allocated instead of borrowing the datagram"
        );
    }

    #[test]
    fn corrupted_batch_frames_never_forge_a_pdu() {
        // Checksum sweep over the 0xB7 envelope: flip every byte of a
        // batched retransmission carrying a fragmented encoded PDU. Each
        // flip must be caught — by TFrame::decode (envelope damage), by
        // reassembly (shape damage), or by the PDU checksum trailer
        // (payload damage). A flip may at worst reproduce the original;
        // it must never decode to a *different* PDU.
        use urcgc_types::wire::{decode_pdu, encode_pdu};
        use urcgc_types::{DataMsg, Mid, Pdu, Round};

        let pdu = Pdu::data(DataMsg {
            mid: Mid::new(ProcessId(0), 7),
            deps: vec![Mid::new(ProcessId(1), 3)],
            round: Round(2),
            payload: Bytes::from_static(b"batched payload under test"),
        });
        let sdu = encode_pdu(&pdu);
        let cfg = TransportConfig {
            mtu: 16,
            retx_interval: 1,
            max_retries: 5,
            batch_retransmissions: true,
        };
        let mut a = TransportEntity::new(ProcessId(0), cfg);
        a.t_data_rq(&[ProcessId(1)], 1, sdu);
        while a.poll_output().is_some() {} // first transmission lost
        a.on_tick();
        let batch = std::iter::from_fn(|| a.poll_output())
            .find_map(|o| match o {
                TOutput::Send { frame, .. } => Some(frame),
                _ => None,
            })
            .expect("batched resend");
        assert_eq!(batch[0], 0xB7, "envelope under test is a batch");

        for i in 0..batch.len() {
            let mut raw = batch.to_vec();
            raw[i] ^= 0x10;
            let mut rx = TransportEntity::new(ProcessId(1), cfg);
            rx.on_frame(ProcessId(0), Bytes::from(raw));
            for out in rx.drain_inds() {
                if let TOutput::Ind { data, .. } = out {
                    match decode_pdu(&data) {
                        Err(_) => {} // checksum/structure caught it
                        Ok(back) => {
                            assert_eq!(back, pdu, "flip at byte {i} forged a different PDU")
                        }
                    }
                }
            }
        }
    }
}
