//! Spans around the calls the inline stack driver makes into each layer.
//!
//! The driver is generic over a [`Probe`]. The untraced runs use
//! [`NoProbe`], whose methods are empty and compile away, so end-to-end
//! numbers never pay for tracing. The traced run uses [`SpanProbe`]: every
//! call into a layer is a span (layer, member, start, end, parent = the
//! `flush` / `receive` step that caused it). Spans are folded into a
//! per-layer count / self-time sum / log-bucket histogram as they close —
//! a layer's *self* time is its duration minus what its child spans
//! cover — and the full span chain of one message in [`SAMPLE_EVERY`] is
//! kept, keyed by its `Mid`, for the trace file written at exit.

use std::collections::BTreeMap;
use std::time::Instant;

use urcgc_metrics::Json;
use urcgc_types::Mid;

use crate::hist::LogHist;

/// One message in this many keeps its full span chain.
pub const SAMPLE_EVERY: u64 = 1000;

/// What a span covers: a call into one layer, or a driver step that
/// groups such calls.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `Node::submit`.
    Submit,
    /// `Node::begin_round`.
    BeginRound,
    /// Driver step: drain one member's outputs onto its socket.
    Flush,
    /// Driver step: take one datagram off a socket and act on it.
    Receive,
    /// `Node::poll_output`.
    PollOutput,
    /// `Node::encode` (PDU codec + group envelope through `FrameCache`).
    EncodeGroup,
    /// `Fragmenter::split`.
    FragSplit,
    /// `UdpSocket::send_to` on loopback.
    SendTo,
    /// `UdpSocket::recv_from` on loopback (empty polls included).
    RecvFrom,
    /// `Reassembler::accept`.
    ReasmAccept,
    /// `Node::on_frame` (envelope demux, PDU decode, engine).
    OnFrame,
}

impl Kind {
    /// Every kind, in report order.
    pub const ALL: [Kind; 11] = [
        Kind::Submit,
        Kind::BeginRound,
        Kind::Flush,
        Kind::Receive,
        Kind::PollOutput,
        Kind::EncodeGroup,
        Kind::FragSplit,
        Kind::SendTo,
        Kind::RecvFrom,
        Kind::ReasmAccept,
        Kind::OnFrame,
    ];

    /// `layer.operation` name; the per-layer metrics `<name>_ns` and
    /// `<name>_share` derive from it.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Submit => "core.submit",
            Kind::BeginRound => "core.begin_round",
            Kind::Flush => "step.flush",
            Kind::Receive => "step.receive",
            Kind::PollOutput => "core.poll_output",
            Kind::EncodeGroup => "types.encode_group",
            Kind::FragSplit => "runtime.frag_split",
            Kind::SendTo => "link.send_to",
            Kind::RecvFrom => "link.recv_from",
            Kind::ReasmAccept => "runtime.reasm_accept",
            Kind::OnFrame => "core.on_frame",
        }
    }
}

/// Observation hooks the inline driver calls around each layer call.
/// Spans nest: `end` closes the most recent open `begin`.
pub trait Probe {
    /// Opens a span of `kind` on behalf of `member`.
    fn begin(&mut self, kind: Kind, member: usize);
    /// Closes the innermost open span.
    fn end(&mut self);
    /// Notes that the current top-level step handled `mid`.
    fn touch(&mut self, mid: Mid);
}

/// The untraced probe: nothing is recorded and every call inlines away.
pub struct NoProbe;

impl Probe for NoProbe {
    #[inline(always)]
    fn begin(&mut self, _kind: Kind, _member: usize) {}
    #[inline(always)]
    fn end(&mut self) {}
    #[inline(always)]
    fn touch(&mut self, _mid: Mid) {}
}

struct Open {
    kind: Kind,
    member: usize,
    id: u64,
    start_ns: u64,
    child_ns: u64,
}

/// One closed span of a sampled chain.
#[derive(Clone, Copy)]
struct SpanRec {
    kind: Kind,
    member: usize,
    id: u64,
    parent: Option<u64>,
    start_ns: u64,
    end_ns: u64,
}

/// Per-layer aggregate: a layer's self time and share of the traced wall.
pub struct LayerTime {
    /// Spans closed.
    pub count: u64,
    /// Total self time, ns.
    pub self_ns: u64,
    /// Median self time per span, ns.
    pub p50_ns: u64,
    /// 99th-percentile self time per span, ns.
    pub p99_ns: u64,
}

impl LayerTime {
    /// Mean self time per span, ns.
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64
        }
    }
}

/// The recording probe.
pub struct SpanProbe {
    epoch: Instant,
    open: Vec<Open>,
    next_id: u64,
    self_time: Vec<LogHist>,
    /// Spans closed under the current top-level step.
    step: Vec<SpanRec>,
    /// Sampled message the current top-level step handled, if any.
    touched: Option<Mid>,
    chains: BTreeMap<Mid, Vec<SpanRec>>,
}

impl SpanProbe {
    /// A probe whose clock starts now.
    pub fn new() -> SpanProbe {
        SpanProbe {
            epoch: Instant::now(),
            open: Vec::with_capacity(8),
            next_id: 0,
            self_time: vec![LogHist::default(); Kind::ALL.len()],
            step: Vec::with_capacity(64),
            touched: None,
            chains: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Self time of one layer so far.
    pub fn layer(&self, kind: Kind) -> LayerTime {
        let h = &self.self_time[kind as usize];
        LayerTime {
            count: h.count(),
            self_ns: h.sum(),
            p50_ns: h.quantile(0.5),
            p99_ns: h.quantile(0.99),
        }
    }

    /// Self time summed over every kind: the wall time spans account for.
    pub fn covered_ns(&self) -> u64 {
        self.self_time.iter().map(LogHist::sum).sum()
    }

    /// Sampled messages whose chains were kept.
    pub fn sampled(&self) -> usize {
        self.chains.len()
    }

    /// The trace document: per-layer aggregates over `wall_ns` of traced
    /// run time, and every sampled message's span chain.
    pub fn to_json(&self, wall_ns: u64) -> Json {
        let layers: Vec<Json> = Kind::ALL
            .iter()
            .map(|&k| {
                let t = self.layer(k);
                Json::obj()
                    .with("layer", k.name())
                    .with("count", t.count)
                    .with("self_ns", t.self_ns)
                    .with("mean_ns", t.mean_ns())
                    .with("p50_ns", t.p50_ns)
                    .with("p99_ns", t.p99_ns)
                    .with("share_of_wall", t.self_ns as f64 / wall_ns.max(1) as f64)
            })
            .collect();
        let chains: Vec<Json> = self
            .chains
            .iter()
            .map(|(mid, spans)| {
                let spans: Vec<Json> = spans
                    .iter()
                    .map(|s| {
                        let parent = s.parent.map_or(Json::Null, |p| p.into());
                        Json::obj()
                            .with("id", s.id)
                            .with("parent", parent)
                            .with("layer", s.kind.name())
                            .with("member", s.member)
                            .with("start_ns", s.start_ns)
                            .with("end_ns", s.end_ns)
                    })
                    .collect();
                Json::obj()
                    .with("mid", mid.to_string())
                    .with("spans", Json::Arr(spans))
            })
            .collect();
        Json::obj()
            .with("wall_ns", wall_ns)
            .with("sample_every", SAMPLE_EVERY)
            .with("layers", Json::Arr(layers))
            .with("chains", Json::Arr(chains))
    }
}

impl Probe for SpanProbe {
    fn begin(&mut self, kind: Kind, member: usize) {
        let id = self.next_id;
        self.next_id += 1;
        let start_ns = self.now_ns();
        self.open.push(Open {
            kind,
            member,
            id,
            start_ns,
            child_ns: 0,
        });
    }

    fn end(&mut self) {
        let end_ns = self.now_ns();
        let span = self.open.pop().expect("end without begin");
        let dur = end_ns - span.start_ns;
        self.self_time[span.kind as usize].record(dur.saturating_sub(span.child_ns));
        let parent = self.open.last_mut().map(|p| {
            p.child_ns += dur;
            p.id
        });
        self.step.push(SpanRec {
            kind: span.kind,
            member: span.member,
            id: span.id,
            parent,
            start_ns: span.start_ns,
            end_ns,
        });
        if self.open.is_empty() {
            match self.touched.take() {
                Some(mid) => self.chains.entry(mid).or_default().append(&mut self.step),
                None => self.step.clear(),
            }
        }
    }

    fn touch(&mut self, mid: Mid) {
        // 1009 ≡ 9 (mod 1000): one residue class of sequence numbers per
        // origin, so every origin is sampled at the same 1-in-1000 rate.
        if (mid.seq * 1009 + u64::from(mid.origin.0)).is_multiple_of(SAMPLE_EVERY) {
            self.touched = Some(mid);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use urcgc_types::ProcessId;

    #[test]
    fn self_time_excludes_children_and_chains_keep_parents() {
        let mut p = SpanProbe::new();
        let sampled = Mid::new(ProcessId(0), 1000);
        p.begin(Kind::Flush, 3);
        p.begin(Kind::SendTo, 3);
        std::thread::sleep(std::time::Duration::from_millis(2));
        p.end();
        p.touch(sampled);
        p.touch(Mid::new(ProcessId(0), 7)); // not sampled: keeps the first
        p.end();
        // An untouched step leaves no chain behind.
        p.begin(Kind::Receive, 1);
        p.end();

        let (flush, send) = (p.layer(Kind::Flush), p.layer(Kind::SendTo));
        assert_eq!((flush.count, send.count), (1, 1));
        assert!(send.self_ns >= 2_000_000);
        assert!(flush.self_ns < 1_000_000, "parent self time excludes child");
        assert_eq!(p.sampled(), 1);
        let chain = &p.chains[&sampled];
        assert_eq!(chain.len(), 2);
        assert_eq!(chain[0].kind, Kind::SendTo);
        assert_eq!(chain[0].parent, Some(chain[1].id));
        assert_eq!(chain[1].parent, None);
        assert!(p.to_json(10_000_000).render().contains("link.send_to"));
    }
}
