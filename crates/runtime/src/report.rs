//! End-of-run reports for real-network members and clusters.
//!
//! A loopback-cluster member is a separate OS process; the orchestrator
//! can only judge the run from what members *report*. [`NodeReport`] is
//! one member's end-of-run self-description (`urcgc-node/1`), carrying
//! exactly what [`urcgc_check::check_cluster`] needs — quiescence,
//! frontiers, order digests, a local ordering verdict — plus network
//! counters for diagnosis. [`ClusterReport`] (`urcgc-cluster/1`) is the
//! orchestrator's aggregation: parameters, every member report, proxy
//! fault counters, and the oracle verdicts.
//!
//! Order digests are 64-bit FNV-1a values; JSON numbers are f64 and would
//! silently round them, so they travel as `"0x…"` hex strings.

use urcgc_check::{fnv1a_stream, NodeObservation, Violation};
use urcgc_metrics::{Json, Schema};
use urcgc_types::Mid;

use crate::node::NetStats;
use crate::proxy::ProxyStats;

/// Schema of one member's end-of-run report document.
pub const NODE_SCHEMA: Schema = Schema::new("urcgc-node", 1);
/// Schema of the orchestrator's cluster document.
pub const CLUSTER_SCHEMA: Schema = Schema::new("urcgc-cluster", 1);

/// Checks a member's own delivery log against Uniform Ordering's local
/// obligations: every declared cause processed before its dependent, and
/// every origin's sequence numbers strictly ascending. Returns the verdict
/// and a human-readable detail for the first offence.
pub fn check_delivery_log<'a>(
    log: impl IntoIterator<Item = &'a (Mid, Vec<Mid>)>,
) -> (bool, Option<String>) {
    let mut processed: std::collections::HashSet<Mid> = std::collections::HashSet::new();
    let mut last_seq: std::collections::HashMap<u16, u64> = std::collections::HashMap::new();
    for (mid, deps) in log {
        for dep in deps {
            if !processed.contains(dep) {
                return (
                    false,
                    Some(format!(
                        "processed p{}#{} before its cause p{}#{}",
                        mid.origin.0, mid.seq, dep.origin.0, dep.seq
                    )),
                );
            }
        }
        let last = last_seq.entry(mid.origin.0).or_insert(0);
        if mid.seq <= *last {
            return (
                false,
                Some(format!(
                    "processed p{}#{} after p{}#{}",
                    mid.origin.0, mid.seq, mid.origin.0, *last
                )),
            );
        }
        *last = mid.seq;
        processed.insert(*mid);
    }
    (true, None)
}

/// Per-origin [`fnv1a_stream`] digests of a delivery log (mids in local
/// delivery order).
pub fn order_digests(n: usize, mids_in_order: &[Mid]) -> Vec<u64> {
    let mut per_origin: Vec<Vec<u64>> = vec![Vec::new(); n];
    for mid in mids_in_order {
        if mid.origin.index() < n {
            per_origin[mid.origin.index()].push(mid.seq);
        }
    }
    per_origin.into_iter().map(fnv1a_stream).collect()
}

fn hex(v: u64) -> String {
    format!("0x{v:016x}")
}

fn from_hex(s: &str) -> Result<u64, String> {
    u64::from_str_radix(s.trim_start_matches("0x"), 16)
        .map_err(|e| format!("bad hex digest {s:?}: {e}"))
}

fn get_u64(j: &Json, key: &str) -> Result<u64, String> {
    j.get(key)
        .and_then(Json::as_f64)
        .map(|v| v as u64)
        .ok_or_else(|| format!("missing numeric field {key:?}"))
}

fn get_str(j: &Json, key: &str) -> Result<String, String> {
    j.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string field {key:?}"))
}

fn get_bool(j: &Json, key: &str) -> Result<bool, String> {
    j.get(key)
        .and_then(Json::as_bool)
        .ok_or_else(|| format!("missing boolean field {key:?}"))
}

/// One member's end-of-run self-description (`urcgc-node/1`).
#[derive(Clone, Debug, PartialEq)]
pub struct NodeReport {
    /// The member's process id.
    pub me: u16,
    /// Group size.
    pub n: usize,
    /// Final life-cycle status (`Debug` rendering of `ProcessStatus`).
    pub status: String,
    /// Whether the member reached workload quiescence
    /// ([`workload_quiescent`](crate::workload_quiescent)) in time.
    pub quiesced: bool,
    /// Messages the member submitted.
    pub submitted: u64,
    /// Messages the member processed (own + foreign).
    pub delivered: u64,
    /// Messages destroyed by orphan elimination.
    pub discarded: u64,
    /// Recovery requests sent, first asks and retries
    /// ([`EngineStats::recovery_requests`](urcgc::EngineStats)).
    pub recovery_requests: u64,
    /// The retries among them: asks repeated because neither a reply nor a
    /// newer decision arrived for a whole subrun — lost replies.
    pub recovery_retries: u64,
    /// Own submissions that found their round's slot free and went out
    /// without waiting for a tick.
    pub immediate_submits: u64,
    /// Per-origin contiguous processed frontier.
    pub frontier: Vec<u64>,
    /// Per-origin order digest of the delivery log ([`order_digests`]).
    pub order_digest: Vec<u64>,
    /// The member's own Uniform Ordering verdict ([`check_delivery_log`]).
    pub ordering_ok: bool,
    /// Specifics when `ordering_ok` is false.
    pub ordering_detail: Option<String>,
    /// Network-layer counters.
    pub net: NetStats,
    /// Member wall-clock from spawn to report.
    pub wall_secs: f64,
}

impl NodeReport {
    /// Serializes as a `urcgc-node/1` document.
    pub fn to_json(&self) -> Json {
        let mut j = NODE_SCHEMA
            .tag(Json::obj())
            .with("me", u64::from(self.me))
            .with("n", self.n)
            .with("status", self.status.as_str())
            .with("quiesced", self.quiesced)
            .with("submitted", self.submitted)
            .with("delivered", self.delivered)
            .with("discarded", self.discarded)
            .with("recovery_requests", self.recovery_requests)
            .with("recovery_retries", self.recovery_retries)
            .with("immediate_submits", self.immediate_submits)
            .with(
                "frontier",
                self.frontier
                    .iter()
                    .map(|&v| Json::from(v))
                    .collect::<Vec<_>>(),
            )
            .with(
                "order_digest",
                self.order_digest
                    .iter()
                    .map(|&v| Json::from(hex(v)))
                    .collect::<Vec<_>>(),
            )
            .with("ordering_ok", self.ordering_ok);
        if let Some(detail) = &self.ordering_detail {
            j.set("ordering_detail", detail.as_str());
        }
        j.set(
            "net",
            Json::obj()
                .with("datagrams_rx", self.net.datagrams_rx)
                .with("datagrams_tx", self.net.datagrams_tx)
                .with("bytes_rx", self.net.bytes_rx)
                .with("bytes_tx", self.net.bytes_tx)
                .with("send_failed", self.net.send_failed)
                .with("dropped_loss", self.net.dropped_loss)
                .with("dropped_backpressure", self.net.dropped_backpressure)
                .with("frames_rx", self.net.frames_rx)
                .with("malformed", self.net.malformed)
                .with("foreign_group_frames", self.net.foreign_group_frames)
                .with("reassembly_evicted", self.net.reassembly_evicted)
                .with("frames_repaired", self.net.frames_repaired)
                .with("rounds", self.net.rounds)
                .with("rounds_skipped", self.net.rounds_skipped),
        );
        j.set("wall_secs", self.wall_secs);
        j
    }

    /// Parses a `urcgc-node/1` document.
    pub fn from_json(j: &Json) -> Result<NodeReport, String> {
        NODE_SCHEMA.expect(j)?;
        let frontier = j
            .get("frontier")
            .and_then(Json::items)
            .ok_or("missing frontier array")?
            .iter()
            .map(|v| v.as_f64().map(|f| f as u64).ok_or("non-numeric frontier"))
            .collect::<Result<Vec<_>, _>>()?;
        let order_digest = j
            .get("order_digest")
            .and_then(Json::items)
            .ok_or("missing order_digest array")?
            .iter()
            .map(|v| from_hex(v.as_str().ok_or("non-string digest")?))
            .collect::<Result<Vec<_>, _>>()?;
        let net_j = j.get("net").ok_or("missing net object")?;
        let net = NetStats {
            datagrams_rx: get_u64(net_j, "datagrams_rx")?,
            datagrams_tx: get_u64(net_j, "datagrams_tx")?,
            // Absent in documents written before the byte counters.
            bytes_rx: get_u64(net_j, "bytes_rx").unwrap_or(0),
            bytes_tx: get_u64(net_j, "bytes_tx").unwrap_or(0),
            // Absent in documents written before failed sends were told
            // from sent ones, and before parity datagrams.
            send_failed: get_u64(net_j, "send_failed").unwrap_or(0),
            frames_repaired: get_u64(net_j, "frames_repaired").unwrap_or(0),
            dropped_loss: get_u64(net_j, "dropped_loss")?,
            dropped_backpressure: get_u64(net_j, "dropped_backpressure")?,
            frames_rx: get_u64(net_j, "frames_rx")?,
            malformed: get_u64(net_j, "malformed")?,
            // Absent in documents written before multi-group envelopes.
            foreign_group_frames: get_u64(net_j, "foreign_group_frames").unwrap_or(0),
            reassembly_evicted: get_u64(net_j, "reassembly_evicted")?,
            rounds: get_u64(net_j, "rounds")?,
            // Absent in documents written before the round clock skipped
            // the rounds a stall slept through.
            rounds_skipped: get_u64(net_j, "rounds_skipped").unwrap_or(0),
        };
        Ok(NodeReport {
            me: get_u64(j, "me")? as u16,
            n: get_u64(j, "n")? as usize,
            status: get_str(j, "status")?,
            quiesced: get_bool(j, "quiesced")?,
            submitted: get_u64(j, "submitted")?,
            delivered: get_u64(j, "delivered")?,
            discarded: get_u64(j, "discarded")?,
            // Absent in documents written before the event-driven data path.
            recovery_requests: get_u64(j, "recovery_requests").unwrap_or(0),
            recovery_retries: get_u64(j, "recovery_retries").unwrap_or(0),
            immediate_submits: get_u64(j, "immediate_submits").unwrap_or(0),
            frontier,
            order_digest,
            ordering_ok: get_bool(j, "ordering_ok")?,
            ordering_detail: j
                .get("ordering_detail")
                .and_then(Json::as_str)
                .map(str::to_string),
            net,
            wall_secs: j
                .get("wall_secs")
                .and_then(Json::as_f64)
                .ok_or("missing wall_secs")?,
        })
    }

    /// Projects the report onto the oracle-facing observation.
    pub fn to_observation(&self) -> NodeObservation {
        NodeObservation {
            me: self.me,
            status: self.status.clone(),
            quiesced: self.quiesced,
            submitted: self.submitted,
            delivered: self.delivered,
            frontier: self.frontier.clone(),
            order_digest: self.order_digest.clone(),
            ordering_ok: self.ordering_ok,
            ordering_detail: self.ordering_detail.clone(),
        }
    }
}

/// The orchestrator's aggregation of one cluster run (`urcgc-cluster/1`).
pub struct ClusterReport {
    /// Run parameters (free-form object built by the orchestrator).
    pub params: Json,
    /// Every member's report, index-aligned with process ids.
    pub nodes: Vec<NodeReport>,
    /// Oracle verdicts over the reports.
    pub violations: Vec<Violation>,
    /// Proxy fault counters.
    pub proxy: ProxyStats,
    /// Orchestrator wall-clock for the whole run.
    pub wall_secs: f64,
}

impl ClusterReport {
    /// Whether the run passed (reports in, oracles silent).
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Serializes as a `urcgc-cluster/1` document.
    pub fn to_json(&self) -> Json {
        CLUSTER_SCHEMA
            .tag(Json::obj())
            .with("params", self.params.clone())
            .with("ok", self.ok())
            .with(
                "violations",
                self.violations
                    .iter()
                    .map(|v| {
                        Json::obj()
                            .with("kind", format!("{:?}", v.kind))
                            .with("detail", v.detail.as_str())
                    })
                    .collect::<Vec<_>>(),
            )
            .with(
                "proxy",
                Json::obj()
                    .with("received", self.proxy.received)
                    .with("forwarded", self.proxy.forwarded)
                    .with("dropped", self.proxy.dropped)
                    .with("duplicated", self.proxy.duplicated)
                    .with("delayed", self.proxy.delayed),
            )
            .with(
                "nodes",
                self.nodes
                    .iter()
                    .map(NodeReport::to_json)
                    .collect::<Vec<_>>(),
            )
            .with("wall_secs", self.wall_secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use urcgc_types::ProcessId;

    fn mid(origin: u16, seq: u64) -> Mid {
        Mid {
            origin: ProcessId(origin),
            seq,
        }
    }

    #[test]
    fn clean_log_passes_and_digests_are_per_origin() {
        let log = vec![
            (mid(0, 1), vec![]),
            (mid(1, 1), vec![mid(0, 1)]),
            (mid(0, 2), vec![]),
        ];
        let (ok, detail) = check_delivery_log(&log);
        assert!(ok, "{detail:?}");
        let mids: Vec<Mid> = log.iter().map(|(m, _)| *m).collect();
        let d = order_digests(2, &mids);
        assert_eq!(d.len(), 2);
        assert_eq!(d[0], fnv1a_stream([1, 2]));
        assert_eq!(d[1], fnv1a_stream([1]));
    }

    #[test]
    fn missing_cause_is_flagged() {
        let log = vec![(mid(1, 1), vec![mid(0, 1)])];
        let (ok, detail) = check_delivery_log(&log);
        assert!(!ok);
        assert!(detail.unwrap().contains("before its cause p0#1"));
    }

    #[test]
    fn sequence_regression_is_flagged() {
        let log = vec![(mid(0, 2), vec![]), (mid(0, 1), vec![])];
        let (ok, detail) = check_delivery_log(&log);
        assert!(!ok);
        assert!(detail.unwrap().contains("p0#1 after p0#2"));
    }

    #[test]
    fn node_report_roundtrips_through_json() {
        let report = NodeReport {
            me: 2,
            n: 3,
            status: "Active".into(),
            quiesced: true,
            submitted: 10,
            delivered: 30,
            discarded: 0,
            recovery_requests: 7,
            recovery_retries: 2,
            immediate_submits: 9,
            frontier: vec![10, 10, 10],
            // Includes a digest above 2^53 to prove hex transport is exact.
            order_digest: vec![0xcbf2_9ce4_8422_2325, 1, 0xffff_ffff_ffff_fffe],
            ordering_ok: true,
            ordering_detail: None,
            net: NetStats {
                datagrams_rx: 1000,
                datagrams_tx: 900,
                bytes_rx: 64_000,
                bytes_tx: 57_600,
                send_failed: 4,
                dropped_loss: 50,
                dropped_backpressure: 1,
                frames_rx: 800,
                malformed: 2,
                foreign_group_frames: 0,
                reassembly_evicted: 3,
                frames_repaired: 17,
                rounds: 500,
                rounds_skipped: 6,
            },
            wall_secs: 1.5,
        };
        let text = report.to_json().render();
        let back = NodeReport::from_json(&urcgc_metrics::json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn cluster_report_renders_with_verdicts() {
        use urcgc_check::OracleKind;
        let node = NodeReport {
            me: 0,
            n: 1,
            status: "Active".into(),
            quiesced: false,
            submitted: 0,
            delivered: 0,
            discarded: 0,
            recovery_requests: 0,
            recovery_retries: 0,
            immediate_submits: 0,
            frontier: vec![0],
            order_digest: vec![fnv1a_stream([])],
            ordering_ok: true,
            ordering_detail: None,
            net: NetStats::default(),
            wall_secs: 0.1,
        };
        let cluster = ClusterReport {
            params: Json::obj().with("n", 1u64),
            nodes: vec![node],
            violations: vec![Violation {
                kind: OracleKind::Stall,
                round: None,
                detail: "1 of 1 members did not quiesce".into(),
            }],
            proxy: ProxyStats::default(),
            wall_secs: 2.0,
        };
        assert!(!cluster.ok());
        let text = cluster.to_json().render_pretty();
        let j = urcgc_metrics::json::parse(&text).unwrap();
        assert_eq!(
            j.get("schema").and_then(Json::as_str),
            Some("urcgc-cluster/1")
        );
        assert_eq!(j.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(j.get("violations").and_then(Json::items).unwrap().len(), 1);
    }
}
