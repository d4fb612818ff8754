//! The metric catalogue: every name this benchmark prints, with its unit,
//! direction and — for end-to-end metrics — regression bound. The root
//! `BENCHMARK.json` must list exactly these (a unit test compares them).

use std::collections::BTreeMap;

use urcgc_metrics::Json;

/// Which direction is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric's catalogue entry. `bound` is the share of the baseline
/// median an end-to-end metric may worsen by before it is a regression;
/// per-layer metrics carry none.
#[derive(Clone, Copy, Debug)]
pub struct MetricSpec {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Regression bound (end-to-end only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics: what a user of the stack sees. Reported by every
/// workload on every untraced run.
pub const END_TO_END: &[MetricSpec] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("msgs_per_s", "msgs/s", Higher, 0.25),
    e2e("deliver_all_p50_ms", "ms", Lower, 0.25),
    e2e("deliver_all_p90_ms", "ms", Lower, 0.25),
    e2e("peak_rss_mib", "MiB", Lower, 0.15),
];

/// Per-layer metrics: one layer's count, busy time or waste ratio, all
/// taken from outside the measured crates. Reported by every workload on
/// the traced run; a layer a workload does not cross reads 0.
pub const PER_LAYER: &[MetricSpec] = &[
    // Load generator and the end-to-end view it cannot gate on.
    layer("loadgen.deliver_all_p99_ms", "ms", Lower),
    layer("loadgen.latency_samples", "count", Higher),
    layer("loadgen.late_ms_p99", "ms", Lower),
    layer("loadgen.late_ms_max", "ms", Lower),
    layer("wire_bytes_per_msg", "B", Lower),
    // Whole process; not end-to-end because on the mostly idle
    // `udp_lossy_frag` it follows what else the machine runs (README).
    layer("cpu_ms_per_kmsg", "ms", Lower),
    // UDP runtime, from NetStats and load-generator timing.
    layer("runtime.rx_useful_share", "ratio", Higher),
    layer("runtime.datagrams_tx_per_msg", "count", Lower),
    layer("runtime.submit_call_us_p50", "us", Lower),
    layer("runtime.round_lag_share", "ratio", Lower),
    layer("runtime.dropped_backpressure", "count", Lower),
    layer("runtime.dropped_loss", "count", Lower),
    layer("runtime.reassembly_evicted", "count", Lower),
    layer("runtime.malformed", "count", Lower),
    // Engine counters and gauges (EngineStats / EngineGauges / soak peaks).
    layer("core.recovery_requests_per_kmsg", "count", Lower),
    layer("core.recovered_per_kmsg", "count", Lower),
    layer("core.flow_blocked_rounds", "count", Lower),
    layer("core.decisions_applied_per_s", "1/s", Higher),
    layer("causal.waiting_peak", "count", Lower),
    layer("history.len_peak", "count", Lower),
    layer("history.segments_peak", "count", Lower),
    layer("history.purge_lag_peak", "count", Lower),
    // Inline-driver spans (stack_saturated traced run).
    layer("link.send_to_ns", "ns", Lower),
    layer("link.send_to_share", "ratio", Lower),
    layer("link.recv_from_ns", "ns", Lower),
    layer("link.recv_from_share", "ratio", Lower),
    layer("core.on_frame_ns", "ns", Lower),
    layer("core.on_frame_share", "ratio", Lower),
    layer("core.begin_round_ns", "ns", Lower),
    layer("core.submit_ns", "ns", Lower),
    layer("core.poll_output_ns", "ns", Lower),
    layer("types.encode_group_ns", "ns", Lower),
    layer("types.encode_group_share", "ratio", Lower),
    layer("runtime.frag_split_ns", "ns", Lower),
    layer("runtime.reasm_accept_ns", "ns", Lower),
    layer("stack.span_sum_share", "ratio", Higher),
    layer("stack.trace_overhead_share", "ratio", Lower),
    // Isolated calls into one layer's public functions.
    layer("types.encode_pdu_ns_64", "ns", Lower),
    layer("types.encode_pdu_ns_4k", "ns", Lower),
    layer("types.decode_pdu_ns_64", "ns", Lower),
    layer("types.decode_pdu_ns_4k", "ns", Lower),
    layer("types.group_demux_ns_64", "ns", Lower),
    layer("types.group_demux_ns_4k", "ns", Lower),
    layer("types.encode_allocs_per_frame", "count", Lower),
    layer("runtime.frag_split_ns_4k", "ns", Lower),
    layer("runtime.reasm_accept_ns_4k", "ns", Lower),
    layer("causal.park_ns", "ns", Lower),
    layer("causal.wake_ns", "ns", Lower),
    layer("causal.waiting_vector_ns", "ns", Lower),
    layer("history.save_ns", "ns", Lower),
    layer("history.range_ns_per_msg", "ns", Lower),
    layer("history.advance_stability_ns_per_msg", "ns", Lower),
    layer("history.stability_record_ns", "ns", Lower),
    layer("core.engine_round_request_ns", "ns", Lower),
    layer("core.engine_round_decide_ns", "ns", Lower),
    layer("core.on_pdu_data_ns", "ns", Lower),
    layer("core.on_pdu_decision_ns", "ns", Lower),
    layer("core.node_on_frame_ns_1k_groups", "ns", Lower),
    layer("core.node_begin_round_ns_per_group", "ns", Lower),
    layer("core.bytes_per_idle_group", "B", Lower),
    layer("core.foreign_frames", "count", Lower),
    layer("overlay.broadcast_ns", "ns", Lower),
    layer("overlay.on_frame_ns", "ns", Lower),
    layer("overlay.plan_build_ns", "ns", Lower),
    layer("overlay.worst_fanout", "count", Lower),
    layer("overlay.relayed_byte_share", "ratio", Lower),
    layer("overlay.dup_share", "ratio", Lower),
    layer("simnet.step_ns_per_frame", "ns", Lower),
    layer("simnet.frames_per_msg", "count", Lower),
    layer("simnet.encoded_byte_share", "ratio", Lower),
    layer("transport.entity_rq_ack_ns", "ns", Lower),
    layer("transport.retransmits_per_xfer", "count", Lower),
    layer("transport.tframe_decode_ns", "ns", Lower),
    layer("transport.relay_codec_ns", "ns", Lower),
];

/// Looks a metric up in either table.
#[cfg(test)]
pub fn spec(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// Per-layer values of one run, keyed by catalogue name.
#[derive(Default, Clone)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Records `value` under `name`.
    ///
    /// # Panics
    /// Panics when `name` is not in [`PER_LAYER`] — a typo must not create
    /// a metric the catalogue does not know.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "unknown per-layer metric {name}"
        );
        self.0.insert(name, value);
    }

    /// The recorded value, or 0 for a layer this run did not cross.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Adds every entry of `other` (later values win).
    pub fn merge(&mut self, other: Layers) {
        self.0.extend(other.0);
    }
}

/// What one run of one workload measured.
pub struct Outcome {
    /// Messages the workload tried to get delivered everywhere.
    pub attempted: u64,
    /// Of those: rejected at submit, discarded, or not delivered at every
    /// live member in time.
    pub failed: u64,
    /// One line per failed correctness check (empty = run is correct).
    pub problems: Vec<String>,
    /// Median set-up time, seconds.
    pub setup_s: f64,
    /// Messages delivered everywhere per wall second of the window.
    pub msgs_per_s: f64,
    /// Submit (or due) → delivered-everywhere latency, median, ms.
    pub p50_ms: f64,
    /// Same, 90th percentile.
    pub p90_ms: f64,
    /// Process CPU per 1 000 messages delivered everywhere, ms (printed
    /// with the per-layer metrics).
    pub cpu_ms_per_kmsg: f64,
    /// Per-layer metrics (filled on traced runs).
    pub layers: Layers,
    /// Parameters, sample counts and exact counts, for the JSON document.
    pub detail: Json,
}

impl Outcome {
    /// The end-to-end value printed under `name`.
    pub fn end_to_end(&self, name: &str) -> f64 {
        match name {
            "setup_s" => self.setup_s,
            "msgs_per_s" => self.msgs_per_s,
            "deliver_all_p50_ms" => self.p50_ms,
            "deliver_all_p90_ms" => self.p90_ms,
            "peak_rss_mib" => crate::stats::peak_rss_mib(),
            other => panic!("unknown end-to-end metric {other}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16);
            assert!(m.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b <= 0.25)));
    }
}
