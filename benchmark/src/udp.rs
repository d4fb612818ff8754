//! `udp_steady` and `udp_lossy_frag`: the threaded UDP runtime under an
//! open-loop load, the path a library user gets.
//!
//! One load-generator thread submits on a seeded schedule
//! ([`crate::loadgen`]), round-robin over the members, and polls every
//! member's event channel. A message's latency runs from the instant it
//! was **due** — a stall therefore also costs the messages queued behind
//! it — to the poll sweep in which the generator has seen it `Delivered`
//! on every member; the sweep period (≤ [`POLL`] plus scheduling) is part
//! of the number. p50 and p90 are taken slice by slice of the window
//! ([`LATENCY_SLICE`]) and reported as the median over the slices. All
//! traffic crosses the host loopback, never a real link.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use urcgc::{EngineGauges, EngineStats, ProcessStatus};
use urcgc_metrics::Json;
use urcgc_runtime::{AppEvent, GroupShutdown, NetStats, NodeOptions, ProcessHandle, UdpGroup};
use urcgc_types::{Mid, ProtocolConfig};

use crate::checks::{check_members, digests_json, MemberCheck};
use crate::loadgen::{payload, poisson_schedule};
use crate::metrics::{Layers, Outcome};
use crate::stats::{median, process_cpu_secs, quantile_sorted};
use crate::RunArgs;

/// Longest the generator sleeps between poll sweeps.
const POLL: Duration = Duration::from_micros(200);
/// How long after the last due instant a message may still arrive before
/// it counts as failed.
const GRACE: Duration = Duration::from_secs(3);
/// Gauge sampling period on traced runs.
const GAUGE_EVERY: Duration = Duration::from_millis(100);
/// Length of the slices of the window (by due time) whose latency
/// quantiles are taken separately. A stall or a noisy second on the
/// shared host lands in one slice; the median over the slices leaves it
/// there. Over the whole run one such second moved `udp_lossy_frag`'s p90
/// — which sits in the recovery tail — from 22 to 59 ms.
const LATENCY_SLICE: Duration = Duration::from_secs(2);
/// Groups spawned per run; set-up time is their median and the last one
/// carries the measured window.
const SETUPS: usize = 5;

/// Parameters of one UDP workload.
pub struct UdpParams {
    /// Group size.
    pub n: usize,
    /// Failure-detection bound `K`, when not the protocol default.
    pub k: Option<u32>,
    /// Wall-clock round length.
    pub round: Duration,
    /// Receive-side Bernoulli loss probability.
    pub loss: f64,
    /// Payload bytes per message.
    pub payload: usize,
    /// Offered load, messages per second over the whole group.
    pub rate: f64,
}

impl UdpParams {
    fn config(&self) -> ProtocolConfig {
        let cfg = ProtocolConfig::new(self.n);
        match self.k {
            Some(k) => cfg.with_k(k),
            None => cfg,
        }
    }

    fn describe(&self) -> Json {
        Json::obj()
            .with("loop", "open")
            .with("n", self.n as f64)
            .with("k", self.config().k as f64)
            .with("round_ms", self.round.as_secs_f64() * 1e3)
            .with("loss", self.loss)
            .with("payload_bytes", self.payload as f64)
            .with("rate_msgs_per_s", self.rate)
            .with("link", "host loopback")
    }
}

/// A spawned group plus everything the generator has seen it do.
struct Cell {
    handles: Vec<ProcessHandle>,
    shutdown: GroupShutdown,
    checks: Vec<MemberCheck>,
    statuses: Vec<ProcessStatus>,
    discarded: u64,
    /// Deliveries seen so far per message.
    seen: HashMap<Mid, usize>,
}

impl Cell {
    /// Spawns the group and delivers one warm-up message everywhere, so
    /// the hello barrier is over and the round clock runs.
    fn spawn(p: &UdpParams, seed: u64) -> Result<Cell, String> {
        let opts = NodeOptions::default()
            .round_duration(p.round)
            .loss(p.loss, seed);
        let (handles, shutdown) = UdpGroup::spawn_with(p.config(), opts)
            .map_err(|e| e.to_string())?
            .into_handles();
        let mut cell = Cell {
            handles,
            shutdown,
            checks: (0..p.n).map(|_| MemberCheck::new(p.n)).collect(),
            statuses: vec![ProcessStatus::Active; p.n],
            discarded: 0,
            seen: HashMap::new(),
        };
        let warm = cell.handles[0]
            .submit(payload(seed, usize::MAX, p.payload), vec![])
            .map_err(|e| format!("warm-up submit: {e}"))?;
        let deadline = Instant::now() + Duration::from_secs(20);
        while cell.seen.get(&warm).copied().unwrap_or(0) < p.n {
            if Instant::now() > deadline {
                return Err("warm-up message not delivered everywhere in 20 s".into());
            }
            cell.drain_events(|_| {});
            std::thread::sleep(POLL);
        }
        Ok(cell)
    }

    /// Drains every member's event channel; `on_everywhere` is called for
    /// each message whose delivery count just reached the group size.
    fn drain_events(&mut self, mut on_everywhere: impl FnMut(Mid)) {
        let n = self.handles.len();
        for m in 0..n {
            while let Some(ev) = self.handles[m].try_event() {
                match ev {
                    AppEvent::Delivered(msg) => {
                        self.checks[m].on_deliver(&msg);
                        let count = self.seen.entry(msg.mid).or_insert(0);
                        *count += 1;
                        if *count == n {
                            on_everywhere(msg.mid);
                        }
                    }
                    AppEvent::Discarded(mids) => self.discarded += mids.len() as u64,
                    AppEvent::StatusChanged(s) => self.statuses[m] = s,
                    AppEvent::Confirmed(_) => {}
                }
            }
        }
    }

    fn net_total(&self) -> NetStats {
        let mut t = NetStats::default();
        for m in 0..self.handles.len() {
            let s = self.handles[m].net_stats();
            t.datagrams_rx += s.datagrams_rx;
            t.datagrams_tx += s.datagrams_tx;
            t.dropped_loss += s.dropped_loss;
            t.dropped_backpressure += s.dropped_backpressure;
            t.frames_rx += s.frames_rx;
            t.malformed += s.malformed;
            t.foreign_group_frames += s.foreign_group_frames;
            t.reassembly_evicted += s.reassembly_evicted;
            t.rounds += s.rounds;
        }
        t
    }

    fn engine_totals(&self) -> EngineStats {
        let mut t = EngineStats::default();
        for m in 0..self.handles.len() {
            if let Ok(s) = self.handles[m].stats() {
                t.recovery_requests += s.recovery_requests;
                t.recovered += s.recovered;
                t.flow_blocked_rounds += s.flow_blocked_rounds;
                t.decisions_applied += s.decisions_applied;
            }
        }
        t
    }

    /// Folds every live member's gauges into the running peaks.
    fn sample_gauges(&self, peak: &mut EngineGauges) {
        for m in 0..self.handles.len() {
            if let Ok(g) = self.handles[m].with_engine(|e| e.gauges()) {
                peak.waiting_len = peak.waiting_len.max(g.waiting_len);
                peak.history_len = peak.history_len.max(g.history_len);
                peak.history_segments = peak.history_segments.max(g.history_segments);
                peak.purge_lag = peak.purge_lag.max(g.purge_lag);
            }
        }
    }
}

/// Runs one UDP workload.
pub fn run(p: &UdpParams, args: &RunArgs) -> Result<Outcome, String> {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut cell = None;
    for _ in 0..SETUPS {
        if let Some(Cell { shutdown, .. }) = cell.take() {
            shutdown.shutdown();
        }
        let started = Instant::now();
        cell = Some(Cell::spawn(p, args.seed)?);
        setups.push(started.elapsed().as_secs_f64());
    }
    let mut cell = cell.expect("SETUPS > 0");

    let window = Duration::from_secs_f64(args.seconds);
    let schedule = poisson_schedule(args.seed, p.rate, window);
    let bodies: Vec<_> = (0..schedule.len())
        .map(|i| payload(args.seed, i, p.payload))
        .collect();

    let (net0, eng0) = (cell.net_total(), cell.engine_totals());
    let cpu0 = process_cpu_secs();
    let start = Instant::now();
    let due: Vec<Instant> = schedule.iter().map(|&off| start + off).collect();
    let mut index_of: HashMap<Mid, usize> = HashMap::with_capacity(due.len());
    // Latency of each message delivered everywhere, from its due instant.
    let mut lat_ns: Vec<u64> = Vec::with_capacity(due.len());
    // The same latencies, by the slice of the window they were due in.
    let slices = ((args.seconds / LATENCY_SLICE.as_secs_f64()).round() as usize).max(1);
    let slice_of = |i: usize| (schedule[i].as_secs_f64() / args.seconds * slices as f64) as usize;
    let mut lat_by_slice: Vec<Vec<u64>> = vec![Vec::new(); slices];
    let mut submit_ns: Vec<u64> = Vec::with_capacity(due.len());
    let mut late_ns: Vec<u64> = Vec::with_capacity(due.len());
    let mut submitted = vec![0u64; p.n];
    submitted[0] = 1; // the warm-up message
    let mut rejected = 0usize;
    let mut next = 0usize;
    let mut last_everywhere = start;
    let mut peaks = EngineGauges::default();
    let mut next_gauge = start;
    let give_up = start + window + GRACE;

    loop {
        let now = Instant::now();
        while next < due.len() && due[next] <= now {
            let member = next % p.n;
            let called = Instant::now();
            late_ns.push((called - due[next]).as_nanos() as u64);
            match cell.handles[member].submit(bodies[next].clone(), vec![]) {
                Ok(mid) => {
                    index_of.insert(mid, next);
                    submitted[member] += 1;
                }
                Err(_) => rejected += 1,
            }
            submit_ns.push(called.elapsed().as_nanos() as u64);
            next += 1;
        }
        let swept = Instant::now();
        cell.drain_events(|mid| {
            if let Some(&i) = index_of.get(&mid) {
                let waited = (swept - due[i]).as_nanos() as u64;
                lat_ns.push(waited);
                lat_by_slice[slice_of(i).min(slices - 1)].push(waited);
                last_everywhere = swept;
            }
        });
        if args.trace && swept >= next_gauge {
            cell.sample_gauges(&mut peaks);
            next_gauge = swept + GAUGE_EVERY;
        }
        if lat_ns.len() + rejected == due.len() || swept > give_up {
            break;
        }
        let until_due = due
            .get(next)
            .map_or(POLL, |d| d.saturating_duration_since(Instant::now()));
        std::thread::sleep(until_due.min(POLL));
    }
    // The window ends when the last message is delivered everywhere (or,
    // when some never are, at the end of the grace period).
    let end = if lat_ns.len() + rejected == due.len() {
        last_everywhere
    } else {
        Instant::now()
    };
    let wall = (end - start).as_secs_f64();
    let cpu = process_cpu_secs() - cpu0;
    let (net1, eng1) = (cell.net_total(), cell.engine_totals());
    for m in 0..p.n {
        if let Ok(s) = cell.handles[m].status() {
            cell.statuses[m] = s;
        }
    }
    let Cell {
        shutdown,
        checks,
        statuses,
        discarded,
        ..
    } = cell;
    shutdown.shutdown();

    let everywhere = lat_ns.len();
    let attempted = due.len() as u64;
    let failed = attempted - everywhere as u64;
    let mut problems = check_members(&checks, &statuses, &submitted, failed == 0);
    if discarded > 0 {
        problems.push(format!(
            "{discarded} messages destroyed by orphan elimination"
        ));
    }

    lat_ns.sort_unstable();
    if lat_ns.is_empty() {
        return Err("no message was delivered everywhere".into());
    }
    let ms = |ns: u64| ns as f64 / 1e6;
    lat_by_slice.retain(|s| !s.is_empty());
    for s in &mut lat_by_slice {
        s.sort_unstable();
    }
    let over_slices = |q: f64| {
        let per_slice: Vec<f64> = lat_by_slice
            .iter()
            .map(|s| ms(quantile_sorted(s, q)))
            .collect();
        median(&per_slice)
    };
    let kmsg = everywhere as f64 / 1e3;

    let mut layers = Layers::default();
    if args.trace {
        late_ns.sort_unstable();
        submit_ns.sort_unstable();
        let d = |a: u64, b: u64| (a - b) as f64;
        let datagrams_rx = d(net1.datagrams_rx, net0.datagrams_rx);
        layers.set(
            "loadgen.deliver_all_p99_ms",
            ms(quantile_sorted(&lat_ns, 0.99)),
        );
        layers.set("loadgen.latency_samples", lat_ns.len() as f64);
        layers.set("loadgen.late_ms_p99", ms(quantile_sorted(&late_ns, 0.99)));
        layers.set("loadgen.late_ms_max", ms(quantile_sorted(&late_ns, 1.0)));
        layers.set(
            "runtime.rx_useful_share",
            d(net1.frames_rx, net0.frames_rx) / datagrams_rx.max(1.0),
        );
        layers.set(
            "runtime.datagrams_tx_per_msg",
            d(net1.datagrams_tx, net0.datagrams_tx) / everywhere as f64,
        );
        layers.set(
            "runtime.submit_call_us_p50",
            quantile_sorted(&submit_ns, 0.5) as f64 / 1e3,
        );
        // Rounds every member should have ticked over the window, against
        // the rounds they did tick.
        let due_rounds = p.n as f64 * wall / p.round.as_secs_f64();
        layers.set(
            "runtime.round_lag_share",
            1.0 - d(net1.rounds, net0.rounds) / due_rounds,
        );
        layers.set(
            "runtime.dropped_backpressure",
            d(net1.dropped_backpressure, net0.dropped_backpressure),
        );
        layers.set(
            "runtime.dropped_loss",
            d(net1.dropped_loss, net0.dropped_loss),
        );
        layers.set(
            "runtime.reassembly_evicted",
            d(net1.reassembly_evicted, net0.reassembly_evicted),
        );
        layers.set("runtime.malformed", d(net1.malformed, net0.malformed));
        layers.set(
            "core.recovery_requests_per_kmsg",
            d(eng1.recovery_requests, eng0.recovery_requests) / kmsg,
        );
        layers.set(
            "core.recovered_per_kmsg",
            d(eng1.recovered, eng0.recovered) / kmsg,
        );
        layers.set(
            "core.flow_blocked_rounds",
            d(eng1.flow_blocked_rounds, eng0.flow_blocked_rounds),
        );
        layers.set(
            "core.decisions_applied_per_s",
            d(eng1.decisions_applied, eng0.decisions_applied) / wall,
        );
        layers.set("causal.waiting_peak", peaks.waiting_len as f64);
        layers.set("history.len_peak", peaks.history_len as f64);
        layers.set("history.segments_peak", peaks.history_segments as f64);
        layers.set("history.purge_lag_peak", peaks.purge_lag as f64);
    }

    Ok(Outcome {
        attempted,
        failed,
        problems,
        setup_s: median(&setups),
        msgs_per_s: everywhere as f64 / wall,
        p50_ms: over_slices(0.5),
        p90_ms: over_slices(0.9),
        cpu_ms_per_kmsg: cpu * 1e3 / kmsg,
        layers,
        detail: p
            .describe()
            .with("window_s", wall)
            .with("latency_samples", lat_ns.len() as f64)
            .with("latency_slices", lat_by_slice.len())
            .with("rejected", rejected as f64)
            .with("order_digests", digests_json(&checks[0].digests()))
            .with(
                "setups_s",
                Json::Arr(setups.iter().map(|&s| s.into()).collect()),
            ),
    })
}
