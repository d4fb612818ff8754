//! `loopback-cluster` — multi-process UDP soak behind a lossy proxy.
//!
//! The orchestrator spawns `--n` copies of itself (the hidden `node`
//! subcommand), one OS process per group member, each on its own
//! `127.0.0.1` socket. Every member is given **proxy** addresses for its
//! peers, so all inter-member traffic crosses a drop/duplicate/delay UDP
//! middlebox ([`LossyProxy`]). Members submit a message budget, report
//! workload quiescence, and — once every member has quiesced (or the
//! wall-clock budget expires) — emit a `urcgc-node/1` report. The
//! orchestrator feeds the reports to [`urcgc_check::check_cluster`] — the
//! same end-of-run oracles the adversarial explorer applies in-model —
//! and writes a `urcgc-cluster/1` document. Exit code 0 iff the oracles
//! are silent.
//!
//! This is the real-network CI gate: real sockets, real OS scheduling,
//! real loss between address spaces. With `--stall-ms D` the orchestrator
//! also freezes the whole group once the run is under way: every member
//! process gets `SIGSTOP`, and `SIGCONT` D ms later (through `kill(1)`) —
//! the host stall a member must survive at the default `K`.
//!
//! ```text
//! loopback-cluster --n 3 --msgs 10 --drop 0.05 --dup 0.02 --delay 0.05 \
//!     --budget-secs 60 --json cluster.json
//! ```
//!
//! Child protocol (line-oriented, child stdout / child stdin):
//!
//! ```text
//! child → port <p>            after binding its socket
//! parent → peers <a0> <a1> …  proxy-routed peer list, triggers spawn
//! child → quiesced            first time the workload predicate holds
//! parent → exit               once ALL members have quiesced
//! child → report <json>       final urcgc-node/1 document, then exits
//! ```
//!
//! A member keeps serving the protocol between `quiesced` and `exit` —
//! peers may still be recovering from it — which is exactly the
//! coordination a fixed-membership group needs to shut down cleanly.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, UdpSocket};
use std::process::{Child, Command, ExitCode, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use bytes::Bytes;

use urcgc_check::{check_cluster, NodeObservation};
use urcgc_metrics::Json;
use urcgc_runtime::{
    check_delivery_log, order_digests, spawn_member_on, workload_quiescent, AppEvent,
    ClusterReport, LossyProxy, NodeOptions, NodeReport, ProxyOptions,
};
use urcgc_types::{Mid, ProcessId, ProtocolConfig};

const HELP: &str = "\
loopback-cluster — multi-process UDP soak behind a lossy proxy

USAGE:
  loopback-cluster [OPTIONS]

OPTIONS:
  --n N               group size / OS processes (default 3)
  --msgs M            messages submitted per member (default 10)
  --round-ms MS       round duration (default 5)
  --k K               failure-detection bound (default 4)
  --mtu BYTES         datagram MTU (default 1400)
  --drop P            proxy drop probability (default 0.05)
  --dup P             proxy duplication probability (default 0.02)
  --delay P           proxy delay probability (default 0.05)
  --max-delay-ms MS   proxy max hold-back (default 10)
  --seed S            fault-plan seed (default 1)
  --budget-secs S     wall-clock budget for quiescence (default 60)
  --stall-ms D        freeze every member process for D ms once the run is
                      under way (SIGSTOP, then SIGCONT; default 0 = never)
  --json PATH         write the urcgc-cluster/1 document here
  --help              print this help

Exit code 0 iff every member quiesced in budget and the cluster oracles
(uniform agreement, ordering) found nothing.
";

#[derive(Clone)]
struct Args {
    n: usize,
    msgs: u64,
    round_ms: u64,
    k: u32,
    mtu: usize,
    drop_p: f64,
    dup_p: f64,
    delay_p: f64,
    max_delay_ms: u64,
    seed: u64,
    budget_secs: u64,
    stall_ms: u64,
    json: Option<String>,
    // node-mode only
    me: usize,
}

impl Default for Args {
    fn default() -> Args {
        Args {
            n: 3,
            msgs: 10,
            round_ms: 5,
            k: 4,
            mtu: 1400,
            drop_p: 0.05,
            dup_p: 0.02,
            delay_p: 0.05,
            max_delay_ms: 10,
            seed: 1,
            budget_secs: 60,
            stall_ms: 0,
            json: None,
            me: 0,
        }
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("missing value for {flag}"))
        };
        macro_rules! num {
            () => {
                value()?.parse().map_err(|e| format!("{flag}: {e}"))?
            };
        }
        match flag.as_str() {
            "--n" => args.n = num!(),
            "--msgs" => args.msgs = num!(),
            "--round-ms" => args.round_ms = num!(),
            "--k" => args.k = num!(),
            "--mtu" => args.mtu = num!(),
            "--drop" => args.drop_p = num!(),
            "--dup" => args.dup_p = num!(),
            "--delay" => args.delay_p = num!(),
            "--max-delay-ms" => args.max_delay_ms = num!(),
            "--seed" => args.seed = num!(),
            "--budget-secs" => args.budget_secs = num!(),
            "--stall-ms" => args.stall_ms = num!(),
            "--me" => args.me = num!(),
            "--json" => args.json = Some(value()?.to_string()),
            "--help" | "-h" => return Err(HELP.to_string()),
            other => return Err(format!("unknown flag {other}\n\n{HELP}")),
        }
    }
    if args.n < 2 {
        return Err("--n must be at least 2".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mode, rest) = match argv.first().map(String::as_str) {
        Some("node") => ("node", &argv[1..]),
        _ => ("orchestrate", &argv[..]),
    };
    let args = match parse_args(rest) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    if mode == "node" {
        run_node(args)
    } else {
        orchestrate(args)
    }
}

// ---------------------------------------------------------------- node mode

fn run_node(args: Args) -> ExitCode {
    let start = Instant::now();
    let me = ProcessId::from_index(args.me);
    let socket = UdpSocket::bind("127.0.0.1:0").expect("bind node socket");
    let port = socket.local_addr().expect("local addr").port();
    println!("port {port}");
    std::io::stdout().flush().ok();

    // The parent answers with the (proxy-routed) peer list.
    let stdin = std::io::stdin();
    let mut first_line = String::new();
    stdin
        .lock()
        .read_line(&mut first_line)
        .expect("read peers line");
    let peers: Vec<SocketAddr> = first_line
        .trim()
        .strip_prefix("peers ")
        .expect("first stdin line must be `peers …`")
        .split_whitespace()
        .map(|a| a.parse().expect("peer address"))
        .collect();
    assert_eq!(peers.len(), args.n, "peer list width");

    // Remaining stdin lines (the `exit` command) arrive via a thread.
    let (ctl_tx, ctl_rx) = mpsc::channel::<String>();
    std::thread::spawn(move || {
        for line in stdin.lock().lines() {
            let Ok(line) = line else { break };
            if ctl_tx.send(line).is_err() {
                break;
            }
        }
    });

    let cfg = ProtocolConfig::new(args.n).with_k(args.k);
    let opts = NodeOptions::default()
        .round_duration(Duration::from_millis(args.round_ms))
        .mtu(args.mtu);
    let (mut handle, shutdown) = match spawn_member_on(socket, me, peers, cfg, opts) {
        Ok(member) => member,
        Err(e) => {
            eprintln!("[p{}] failed to start: {e}", me.0);
            return ExitCode::FAILURE;
        }
    };

    // Submit the whole budget up front; the engine paces one broadcast per
    // request round on its own.
    let mut submitted = 0u64;
    for k in 0..args.msgs {
        match handle.submit(Bytes::from(format!("p{} m{k}", me.0)), vec![]) {
            Ok(_) => submitted += 1,
            Err(e) => {
                eprintln!("[p{}] submit {k} failed: {e}", me.0);
                break;
            }
        }
    }

    let budget = args.msgs;
    let deadline = start + Duration::from_secs(args.budget_secs);
    let mut log: Vec<(Mid, Vec<Mid>)> = Vec::new();
    let mut discarded = 0u64;
    let mut quiesced = false;
    let mut announced = false;
    let mut last_probe = Instant::now() - Duration::from_secs(1);
    'run: loop {
        // Drain application events into the delivery log.
        while let Some(ev) = handle.next_event(Duration::from_millis(20)) {
            match ev {
                AppEvent::Delivered(msg) => log.push((msg.mid, msg.deps.clone())),
                AppEvent::Discarded(mids) => discarded += mids.len() as u64,
                AppEvent::Confirmed(_) | AppEvent::StatusChanged(_) => {}
            }
        }
        for line in ctl_rx.try_iter() {
            if line.trim() == "exit" {
                break 'run;
            }
        }
        if Instant::now() >= deadline {
            eprintln!("[p{}] budget expired before exit command", me.0);
            break 'run;
        }
        if last_probe.elapsed() >= Duration::from_millis(50) {
            last_probe = Instant::now();
            quiesced = handle
                .with_engine(move |e| workload_quiescent(e, submitted, budget))
                .unwrap_or(quiesced);
            if quiesced && !announced {
                announced = true;
                println!("quiesced");
                std::io::stdout().flush().ok();
            }
        }
    }

    // Final observation. If the member ended (suicide/left), fall back to
    // what the log tells us.
    let final_state = handle.with_engine(|e| e.snapshot()).ok();
    let (status, frontier, stats) = match &final_state {
        Some(snap) => (snap.status.clone(), snap.frontier.clone(), snap.stats),
        None => ("Gone".to_string(), vec![0; args.n], Default::default()),
    };
    quiesced = handle
        .with_engine(move |e| workload_quiescent(e, submitted, budget))
        .unwrap_or(quiesced);
    let mids: Vec<Mid> = log.iter().map(|(m, _)| *m).collect();
    let (ordering_ok, ordering_detail) = check_delivery_log(&log);
    let report = NodeReport {
        me: me.0,
        n: args.n,
        status,
        quiesced,
        submitted,
        delivered: log.len() as u64,
        discarded,
        recovery_requests: stats.recovery_requests,
        recovery_retries: stats.recovery_retries.into(),
        immediate_submits: stats.immediate_submits.into(),
        frontier,
        order_digest: order_digests(args.n, &mids),
        ordering_ok,
        ordering_detail,
        net: handle.net_stats(),
        wall_secs: start.elapsed().as_secs_f64(),
    };
    println!("report {}", report.to_json().render());
    std::io::stdout().flush().ok();
    shutdown.shutdown();
    ExitCode::SUCCESS
}

// -------------------------------------------------------- orchestrator mode

enum ChildLine {
    Port(u16),
    Quiesced,
    Report(String),
    Eof,
}

fn orchestrate(args: Args) -> ExitCode {
    let start = Instant::now();
    let exe = std::env::current_exe().expect("current_exe");
    let n = args.n;
    eprintln!(
        "loopback-cluster: n={n} msgs={} mtu={} drop={} dup={} delay={} seed={} budget={}s \
         stall={}ms",
        args.msgs,
        args.mtu,
        args.drop_p,
        args.dup_p,
        args.delay_p,
        args.seed,
        args.budget_secs,
        args.stall_ms
    );

    // Spawn one `node` child per member; children self-destruct a little
    // after our budget even if we die without sending `exit`.
    let mut children: Vec<Child> = Vec::with_capacity(n);
    let (line_tx, line_rx) = mpsc::channel::<(usize, ChildLine)>();
    for i in 0..n {
        let mut child = Command::new(&exe)
            .arg("node")
            .args(["--me", &i.to_string()])
            .args(["--n", &n.to_string()])
            .args(["--msgs", &args.msgs.to_string()])
            .args(["--round-ms", &args.round_ms.to_string()])
            .args(["--k", &args.k.to_string()])
            .args(["--mtu", &args.mtu.to_string()])
            .args(["--seed", &(args.seed.wrapping_add(i as u64)).to_string()])
            .args(["--budget-secs", &(args.budget_secs + 20).to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn node process");
        let stdout = child.stdout.take().expect("child stdout");
        let tx = line_tx.clone();
        std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                let msg = if let Some(p) = line.strip_prefix("port ") {
                    p.trim().parse().map(ChildLine::Port).ok()
                } else if line.trim() == "quiesced" {
                    Some(ChildLine::Quiesced)
                } else if let Some(doc) = line.strip_prefix("report ") {
                    Some(ChildLine::Report(doc.to_string()))
                } else {
                    eprintln!("[p{i}] {line}");
                    None
                };
                if let Some(msg) = msg {
                    if tx.send((i, msg)).is_err() {
                        break;
                    }
                }
            }
            let _ = tx.send((i, ChildLine::Eof));
        });
        children.push(child);
    }
    drop(line_tx);

    // Phase 1: collect every child's bound port.
    let mut ports: Vec<Option<u16>> = vec![None; n];
    let port_deadline = Instant::now() + Duration::from_secs(30);
    while ports.iter().any(Option::is_none) {
        let left = port_deadline.saturating_duration_since(Instant::now());
        match line_rx.recv_timeout(left.max(Duration::from_millis(1))) {
            Ok((i, ChildLine::Port(p))) => ports[i] = Some(p),
            Ok((i, ChildLine::Eof)) => {
                eprintln!("child p{i} exited before reporting its port");
                return fail_and_reap(children);
            }
            Ok(_) => {}
            Err(_) => {
                eprintln!("timed out waiting for child ports");
                return fail_and_reap(children);
            }
        }
    }
    let child_addrs: Vec<SocketAddr> = ports
        .iter()
        .map(|p| format!("127.0.0.1:{}", p.unwrap()).parse().unwrap())
        .collect();

    // Phase 2: raise the lossy proxy and hand every child its peer list —
    // peers routed through the proxy, itself direct (never dialed).
    let proxy = LossyProxy::spawn(
        &child_addrs,
        ProxyOptions {
            drop_p: args.drop_p,
            dup_p: args.dup_p,
            delay_p: args.delay_p,
            max_delay: Duration::from_millis(args.max_delay_ms),
            seed: args.seed,
        },
    )
    .expect("spawn proxy");
    for (i, child) in children.iter_mut().enumerate() {
        let list: Vec<String> = (0..n)
            .map(|j| {
                if j == i {
                    child_addrs[j].to_string()
                } else {
                    proxy.addrs()[j].to_string()
                }
            })
            .collect();
        let stdin = child.stdin.as_mut().expect("child stdin");
        writeln!(stdin, "peers {}", list.join(" ")).expect("send peers");
        stdin.flush().ok();
    }
    if args.stall_ms > 0 {
        // Twenty rounds in: past the startup barrier, workload in flight.
        std::thread::sleep(Duration::from_millis(20 * args.round_ms));
        stall(&children, Duration::from_millis(args.stall_ms));
    }

    // Phase 3: wait for group-wide quiescence, then tell everyone to exit.
    // (A member must keep serving after its own quiescence — peers may
    // still be recovering from it.)
    let mut quiesced = vec![false; n];
    let mut reports: Vec<Option<NodeReport>> = vec![None; n];
    let deadline = start + Duration::from_secs(args.budget_secs);
    while !quiesced.iter().all(|&q| q) && Instant::now() < deadline {
        let left = deadline.saturating_duration_since(Instant::now());
        match line_rx.recv_timeout(left.max(Duration::from_millis(1))) {
            Ok((i, ChildLine::Quiesced)) => {
                quiesced[i] = true;
                eprintln!(
                    "p{i} quiesced ({}/{} at {:.1}s)",
                    quiesced.iter().filter(|&&q| q).count(),
                    n,
                    start.elapsed().as_secs_f64()
                );
            }
            Ok((i, ChildLine::Report(doc))) => store_report(&mut reports, i, &doc),
            Ok((i, ChildLine::Eof)) if reports[i].is_none() => {
                // It will neither quiesce nor report: the run has failed,
                // and waiting out the budget would only say so later.
                eprintln!("child p{i} exited without a report");
                break;
            }
            Ok(_) => {}
            Err(_) => break,
        }
    }
    if !quiesced.iter().all(|&q| q) {
        eprintln!("no group quiescence; collecting reports anyway");
    }
    for child in children.iter_mut() {
        if let Some(stdin) = child.stdin.as_mut() {
            let _ = writeln!(stdin, "exit");
            let _ = stdin.flush();
        }
    }

    // Phase 4: collect reports (grace period), then reap.
    let grace = Instant::now() + Duration::from_secs(15);
    while reports.iter().any(Option::is_none) && Instant::now() < grace {
        let left = grace.saturating_duration_since(Instant::now());
        match line_rx.recv_timeout(left.max(Duration::from_millis(1))) {
            Ok((i, ChildLine::Report(doc))) => store_report(&mut reports, i, &doc),
            Ok(_) => {}
            Err(mpsc::RecvTimeoutError::Timeout) => break,
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
    }
    for mut child in children {
        let _ = child.kill();
        let _ = child.wait();
    }

    // Phase 5: the oracles. A missing report is a quiescence failure by
    // construction (the member could not even describe its final state).
    let observations: Vec<NodeObservation> = (0..n)
        .map(|i| match &reports[i] {
            Some(r) => r.to_observation(),
            None => NodeObservation {
                me: i as u16,
                status: "NoReport".to_string(),
                quiesced: false,
                submitted: 0,
                delivered: 0,
                frontier: vec![0; n],
                order_digest: vec![0; n],
                ordering_ok: true,
                ordering_detail: None,
            },
        })
        .collect();
    let violations = check_cluster(&observations);
    let cluster = ClusterReport {
        params: Json::obj()
            .with("n", n)
            .with("msgs_per_member", args.msgs)
            .with("round_ms", args.round_ms)
            .with("k", args.k)
            .with("mtu", args.mtu)
            .with("drop_p", args.drop_p)
            .with("dup_p", args.dup_p)
            .with("delay_p", args.delay_p)
            .with("max_delay_ms", args.max_delay_ms)
            .with("seed", args.seed)
            .with("budget_secs", args.budget_secs)
            .with("stall_ms", args.stall_ms),
        nodes: reports.iter().flatten().cloned().collect(),
        violations,
        proxy: proxy.stats(),
        wall_secs: start.elapsed().as_secs_f64(),
    };
    proxy.shutdown();

    let doc = cluster.to_json();
    if let Some(path) = &args.json {
        std::fs::write(path, doc.render_pretty()).expect("write cluster json");
        eprintln!("wrote {path}");
    }
    let ps = cluster.proxy;
    println!(
        "cluster {} in {:.1}s: {} members, {} delivered total, proxy {} in / {} out \
         ({} dropped, {} duplicated, {} delayed)",
        if cluster.ok() { "PASS" } else { "FAIL" },
        cluster.wall_secs,
        cluster.nodes.len(),
        cluster.nodes.iter().map(|r| r.delivered).sum::<u64>(),
        ps.received,
        ps.forwarded,
        ps.dropped,
        ps.duplicated,
        ps.delayed,
    );
    for v in &cluster.violations {
        println!("violation {:?}: {}", v.kind, v.detail);
    }
    if cluster.ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Freezes every child process for `d`: `SIGSTOP` to all of them, then
/// `SIGCONT` to all of them.
fn stall(children: &[Child], d: Duration) {
    let pids: Vec<String> = children.iter().map(|c| c.id().to_string()).collect();
    let signal = |sig: &str| {
        let sent = Command::new("kill").arg(sig).args(&pids).status();
        if !sent.as_ref().is_ok_and(|s| s.success()) {
            eprintln!("kill {sig} failed: {sent:?}");
        }
    };
    eprintln!("stalling {} members for {d:?}", pids.len());
    signal("-STOP");
    std::thread::sleep(d);
    signal("-CONT");
}

fn store_report(reports: &mut [Option<NodeReport>], i: usize, doc: &str) {
    match urcgc_metrics::json::parse(doc).and_then(|j| NodeReport::from_json(&j)) {
        Ok(r) => reports[i] = Some(r),
        Err(e) => eprintln!("child p{i} sent an unparseable report: {e}"),
    }
}

fn fail_and_reap(children: Vec<Child>) -> ExitCode {
    for mut child in children {
        let _ = child.kill();
        let _ = child.wait();
    }
    ExitCode::FAILURE
}
