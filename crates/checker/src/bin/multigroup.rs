//! Multi-group soak driver (`urcgc-multigroup/1`).
//!
//! Runs thousands of shared-nothing URCGC groups through the `Node`
//! façade, sharded over the sweep job pool, and emits one JSON document
//! with aggregate throughput, delivery-latency percentiles, per-idle-group
//! heap bytes (measured with a counting global allocator), and the oracle
//! verdicts — every group checked with the cluster oracles, the whole run
//! with the genuineness oracle (zero frames at non-destination groups).
//!
//! Run:   `cargo run --release -p urcgc-check --bin multigroup -- --json MG.json`
//! Smoke: `... --bin multigroup -- --profile smoke --jobs 3 --json mg.json`
//! (256 groups; the CI gate.)

use urcgc_check::multigroup::{run_multigroup, MultigroupSpec};
use urcgc_metrics::alloc::CountingAlloc;
use urcgc_types::{GroupId, ProcessId, ProtocolConfig};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const HELP: &str = "\
multigroup — thousands of shared-nothing urcgc groups behind one Node API

USAGE:
  multigroup [OPTIONS]

OPTIONS:
  --profile P   soak (default: 1000 groups) | wide (10000 groups)
                | smoke (256 groups; the CI gate)
  --groups N    override the group count
  --jobs J      shards = worker threads on the sweep pool (default 1);
                group->shard assignment is id % J, so the workload and
                every per-group verdict are independent of J
  --seed S      base seed (default 0xC0FFEE)
  --json PATH   write the urcgc-multigroup/1 document to PATH
  --help        print this help
";

struct Profile {
    name: &'static str,
    groups: usize,
    msgs_per_group: u64,
    max_rounds: u64,
}

const SOAK: Profile = Profile {
    name: "soak",
    groups: 1000,
    msgs_per_group: 4,
    max_rounds: 4_000,
};

const WIDE: Profile = Profile {
    name: "wide",
    groups: 10_000,
    msgs_per_group: 2,
    max_rounds: 4_000,
};

const SMOKE: Profile = Profile {
    name: "smoke",
    groups: 256,
    msgs_per_group: 3,
    max_rounds: 2_000,
};

struct Opts {
    profile: &'static Profile,
    groups: Option<usize>,
    jobs: usize,
    seed: u64,
    json: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        profile: &SOAK,
        groups: None,
        jobs: 1,
        seed: 0x00C0_FFEE,
        json: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--profile" => {
                opts.profile = match it.next().map(String::as_str) {
                    Some("soak") => &SOAK,
                    Some("wide") => &WIDE,
                    Some("smoke") => &SMOKE,
                    other => {
                        return Err(format!("--profile expects soak|wide|smoke, got {other:?}"))
                    }
                }
            }
            "--groups" => {
                opts.groups = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .filter(|&g| g >= 1)
                        .ok_or_else(|| "--groups expects a positive integer".to_string())?,
                )
            }
            "--jobs" => {
                opts.jobs = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&j| j >= 1)
                    .ok_or_else(|| "--jobs expects a positive integer".to_string())?
            }
            "--seed" => {
                let s = it.next().ok_or("--seed expects a value")?;
                opts.seed = s
                    .trim_start_matches("0x")
                    .parse()
                    .or_else(|_| u64::from_str_radix(s.trim_start_matches("0x"), 16))
                    .map_err(|e| format!("bad seed {s:?}: {e}"))?;
            }
            "--json" => {
                opts.json = Some(
                    it.next()
                        .ok_or_else(|| "--json expects a path".to_string())?
                        .clone(),
                )
            }
            "--help" => {
                print!("{HELP}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(opts)
}

/// Net heap bytes one idle group costs per member: build a probe node,
/// join `sample` groups without ever submitting, and divide the live-byte
/// delta by the group count.
fn measure_idle_group_bytes(members: usize, sample: usize) -> f64 {
    let cfg = ProtocolConfig::new(members);
    let before = CountingAlloc::live();
    let mut node = urcgc::Node::new(ProcessId(0));
    for g in 0..sample as u32 {
        node.join(GroupId(g), cfg.clone()).expect("probe group");
    }
    let after = CountingAlloc::live();
    let delta = (after - before).max(0) as f64 / sample as f64;
    drop(node);
    delta
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{HELP}");
            std::process::exit(2);
        }
    };
    let spec = MultigroupSpec {
        groups: opts.groups.unwrap_or(opts.profile.groups),
        msgs_per_group: opts.profile.msgs_per_group,
        max_rounds: opts.profile.max_rounds,
        shards: opts.jobs,
        seed: opts.seed,
        ..MultigroupSpec::default()
    };
    println!(
        "multigroup [{}]: {} groups x {} members, {} msgs/active group, \
         {} shard(s), seed {:#x}",
        opts.profile.name, spec.groups, spec.members, spec.msgs_per_group, spec.shards, spec.seed
    );

    let idle_bytes = measure_idle_group_bytes(spec.members, 512);
    let mut report = run_multigroup(&spec);
    report.idle_group_bytes = Some(idle_bytes);

    println!(
        "  {} active / {} idle groups, {} rounds, {} submissions, {} deliveries",
        report.active_groups,
        report.idle_groups,
        report.rounds,
        report.submissions,
        report.deliveries
    );
    println!(
        "  aggregate {:.0} msgs/s, latency p50 {} / p99 {} / max {} rounds",
        report.agg_msgs_per_sec,
        report.latency_p50_rounds,
        report.latency_p99_rounds,
        report.latency_max_rounds
    );
    println!(
        "  idle group residency {:.0} B/group/member; genuineness: \
         {} misrouted, {} foreign frames",
        idle_bytes, report.misrouted, report.foreign_frames
    );
    for (group, v) in &report.violations {
        match group {
            Some(g) => eprintln!("  VIOLATION [group {g}] {}: {}", v.kind.label(), v.detail),
            None => eprintln!("  VIOLATION [run] {}: {}", v.kind.label(), v.detail),
        }
    }

    if let Some(path) = &opts.json {
        let doc = report.to_json().render_pretty();
        if let Err(e) = std::fs::write(path, &doc) {
            eprintln!("error: writing {path}: {e}");
            std::process::exit(2);
        }
        println!("  wrote {path}");
    }
    if report.ok() {
        println!("  all per-group oracles green");
    } else {
        eprintln!("  FAILED: {} violation(s)", report.violations.len());
        std::process::exit(1);
    }
}
