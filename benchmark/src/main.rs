//! One benchmark for the whole urcgc stack: wall-clock delivery over UDP,
//! CPU-bound stack and simulator runs, and a per-layer budget. The metric
//! and workload glossary is `benchmark/README.md`; the names are fixed in
//! [`metrics`] and [`workloads`].

mod alloc;
mod checks;
mod hist;
mod isolated;
mod loadgen;
mod metrics;
mod multigroup;
mod report;
#[cfg(test)]
mod selftest;
mod sim;
mod stack;
mod stats;
mod trace;
mod udp;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use report::{AllOptions, DETAIL_PREFIX};
use workloads::Workload;

#[global_allocator]
static ALLOCATOR: alloc::CountingAlloc = alloc::CountingAlloc;

/// Arguments of one workload run.
pub struct RunArgs {
    /// Workload seed: every generated input is a pure function of it.
    pub seed: u64,
    /// Length of the measured window (open loop) or time budget for
    /// repetitions (closed loop), in seconds.
    pub seconds: f64,
    /// Whether to collect per-layer metrics (the traced run).
    pub trace: bool,
    /// Shrunk sizes, for the self-test.
    pub quick: bool,
    /// Where the traced run writes its span file, if anywhere.
    pub out_dir: Option<PathBuf>,
}

const HELP: &str = "\
urcgc-benchmark — end-to-end and per-layer benchmark of the urcgc stack

USAGE:
  urcgc-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--quick]
      Run one workload. Prints a table on stderr and, as the last line of
      stdout, {\"correct\",\"attempted\",\"failed\",\"metrics\"}: the end-to-end
      metrics with --trace 0, the per-layer metrics with --trace 1.
      Exits non-zero when a correctness check fails.
  urcgc-benchmark all [--seed N] [--seconds S] [--runs R] [--quick] --json OUT
      Every workload, each run in its own child process: R untraced runs on
      seeds N, N+1, … plus one traced run. Writes one urcgc-benchmark/1
      document. Exits non-zero when any check fails.
  urcgc-benchmark compare A.json B.json
      Per workload x end-to-end metric: both medians, B/A, the bound and
      ok / regressed / unresolved. Exits non-zero on a regression.
  urcgc-benchmark list
      Workload names, one per line.
  urcgc-benchmark benchmark-json
      The root BENCHMARK.json, generated from the metric catalogue.
";

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name) {
        None => Ok(default),
        Some(raw) => raw
            .parse()
            .map_err(|_| format!("{name}: cannot read {raw:?}")),
    }
}

fn run_one(args: &[String]) -> Result<bool, String> {
    let name = flag(args, "--workload").ok_or("missing --workload")?;
    let workload = Workload::from_name(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seconds: f64 = parsed(args, "--seconds", report::RUN_SECONDS as f64)?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} outside (0, 600]"));
    }
    let run = RunArgs {
        seed: parsed(args, "--seed", 1)?,
        seconds,
        trace: match flag(args, "--trace").unwrap_or("0") {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
        },
        quick: args.iter().any(|a| a == "--quick"),
        out_dir: Some(PathBuf::from("benchmark/out")),
    };
    let outcome = workload.run(&run)?;
    eprint!("{}", report::table(workload, &outcome, run.trace));
    println!("{DETAIL_PREFIX}{}", outcome.detail.render());
    println!("{}", report::result_line(&outcome, run.trace).render());
    Ok(outcome.problems.is_empty())
}

fn run_all(args: &[String]) -> Result<bool, String> {
    let out = flag(args, "--json").ok_or("all: missing --json OUT")?;
    let opts = AllOptions {
        seed: parsed(args, "--seed", 1)?,
        seconds: parsed(args, "--seconds", report::RUN_SECONDS as f64)?,
        runs: parsed(args, "--runs", 3)?,
        quick: args.iter().any(|a| a == "--quick"),
    };
    if opts.runs == 0 {
        return Err("--runs must be at least 1".into());
    }
    let (doc, ok) = report::run_all(&opts)?;
    std::fs::write(out, doc.render_pretty()).map_err(|e| format!("{out}: {e}"))?;
    eprintln!("wrote {out}");
    Ok(ok)
}

fn compare(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err("compare takes exactly two documents".into());
    };
    let load = |path: &String| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        urcgc_metrics::json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (table, regressed) = report::compare(&load(a)?, &load(b)?)?;
    print!("{table}");
    Ok(!regressed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("all") => run_all(&args[1..]),
        Some("compare") => compare(&args[1..]),
        Some("benchmark-json") => {
            print!("{}", report::benchmark_json().render_pretty());
            Ok(true)
        }
        Some("list") => {
            for w in Workload::ALL {
                println!("{}", w.name());
            }
            Ok(true)
        }
        Some("--help") | Some("-h") | None => {
            print!("{HELP}");
            Ok(true)
        }
        Some(_) => run_one(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("urcgc-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
