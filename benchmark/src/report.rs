//! Output: the one-line result the benchmark contract reads, the
//! `urcgc-benchmark/1` document of a whole set of runs, and `compare`.

use std::process::Command;
use std::time::Instant;

use urcgc_metrics::{Json, Schema};

use crate::metrics::{Better, MetricSpec, Outcome, END_TO_END, PER_LAYER};
use crate::stats::{median, quartile_spread};
use crate::workloads::Workload;

/// Schema of the document `all` writes.
pub const SCHEMA: Schema = Schema::new("urcgc-benchmark", 1);

/// Prefix of the stdout line carrying a run's parameters and exact counts
/// (printed before the result line, which must stay last).
pub const DETAIL_PREFIX: &str = "detail ";

/// Seconds one contract run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 20;

/// The root `BENCHMARK.json`, generated from the catalogue so the two
/// cannot drift (a test compares the committed file with this).
pub fn benchmark_json() -> Json {
    let metric = |m: &MetricSpec| {
        let entry = Json::obj()
            .with("name", m.name)
            .with("unit", m.unit)
            .with("better", m.better.label());
        match m.bound {
            Some(bound) => entry.with("bound", bound),
            None => entry,
        }
    };
    let workloads: Vec<Json> = Workload::ALL
        .iter()
        .map(|w| Json::obj().with("name", w.name()).with("why", w.why()))
        .collect();
    Json::obj()
        .with(
            "command",
            Json::Arr(vec!["bash".into(), "benchmark/run.sh".into()]),
        )
        .with("paths", Json::Arr(vec!["benchmark".into()]))
        .with("run_seconds", RUN_SECONDS)
        .with("workloads", Json::Arr(workloads))
        .with(
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(metric).collect()),
        )
        .with(
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(metric).collect()),
        )
}

/// The metrics a run prints: end-to-end on an untraced run, per-layer on
/// a traced one.
fn printed(trace: bool) -> &'static [MetricSpec] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

fn value_of(outcome: &Outcome, spec: &MetricSpec, trace: bool) -> f64 {
    if trace {
        outcome.layers.get(spec.name)
    } else {
        outcome.end_to_end(spec.name)
    }
}

/// The result object: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(outcome: &Outcome, trace: bool) -> Json {
    let metrics: Vec<(String, Json)> = printed(trace)
        .iter()
        .map(|m| {
            let entry = Json::obj()
                .with("value", value_of(outcome, m, trace))
                .with("unit", m.unit);
            (m.name.to_string(), entry)
        })
        .collect();
    Json::obj()
        .with("correct", outcome.problems.is_empty())
        .with("attempted", outcome.attempted)
        .with("failed", outcome.failed)
        .with("metrics", Json::Obj(metrics))
}

/// Human-readable table of one run, for stderr.
pub fn table(workload: Workload, outcome: &Outcome, trace: bool) -> String {
    let mut out = format!(
        "{}: attempted {} failed {} ({})\n",
        workload.name(),
        outcome.attempted,
        outcome.failed,
        if outcome.problems.is_empty() {
            "all checks passed"
        } else {
            "CHECKS FAILED"
        }
    );
    for p in &outcome.problems {
        out.push_str(&format!("  ! {p}\n"));
    }
    for m in printed(trace) {
        let v = value_of(outcome, m, trace);
        out.push_str(&format!("  {:<40} {:>16.4} {}\n", m.name, v, m.unit));
    }
    out
}

/// Runs one workload in a child process of this executable and returns
/// `(result line, detail, wall seconds)`.
fn child_run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
) -> Result<(Json, Json, f64), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if quick {
        cmd.arg("--quick");
    }
    let started = Instant::now();
    let output = cmd.output().map_err(|e| e.to_string())?;
    let wall = started.elapsed().as_secs_f64();
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut detail = Json::obj();
    let mut result = None;
    for line in stdout.lines() {
        if let Some(rest) = line.strip_prefix(DETAIL_PREFIX) {
            detail = urcgc_metrics::json::parse(rest)?;
        } else if line.starts_with('{') {
            result = Some(urcgc_metrics::json::parse(line)?);
        }
    }
    let result = result.ok_or_else(|| {
        format!(
            "{} printed no result (exit {:?}): {}",
            workload.name(),
            output.status.code(),
            String::from_utf8_lossy(&output.stderr)
        )
    })?;
    Ok((result, detail, wall))
}

fn metric_value(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn machine_note() -> Json {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .unwrap_or_default()
            .trim()
            .to_string()
    };
    Json::obj()
        .with(
            "nproc",
            std::thread::available_parallelism().map_or(0, usize::from),
        )
        .with("kernel", read("/proc/sys/kernel/osrelease"))
        .with("link", "host loopback only")
}

/// Options of the `all` subcommand.
pub struct AllOptions {
    /// First seed; run `i` of a workload uses `seed + i`.
    pub seed: u64,
    /// Measured seconds per run.
    pub seconds: f64,
    /// Untraced runs per workload.
    pub runs: usize,
    /// Shrunk sizes.
    pub quick: bool,
}

/// Runs every workload (`runs` untraced runs on consecutive seeds plus one
/// traced run, each in its own child process) and returns the
/// `urcgc-benchmark/1` document and whether every check passed.
pub fn run_all(opts: &AllOptions) -> Result<(Json, bool), String> {
    let started = Instant::now();
    let mut all_ok = true;
    let mut workloads = Vec::new();
    for w in Workload::ALL {
        let mut wall = 0.0;
        let (mut attempted, mut failed, mut correct) = (0.0, 0.0, true);
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
        let mut detail = Json::obj();
        for i in 0..opts.runs {
            let seed = opts.seed + i as u64;
            let (result, d, secs) = child_run(w, seed, opts.seconds, false, opts.quick)?;
            wall += secs;
            attempted += result
                .get("attempted")
                .and_then(Json::as_f64)
                .unwrap_or(0.0);
            failed += result.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
            correct &= result
                .get("correct")
                .and_then(Json::as_bool)
                .unwrap_or(false);
            for (slot, m) in values.iter_mut().zip(END_TO_END) {
                slot.push(
                    metric_value(&result, m.name)
                        .ok_or_else(|| format!("{}: result lacks {}", w.name(), m.name))?,
                );
            }
            if i == 0 {
                detail = d;
            }
            eprintln!("{} seed {seed}: {}", w.name(), result.render());
        }
        let (traced, traced_detail, secs) =
            child_run(w, opts.seed, opts.seconds, true, opts.quick)?;
        wall += secs;
        correct &= traced
            .get("correct")
            .and_then(Json::as_bool)
            .unwrap_or(false);
        all_ok &= correct && failed == 0.0;

        let end_to_end: Vec<(String, Json)> = END_TO_END
            .iter()
            .zip(&values)
            .map(|(m, v)| {
                let entry = Json::obj()
                    .with("unit", m.unit)
                    .with("better", m.better.label())
                    .with("bound", m.bound.expect("end-to-end metrics carry a bound"))
                    .with("median", median(v))
                    .with("spread", quartile_spread(v))
                    .with("values", Json::Arr(v.iter().map(|&x| x.into()).collect()));
                (m.name.to_string(), entry)
            })
            .collect();
        let per_layer: Vec<(String, Json)> = PER_LAYER
            .iter()
            .map(|m| {
                let entry = Json::obj()
                    .with("unit", m.unit)
                    .with("value", metric_value(&traced, m.name).unwrap_or(0.0));
                (m.name.to_string(), entry)
            })
            .collect();
        workloads.push(
            Json::obj()
                .with("name", w.name())
                .with("why", w.why())
                .with("params", detail)
                .with("seed", opts.seed)
                .with("runs", opts.runs)
                .with("wall_s", wall)
                .with("correct", correct)
                .with("attempted", attempted)
                .with("failed", failed)
                .with("failed_share", failed / attempted.max(1.0))
                .with("end_to_end", Json::Obj(end_to_end))
                .with("per_layer", Json::Obj(per_layer))
                .with(
                    "isolated_sections",
                    traced_detail
                        .get("isolated_sections")
                        .cloned()
                        .unwrap_or(Json::Null),
                ),
        );
    }
    let doc = SCHEMA.tag(
        Json::obj()
            .with("seed", opts.seed)
            .with("run_seconds", opts.seconds)
            .with("quick", opts.quick)
            .with("machine", machine_note())
            .with("total_wall_s", started.elapsed().as_secs_f64())
            .with("workloads", Json::Arr(workloads)),
    );
    Ok((doc, all_ok))
}

/// Verdict of one workload × end-to-end metric comparison.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// The run-to-run spread of A or B is wider than the bound, so the
    /// medians cannot be told apart at that resolution.
    Unresolved,
}

/// By what share of A's median B is worse (negative = better).
fn worse_share(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// Judges B against A for one metric, given each side's runs.
pub fn judge(spec: &MetricSpec, a: &[f64], b: &[f64]) -> Verdict {
    let bound = spec.bound.expect("end-to-end metrics carry a bound");
    let all_better = a
        .iter()
        .all(|&x| b.iter().all(|&y| worse_share(spec.better, x, y) < 0.0));
    if (quartile_spread(a) > bound || quartile_spread(b) > bound) && !all_better {
        Verdict::Unresolved
    } else if worse_share(spec.better, median(a), median(b)) > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn runs_of(doc: &Json, workload: &str, metric: &str) -> Option<Vec<f64>> {
    let w = doc
        .get("workloads")?
        .items()?
        .iter()
        .find(|w| w.get("name").and_then(Json::as_str) == Some(workload))?;
    let values = w.get("end_to_end")?.get(metric)?.get("values")?.items()?;
    values.iter().map(Json::as_f64).collect()
}

/// Compares two `urcgc-benchmark/1` documents (A = base, B = candidate):
/// one row per workload × end-to-end metric. Returns the table and whether
/// any row regressed.
pub fn compare(a: &Json, b: &Json) -> Result<(String, bool), String> {
    SCHEMA.expect(a)?;
    SCHEMA.expect(b)?;
    let mut out = format!(
        "{:<18} {:<20} {:>14} {:>14} {:>9} {:>7}  verdict\n",
        "workload", "metric", "A median", "B median", "B/A", "bound"
    );
    let mut regressed = false;
    for w in Workload::ALL {
        for m in END_TO_END {
            let (Some(va), Some(vb)) = (runs_of(a, w.name(), m.name), runs_of(b, w.name(), m.name))
            else {
                return Err(format!("{} / {} missing from a document", w.name(), m.name));
            };
            if va.is_empty() || vb.is_empty() {
                return Err(format!("{} / {} has no runs", w.name(), m.name));
            }
            let verdict = judge(m, &va, &vb);
            regressed |= verdict == Verdict::Regressed;
            let (ma, mb) = (median(&va), median(&vb));
            out.push_str(&format!(
                "{:<18} {:<20} {:>14.4} {:>14.4} {:>9.4} {:>6.0}%  {}\n",
                w.name(),
                m.name,
                ma,
                mb,
                mb / ma,
                m.bound.unwrap_or(0.0) * 100.0,
                match verdict {
                    Verdict::Ok => "ok".to_string(),
                    Verdict::Regressed => format!(
                        "regressed ({:+.1}% of A = {ma:.4} {})",
                        worse_share(m.better, ma, mb) * 100.0,
                        m.unit
                    ),
                    Verdict::Unresolved => format!(
                        "unresolved (spread A {:.1}% B {:.1}%)",
                        quartile_spread(&va) * 100.0,
                        quartile_spread(&vb) * 100.0
                    ),
                }
            ));
        }
    }
    Ok((out, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::spec;

    #[test]
    fn judge_separates_ok_regressed_and_unresolved() {
        let lat = spec("deliver_all_p50_ms").unwrap(); // lower is better, 25 %
        let rate = spec("msgs_per_s").unwrap(); // higher is better, 25 %
        let steady = [10.0, 10.1, 9.9, 10.0, 10.05];
        assert_eq!(
            judge(lat, &steady, &[10.5, 10.4, 10.6, 10.5, 10.5]),
            Verdict::Ok
        );
        assert_eq!(
            judge(lat, &steady, &[13.5, 13.4, 13.6, 13.5, 13.5]),
            Verdict::Regressed
        );
        // Faster by any amount is never a regression.
        assert_eq!(judge(lat, &steady, &[5.0, 5.1, 4.9, 5.0, 5.0]), Verdict::Ok);
        assert_eq!(
            judge(rate, &steady, &[7.0, 7.1, 6.9, 7.0, 7.0]),
            Verdict::Regressed
        );
        assert_eq!(
            judge(rate, &steady, &[8.5, 8.4, 8.6, 8.5, 8.5]),
            Verdict::Ok
        );
        // A spread wider than the bound hides the medians' difference …
        let noisy = [8.0, 14.0, 9.0, 13.0, 10.0];
        assert_eq!(judge(lat, &steady, &noisy), Verdict::Unresolved);
        // … unless every run of B beats every run of A.
        assert_eq!(
            judge(lat, &[20.0, 30.0, 22.0, 29.0, 25.0], &steady),
            Verdict::Ok
        );
    }

    #[test]
    fn compare_reads_documents_and_flags_regressions() {
        let doc = |p50: f64| {
            let workloads: Vec<Json> = Workload::ALL
                .iter()
                .map(|w| {
                    let metrics: Vec<(String, Json)> = END_TO_END
                        .iter()
                        .map(|m| {
                            let v = if m.name == "deliver_all_p50_ms" {
                                p50
                            } else {
                                7.0
                            };
                            let values = Json::Arr(vec![v.into(), (v * 1.01).into()]);
                            (m.name.to_string(), Json::obj().with("values", values))
                        })
                        .collect();
                    Json::obj()
                        .with("name", w.name())
                        .with("end_to_end", Json::Obj(metrics))
                })
                .collect();
            SCHEMA.tag(Json::obj().with("workloads", Json::Arr(workloads)))
        };
        let (table, regressed) = compare(&doc(3.0), &doc(3.1)).unwrap();
        assert!(!regressed, "{table}");
        let (table, regressed) = compare(&doc(3.0), &doc(4.5)).unwrap();
        assert!(regressed && table.contains("regressed"), "{table}");
        assert!(
            compare(&Json::obj(), &doc(3.0)).is_err(),
            "schema is checked"
        );
    }
}
