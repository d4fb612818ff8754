//! Small-sample statistics and the process's own resource counters.

use std::fs;
use std::time::{Duration, Instant};

/// Nearest-rank quantile of an ascending slice: the `⌈q·len⌉`-th smallest
/// sample.
///
/// # Panics
/// Panics on an empty slice.
pub fn quantile_sorted<T: Copy>(sorted: &[T], q: f64) -> T {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The 50th, 90th and 99th percentiles of ascending nanosecond latencies,
/// in milliseconds.
pub fn latency_quantiles_ms(sorted_ns: &[u64]) -> [f64; 3] {
    [0.5, 0.9, 0.99].map(|q| quantile_sorted(sorted_ns, q) as f64 / 1e6)
}

/// Median of unsorted samples (mean of the middle pair for even counts).
///
/// # Panics
/// Panics on an empty slice or a NaN sample.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Lower quartile of unsorted samples (nearest rank): the reading a
/// quarter of the repetitions beat or equal.
///
/// # Panics
/// Panics on an empty slice or a NaN sample.
pub fn lower_quartile(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
    quantile_sorted(&v, 0.25)
}

/// Repeat-k summary of one timed section.
#[derive(Clone, Copy, Debug)]
pub struct Repeat {
    /// Smallest sample.
    pub min: f64,
    /// Median sample — the reported value.
    pub median: f64,
    /// Median absolute deviation from the median.
    pub mad: f64,
}

/// Summarises repeated samples of one quantity as min / median / MAD.
pub fn repeat_summary(samples: &[f64]) -> Repeat {
    let med = median(samples);
    let dev: Vec<f64> = samples.iter().map(|s| (s - med).abs()).collect();
    Repeat {
        min: samples.iter().copied().fold(f64::INFINITY, f64::min),
        median: med,
        mad: median(&dev),
    }
}

/// Fewest repetitions a closed-loop run reports the median of.
pub const MIN_REPS: usize = 3;

/// Runs `rep` again and again for about `seconds`: at least [`MIN_REPS`]
/// times, then for as long as one more repetition of the last one's
/// length still fits the budget. Closed-loop workloads repeat one seeded
/// cell and report each metric's [`lower_quartile`] over the repetitions,
/// not its median: the repetitions do identical work, so they differ only
/// by what the shared machine did to them, and in a noisy spell that slows
/// most of a run's repetitions by 10–45 %. The fastest repetition is no
/// better a witness: a quarter-second one now and then runs 20 % fast.
pub fn repeat_for<T>(
    seconds: f64,
    mut rep: impl FnMut() -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let mut reps = Vec::new();
    loop {
        let began = Instant::now();
        reps.push(rep()?);
        if reps.len() >= MIN_REPS && started.elapsed() + began.elapsed() > budget {
            return Ok(reps);
        }
    }
}

/// The failed-check line for repetitions of one seeded cell that disagree
/// on a count that must repeat exactly; `None` when they all agree.
pub fn exact_mismatch<E: PartialEq + std::fmt::Debug>(
    exacts: impl IntoIterator<Item = E>,
) -> Option<String> {
    let mut exacts = exacts.into_iter();
    let first = exacts.next()?;
    exacts
        .find(|e| *e != first)
        .map(|other| format!("exact counts differ between repetitions: {first:?} vs {other:?}"))
}

/// Interquartile range as a share of the median, with the quartiles of
/// Python's `statistics.quantiles(values, n=4)` (exclusive method) — the
/// spread the benchmark contract is judged by.
pub fn quartile_spread(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    let at = |k: usize| -> f64 {
        // Position k·(n+1)/4, 1-based, linearly interpolated and clamped.
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + frac * (v[j] - v[j - 1])
    };
    let med = median(&v);
    if med == 0.0 {
        0.0
    } else {
        (at(3) - at(1)) / med.abs()
    }
}

/// `struct timespec` of 64-bit Linux (`time_t` and `long` are both 64-bit).
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID` in `<time.h>` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// User + system CPU seconds this process has consumed, over all its
/// threads including those that have exited, at nanosecond resolution
/// (`/proc/self/stat` counts in 10 ms ticks, too coarse for a one-second
/// repetition).
pub fn process_cpu_secs() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` is the C library's, which std already links;
    // `ts` is a live, writable `timespec` of the layout the 64-bit Linux
    // ABI defines, and the call writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// Peak resident set size (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile_sorted(&v, 0.5), 50);
        assert_eq!(quantile_sorted(&v, 0.99), 99);
        assert_eq!(quantile_sorted(&v, 1.0), 100);
        assert_eq!(quantile_sorted(&v, 0.0), 1);
    }

    #[test]
    fn lower_quartile_is_the_nearest_rank() {
        assert_eq!(lower_quartile(&[4.0, 1.0, 3.0, 2.0]), 1.0);
        assert_eq!(lower_quartile(&[5.0, 4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(lower_quartile(&[7.0]), 7.0);
    }

    #[test]
    fn repeat_summary_is_robust_to_one_outlier() {
        let r = repeat_summary(&[10.0, 11.0, 9.0, 10.0, 500.0]);
        assert_eq!((r.min, r.median, r.mad), (9.0, 10.0, 1.0));
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }

    #[test]
    fn own_counters_are_readable() {
        assert!(peak_rss_mib() > 0.0);
        let before = process_cpu_secs();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(
            process_cpu_secs() > before,
            "burning CPU advances the clock"
        );
    }
}
