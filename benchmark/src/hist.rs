//! Log-bucket histogram for span durations.
//!
//! The traced run records millions of spans; keeping every sample would
//! dominate the run's memory. Values (nanoseconds) fall into buckets whose
//! width doubles every octave, each octave cut into [`SUB`] linear
//! sub-buckets, so a reported quantile is within `1/SUB` of the true
//! sample (the unit test pins that against a sorted-vector oracle).
//! End-to-end latency percentiles do **not** go through this type: their
//! sample counts are small enough to sort exactly ([`crate::stats`]).

/// Linear sub-buckets per octave (relative quantile error ≤ 1/SUB).
const SUB: u64 = 64;
const SUB_BITS: u32 = SUB.trailing_zeros();
/// Octaves above the linear range: covers values up to 2^(SUB_BITS+OCTAVES).
const OCTAVES: usize = 40;

/// Count / sum / log-bucket distribution of one span kind.
#[derive(Clone)]
pub struct LogHist {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for LogHist {
    fn default() -> LogHist {
        LogHist {
            buckets: vec![0; (OCTAVES + 1) * SUB as usize],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

/// Bucket of `v`: values below `2·SUB` map one to one (the first two
/// rows); above that, row `r` holds `[SUB·2^(r−1), SUB·2^r)` in `SUB`
/// equal slices.
fn index(v: u64) -> usize {
    if v < 2 * SUB {
        return v as usize;
    }
    let shift = 63 - v.leading_zeros() - SUB_BITS;
    let row = (shift as usize + 1).min(OCTAVES);
    let sub = ((v >> shift) - SUB).min(SUB - 1);
    row * SUB as usize + sub as usize
}

/// Smallest value that maps to bucket `i`.
fn lower_bound(i: usize) -> u64 {
    let (row, sub) = ((i as u64) / SUB, (i as u64) % SUB);
    if row == 0 {
        sub
    } else {
        (SUB + sub) << (row - 1)
    }
}

impl LogHist {
    /// Adds one sample.
    pub fn record(&mut self, v: u64) {
        self.buckets[index(v)] += 1;
        self.count += 1;
        self.sum += v;
        self.max = self.max.max(v);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Nearest-rank quantile: the lower bound of the bucket holding the
    /// `⌈q·count⌉`-th smallest sample (0 when empty). The top sample is
    /// reported exactly.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        if rank == self.count {
            return self.max;
        }
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return lower_bound(i);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::quantile_sorted;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn bucket_bounds_are_consistent() {
        for v in (0..4096u64).chain([1 << 20, (1 << 33) + 12345, u64::MAX >> 20]) {
            let i = index(v);
            assert!(lower_bound(i) <= v, "lower bound of bucket {i} above {v}");
            if i + 1 < (OCTAVES + 1) * SUB as usize {
                assert!(v < lower_bound(i + 1), "{v} beyond bucket {i}");
            }
        }
    }

    #[test]
    fn quantiles_track_a_sorted_vector_oracle() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut hist = LogHist::default();
        // Heavy-tailed durations like span times: mostly small, rare large.
        let mut samples: Vec<u64> = (0..50_000)
            .map(|_| {
                let octave = rng.gen_range(0..24u32);
                rng.gen_range(0..(1u64 << octave).max(2)) + 40
            })
            .collect();
        for &s in &samples {
            hist.record(s);
        }
        samples.sort_unstable();
        assert_eq!(hist.count(), samples.len() as u64);
        assert_eq!(hist.sum(), samples.iter().sum::<u64>());
        for q in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let exact = quantile_sorted(&samples, q);
            let approx = hist.quantile(q);
            assert!(approx <= exact, "q={q}: {approx} above exact {exact}");
            let err = (exact - approx) as f64 / exact as f64;
            assert!(err <= 1.0 / SUB as f64, "q={q}: {approx} vs {exact}");
        }
    }

    #[test]
    fn empty_histogram_reads_zero() {
        let h = LogHist::default();
        assert_eq!((h.count(), h.sum(), h.quantile(0.5)), (0, 0, 0));
    }
}
