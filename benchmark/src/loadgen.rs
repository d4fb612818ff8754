//! Seeded open-loop arrival schedule.
//!
//! Independent users make an open loop, so the UDP workloads submit on a
//! schedule whatever the system's progress. The schedule is a Poisson
//! process *conditioned on its count*: exactly `round(rate × duration)`
//! arrival instants, independent and uniform over the window, sorted. That
//! is the distribution of a rate-`rate` Poisson process given how many
//! arrivals fell in the window, so gaps are exponential-like (no phase
//! lock with the protocol's round ticker, which a fixed gap suffers from)
//! while every seed offers the same number of messages — otherwise the
//! ±2 % Poisson count noise at 2 500 arrivals would be most of the
//! goodput metric's regression bound.

use std::time::Duration;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Arrival offsets from the window start, ascending: a pure function of
/// `(seed, rate_per_s, duration)`.
pub fn poisson_schedule(seed: u64, rate_per_s: f64, duration: Duration) -> Vec<Duration> {
    let count = (rate_per_s * duration.as_secs_f64()).round() as usize;
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x10AD_6E4E);
    let span = duration.as_nanos() as u64;
    let mut due: Vec<u64> = (0..count).map(|_| rng.gen_range(0..span.max(1))).collect();
    due.sort_unstable();
    due.into_iter().map(Duration::from_nanos).collect()
}

/// Deterministic payload of `len` bytes for message number `index`.
pub fn payload(seed: u64, index: usize, len: usize) -> bytes::Bytes {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ (index as u64).wrapping_mul(0x9E37_79B9));
    let mut body = vec![0u8; len];
    rng.fill(&mut body[..]);
    bytes::Bytes::from(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_pure_function_of_its_arguments() {
        let d = Duration::from_secs(4);
        let a = poisson_schedule(11, 250.0, d);
        assert_eq!(a, poisson_schedule(11, 250.0, d));
        assert_ne!(a, poisson_schedule(12, 250.0, d));
        assert_eq!(a.len(), 1000);
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "ascending");
        assert!(a.iter().all(|&t| t < d), "inside the window");
        // Rate and duration change the schedule, not just the seed.
        assert_eq!(poisson_schedule(11, 100.0, d).len(), 400);
        assert_eq!(poisson_schedule(11, 250.0, d / 2).len(), 500);
    }

    #[test]
    fn gaps_are_not_phase_locked() {
        // A fixed-gap schedule has one distinct gap; this one must spread
        // over well more than a round (5 ms) on both sides of the mean.
        let s = poisson_schedule(3, 250.0, Duration::from_secs(8));
        let gaps: Vec<Duration> = s.windows(2).map(|w| w[1] - w[0]).collect();
        let short = gaps
            .iter()
            .filter(|g| **g < Duration::from_millis(1))
            .count();
        let long = gaps
            .iter()
            .filter(|g| **g > Duration::from_millis(8))
            .count();
        assert!(short > gaps.len() / 10 && long > gaps.len() / 20);
    }
}
