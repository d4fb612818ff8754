//! Wall-clock surfaces for driving the engine outside the simulator.
//!
//! The [`Engine`](crate::Engine) is a sans-I/O state machine paced by
//! [`begin_round`](crate::Engine::begin_round): the simulator calls it from
//! its discrete event loop, and a real-network runtime must call it from
//! *wall-clock time*. This module is the small, testable bridge between the
//! two:
//!
//! * [`Clock`] abstracts a monotonic time source ([`WallClock`] for
//!   deployments, [`ManualClock`] for deterministic tests);
//! * [`RoundPacer`] maps elapsed wall-clock time onto the engine's round
//!   counter — including a bounded catch-up after a stall (a descheduled
//!   process owes at most one subrun, then re-anchors its cadence) and
//!   fast-forward when the group's decision stream shows the local round
//!   clock is behind;
//! * [`Deadlines`] is a tiny deadline table for timer-per-key state such
//!   as partial reassembly eviction in the UDP runtime.
//!
//! None of this is used by the simulator: simulated rounds remain the
//! loop-variable of `urcgc-simnet`, so every digest-gated document is
//! byte-identical with or without this module.

use std::time::Duration;

use urcgc_types::Round;

/// A monotonic time source, read as elapsed time since an arbitrary epoch
/// fixed at construction.
pub trait Clock {
    /// Time elapsed since this clock's epoch.
    fn now(&self) -> Duration;
}

/// The real monotonic clock ([`std::time::Instant`]-backed).
#[derive(Clone, Copy, Debug)]
pub struct WallClock {
    epoch: std::time::Instant,
}

impl WallClock {
    /// A clock whose epoch is "now".
    pub fn new() -> Self {
        WallClock {
            epoch: std::time::Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock::new()
    }
}

impl Clock for WallClock {
    fn now(&self) -> Duration {
        self.epoch.elapsed()
    }
}

/// A hand-cranked clock for deterministic tests.
#[derive(Clone, Debug, Default)]
pub struct ManualClock {
    now: std::cell::Cell<Duration>,
}

impl ManualClock {
    /// A clock stopped at its epoch.
    pub fn new() -> Self {
        ManualClock::default()
    }

    /// Advances the clock by `dt`.
    pub fn advance(&self, dt: Duration) {
        self.now.set(self.now.get() + dt);
    }

    /// Jumps the clock to an absolute elapsed time (must not go backwards).
    pub fn set(&self, t: Duration) {
        assert!(t >= self.now.get(), "ManualClock must be monotonic");
        self.now.set(t);
    }
}

impl Clock for ManualClock {
    fn now(&self) -> Duration {
        self.now.get()
    }
}

/// Maps wall-clock time onto the engine's round counter.
///
/// Rounds are consecutive and every round number is begun exactly once. A
/// process that falls behind by less than two periods (slow peer handling,
/// a short deschedule) catches up back to back, so the cadence does not
/// drift. A longer stall (GC pause, `SIGSTOP`, an overloaded host) owes at
/// most one subrun — two rounds back to back — and then the cadence is
/// re-anchored at the time of the poll: the rounds the process slept
/// through are [skipped](RoundPacer::skipped), not replayed. Replaying
/// them would run `K` subruns' worth of coordinator rounds with no request
/// exchanged, and `K`-subrun failure detection would expel healthy
/// members for the scheduler's sake. A round slept through charges nothing
/// locally; the next adopted decision tells the process which round the
/// group is in.
///
/// [`fast_forward`](RoundPacer::fast_forward) additionally lets a runtime
/// adopt the group's subrun clock: independently started OS processes boot
/// at round 0, and the first coordinator decision they receive tells them
/// which round the group is actually in.
#[derive(Clone, Debug)]
pub struct RoundPacer {
    period: Duration,
    /// Next round to hand out.
    next: u64,
    /// Wall-clock deadline at which `next` becomes due.
    due: Duration,
    /// Rounds dropped by re-anchoring after stalls.
    skipped: u64,
}

impl RoundPacer {
    /// A pacer that makes round 0 due `period` after `now`.
    pub fn new(now: Duration, period: Duration) -> Self {
        assert!(!period.is_zero(), "round period must be positive");
        RoundPacer {
            period,
            next: 0,
            due: now + period,
            skipped: 0,
        }
    }

    /// The round cadence.
    pub fn period(&self) -> Duration {
        self.period
    }

    /// The next round this pacer will emit.
    pub fn next_round(&self) -> Round {
        Round(self.next)
    }

    /// Returns the next due round, or `None` if no round is due at `now`.
    /// Call in a loop: at most two rounds are handed out back to back. When
    /// more than two are owed, the excess is counted as skipped and the
    /// round after the second is due one period after `now`.
    pub fn poll(&mut self, now: Duration) -> Option<Round> {
        if now < self.due {
            return None;
        }
        let owed = (now - self.due).as_nanos() / self.period.as_nanos() + 1;
        if owed > 2 {
            self.skipped += (owed - 2) as u64;
            self.due = now - self.period;
        }
        let round = Round(self.next);
        self.next += 1;
        self.due += self.period;
        Some(round)
    }

    /// Rounds dropped so far by re-anchoring after stalls.
    pub fn skipped(&self) -> u64 {
        self.skipped
    }

    /// How long until the next round is due (zero if already due).
    pub fn until_due(&self, now: Duration) -> Duration {
        self.due.saturating_sub(now)
    }

    /// Jumps the pacer forward so the next emitted round is at least
    /// `round` (no-op if already past it). Used when a received decision
    /// shows the group's round clock is ahead of ours; never rewinds.
    pub fn fast_forward(&mut self, round: Round) {
        if round.0 > self.next {
            self.next = round.0;
        }
    }
}

/// A small deadline table: each key owes an action at an absolute
/// [`Clock`] time; [`expired`](Deadlines::expired) drains everything due.
///
/// Used by the UDP runtime to evict partially reassembled frames whose
/// remaining fragments were lost on the wire (the urcgc layer re-recovers
/// the payload from history, so eviction is safe — holding the partial
/// forever would leak).
#[derive(Clone, Debug, Default)]
pub struct Deadlines<K: Ord + Clone> {
    by_key: std::collections::BTreeMap<K, Duration>,
}

impl<K: Ord + Clone> Deadlines<K> {
    /// An empty table.
    pub fn new() -> Self {
        Deadlines {
            by_key: std::collections::BTreeMap::new(),
        }
    }

    /// Arms (or re-arms) `key` to expire at `deadline`.
    pub fn arm(&mut self, key: K, deadline: Duration) {
        self.by_key.insert(key, deadline);
    }

    /// Disarms `key` (no-op if absent).
    pub fn disarm(&mut self, key: &K) {
        self.by_key.remove(key);
    }

    /// Removes and returns every key whose deadline is `<= now`, in key
    /// order (deterministic for tests).
    pub fn expired(&mut self, now: Duration) -> Vec<K> {
        let due: Vec<K> = self
            .by_key
            .iter()
            .filter(|(_, &d)| d <= now)
            .map(|(k, _)| k.clone())
            .collect();
        for k in &due {
            self.by_key.remove(k);
        }
        due
    }

    /// Armed-key count.
    pub fn len(&self) -> usize {
        self.by_key.len()
    }

    /// Whether no key is armed.
    pub fn is_empty(&self) -> bool {
        self.by_key.is_empty()
    }

    /// The earliest armed deadline, if any (for sizing poll timeouts).
    pub fn next_deadline(&self) -> Option<Duration> {
        self.by_key.values().min().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: Duration = Duration::from_millis(1);

    #[test]
    fn pacer_emits_consecutive_rounds_on_cadence() {
        let mut p = RoundPacer::new(Duration::ZERO, 10 * MS);
        assert_eq!(p.poll(5 * MS), None);
        assert_eq!(p.poll(10 * MS), Some(Round(0)));
        assert_eq!(p.poll(10 * MS), None, "round 1 not due yet");
        assert_eq!(p.poll(20 * MS), Some(Round(1)));
        assert_eq!(p.next_round(), Round(2));
    }

    #[test]
    fn pacer_owes_at_most_one_subrun_after_a_stall() {
        let mut p = RoundPacer::new(Duration::ZERO, 10 * MS);
        // A 55 ms stall would owe rounds 0..=4: two are handed out back to
        // back, the other three are skipped, and the cadence restarts.
        let now = 55 * MS;
        let mut got = Vec::new();
        while let Some(r) = p.poll(now) {
            got.push(r.0);
        }
        assert_eq!(got, vec![0, 1]);
        assert_eq!(p.skipped(), 3);
        assert_eq!(p.poll(64 * MS), None, "re-anchored at the poll");
        assert_eq!(p.until_due(60 * MS), 5 * MS);
        assert_eq!(p.poll(65 * MS), Some(Round(2)));
        assert_eq!(p.poll(75 * MS), Some(Round(3)));
    }

    #[test]
    fn pacer_keeps_its_cadence_through_a_stall_under_two_periods() {
        let mut p = RoundPacer::new(Duration::ZERO, 10 * MS);
        assert_eq!(p.poll(10 * MS), Some(Round(0)));
        // 9 ms late: round 1 only, and round 2 keeps its original slot.
        assert_eq!(p.poll(29 * MS), Some(Round(1)));
        assert_eq!(p.poll(29 * MS), None);
        assert_eq!(p.poll(30 * MS), Some(Round(2)));
        // 15 ms late: rounds 3 and 4 back to back, nothing skipped.
        assert_eq!(p.poll(55 * MS), Some(Round(3)));
        assert_eq!(p.poll(55 * MS), Some(Round(4)));
        assert_eq!(p.poll(55 * MS), None);
        assert_eq!(p.poll(60 * MS), Some(Round(5)));
        assert_eq!(p.skipped(), 0);
    }

    #[test]
    fn pacer_fast_forward_never_rewinds() {
        let mut p = RoundPacer::new(Duration::ZERO, 10 * MS);
        p.fast_forward(Round(7));
        assert_eq!(p.next_round(), Round(7));
        p.fast_forward(Round(3));
        assert_eq!(p.next_round(), Round(7), "fast_forward never rewinds");
        assert_eq!(p.poll(10 * MS), Some(Round(7)));
    }

    #[test]
    fn pacer_until_due_saturates() {
        let p = RoundPacer::new(Duration::ZERO, 10 * MS);
        assert_eq!(p.until_due(2 * MS), 8 * MS);
        assert_eq!(p.until_due(20 * MS), Duration::ZERO);
    }

    #[test]
    fn manual_clock_advances_and_rejects_rewind() {
        let c = ManualClock::new();
        assert_eq!(c.now(), Duration::ZERO);
        c.advance(5 * MS);
        c.set(9 * MS);
        assert_eq!(c.now(), 9 * MS);
    }

    #[test]
    #[should_panic(expected = "monotonic")]
    fn manual_clock_set_backwards_panics() {
        let c = ManualClock::new();
        c.advance(5 * MS);
        c.set(2 * MS);
    }

    #[test]
    fn wall_clock_is_monotonic() {
        let c = WallClock::new();
        let a = c.now();
        let b = c.now();
        assert!(b >= a);
    }

    #[test]
    fn deadlines_expire_in_key_order_and_disarm() {
        let mut d: Deadlines<u32> = Deadlines::new();
        d.arm(3, 10 * MS);
        d.arm(1, 10 * MS);
        d.arm(2, 30 * MS);
        assert_eq!(d.next_deadline(), Some(10 * MS));
        assert_eq!(d.expired(5 * MS), Vec::<u32>::new());
        assert_eq!(d.expired(10 * MS), vec![1, 3]);
        assert_eq!(d.len(), 1);
        d.disarm(&2);
        assert!(d.is_empty());
        assert_eq!(d.next_deadline(), None);
    }

    #[test]
    fn deadlines_rearm_replaces() {
        let mut d: Deadlines<&'static str> = Deadlines::new();
        d.arm("x", 10 * MS);
        d.arm("x", 50 * MS);
        assert_eq!(d.expired(20 * MS), Vec::<&str>::new());
        assert_eq!(d.expired(50 * MS), vec!["x"]);
    }
}
