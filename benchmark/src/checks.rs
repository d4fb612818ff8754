//! Delivery correctness shared by the UDP workloads and the inline stack
//! driver: a run whose members disagree may not report a number.
//!
//! `urcgc_runtime::check_delivery_log` wants each member's whole log with
//! cloned dependency lists — one heap allocation per delivery, inside the
//! loop `stack_saturated` times, and ~10⁶ entries per repetition. This is
//! the same verdict kept as running state: O(n) per member, no allocation
//! per delivery. The unit tests pin it to `check_delivery_log` and
//! `order_digests`; the cross-member comparison is the repository's own
//! [`check_cluster`].

use urcgc::ProcessStatus;
use urcgc_check::{check_cluster, NodeObservation};
use urcgc_metrics::Json;
use urcgc_types::{DataMsg, Fnv64};

/// One member's deliveries, folded as they happen.
pub struct MemberCheck {
    /// Per-origin contiguous processed frontier.
    frontier: Vec<u64>,
    /// Per-origin FNV-1a digest of delivered sequence numbers in local
    /// order — `urcgc_runtime::order_digests`, incrementally.
    digest: Vec<Fnv64>,
    delivered: u64,
    /// First local ordering offence, if any.
    fault: Option<String>,
}

impl MemberCheck {
    /// A member of a group of `n` that has delivered nothing.
    pub fn new(n: usize) -> MemberCheck {
        MemberCheck {
            frontier: vec![0; n],
            digest: vec![Fnv64::new(); n],
            delivered: 0,
            fault: None,
        }
    }

    /// Folds one delivery. Uniform Ordering's local obligations: each
    /// origin's sequence numbers arrive in order without duplicate or gap
    /// (urcgc processes per-origin prefixes; orphan elimination destroys
    /// suffixes, never holes), and every declared cause was delivered
    /// first.
    pub fn on_deliver(&mut self, msg: &DataMsg) {
        self.delivered += 1;
        let origin = msg.mid.origin.index();
        if origin >= self.frontier.len() {
            self.fault
                .get_or_insert_with(|| format!("delivered {} from outside the group", msg.mid));
            return;
        }
        if msg.mid.seq != self.frontier[origin] + 1 {
            self.fault.get_or_insert_with(|| {
                format!(
                    "processed {} after p{}#{}",
                    msg.mid, origin, self.frontier[origin]
                )
            });
        }
        for dep in &msg.deps {
            let seen = self.frontier.get(dep.origin.index()).copied().unwrap_or(0);
            if dep.seq > seen {
                self.fault
                    .get_or_insert_with(|| format!("processed {} before its cause {dep}", msg.mid));
            }
        }
        self.frontier[origin] = self.frontier[origin].max(msg.mid.seq);
        self.digest[origin].update(&msg.mid.seq.to_le_bytes());
    }

    /// Per-origin order digests so far.
    pub fn digests(&self) -> Vec<u64> {
        self.digest.iter().map(Fnv64::finish).collect()
    }
}

/// Order digests as hex strings (JSON numbers would round 64-bit values).
pub fn digests_json(digests: &[u64]) -> Json {
    Json::Arr(
        digests
            .iter()
            .map(|d| format!("{d:#018x}").into())
            .collect(),
    )
}

/// Runs the repository's end-of-run oracles over what every member
/// delivered: each member's own ordering verdict, every member still
/// `Active`, and equal frontiers and per-origin order digests across
/// members ([`check_cluster`]). `quiesced` says whether the workload saw
/// every message delivered everywhere. Returns one line per failed check.
pub fn check_members(
    members: &[MemberCheck],
    statuses: &[ProcessStatus],
    submitted: &[u64],
    quiesced: bool,
) -> Vec<String> {
    let mut problems = Vec::new();
    let observations: Vec<NodeObservation> = members
        .iter()
        .enumerate()
        .map(|(m, c)| {
            if !statuses[m].is_active() {
                problems.push(format!("member {m} ended {:?}", statuses[m]));
            }
            NodeObservation {
                me: m as u16,
                status: format!("{:?}", statuses[m]),
                quiesced,
                submitted: submitted[m],
                delivered: c.delivered,
                frontier: c.frontier.clone(),
                order_digest: c.digests(),
                ordering_ok: c.fault.is_none(),
                ordering_detail: c.fault.clone(),
            }
        })
        .collect();
    problems.extend(
        check_cluster(&observations)
            .into_iter()
            .map(|v| format!("{:?}: {}", v.kind, v.detail)),
    );
    problems
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use urcgc_runtime::{check_delivery_log, order_digests};
    use urcgc_types::{Mid, ProcessId, Round};

    fn msg(p: u16, s: u64, deps: &[(u16, u64)]) -> DataMsg {
        DataMsg {
            mid: Mid::new(ProcessId(p), s),
            deps: deps
                .iter()
                .map(|&(p, s)| Mid::new(ProcessId(p), s))
                .collect(),
            round: Round(0),
            payload: Bytes::new(),
        }
    }

    fn fold(n: usize, log: &[DataMsg]) -> MemberCheck {
        let mut c = MemberCheck::new(n);
        log.iter().for_each(|m| c.on_deliver(m));
        c
    }

    /// The streaming verdict and digests against the repository's
    /// whole-log functions, on a good log and on each kind of bad one.
    #[test]
    fn agrees_with_the_whole_log_oracles() {
        let good = vec![
            msg(0, 1, &[]),
            msg(1, 1, &[(0, 1)]),
            msg(0, 2, &[(0, 1)]),
            msg(1, 2, &[(1, 1), (0, 2)]),
        ];
        let duplicate = vec![msg(0, 1, &[]), msg(0, 1, &[])];
        let reordered = vec![msg(0, 2, &[]), msg(0, 1, &[])];
        let cause_late = vec![msg(1, 1, &[(0, 1)]), msg(0, 1, &[])];
        for (log, ok) in [
            (&good, true),
            (&duplicate, false),
            (&reordered, false),
            (&cause_late, false),
        ] {
            let pairs: Vec<(Mid, Vec<Mid>)> = log.iter().map(|m| (m.mid, m.deps.clone())).collect();
            let mids: Vec<Mid> = log.iter().map(|m| m.mid).collect();
            let c = fold(2, log);
            assert_eq!(check_delivery_log(&pairs).0, ok);
            assert_eq!(c.fault.is_none(), ok, "{:?}", c.fault);
            assert_eq!(c.digests(), order_digests(2, &mids));
        }
    }

    #[test]
    fn agreeing_members_pass_and_divergent_members_fail() {
        let log = vec![msg(0, 1, &[]), msg(1, 1, &[(0, 1)])];
        let active = [ProcessStatus::Active; 2];
        let pair = |other: &[DataMsg]| [fold(2, &log), fold(2, other)];
        assert!(check_members(&pair(&log), &active, &[1, 1], true).is_empty());
        // One member short of the other: frontiers diverge.
        assert!(!check_members(&pair(&log[..1]), &active, &[1, 1], true).is_empty());
        // Same frontier, different stream for origin 0.
        let other = vec![msg(0, 1, &[]), msg(1, 1, &[]), msg(1, 1, &[])];
        assert!(!check_members(&pair(&other), &active, &[1, 1], true).is_empty());
        // A member that left fails the run even with an identical log.
        let left = [ProcessStatus::Active, ProcessStatus::Left];
        assert!(!check_members(&pair(&log), &left, &[1, 1], true).is_empty());
        // Not every message seen everywhere: the stall oracle fires.
        assert!(!check_members(&pair(&log), &active, &[1, 1], false).is_empty());
    }
}
