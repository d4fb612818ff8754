//! Building outgoing dependency lists.
//!
//! Section 3 of the paper distinguishes three interpretations of
//! Definition 3.1; the [`Labeler`] implements all of them behind one
//! interface so the same application code runs under any
//! [`CausalityMode`]:
//!
//! * **General** — the application chooses the direct causes of every
//!   message; the labeler only validates them (they must name messages the
//!   process generated or processed, per points i/ii of Definition 3.1).
//! * **SingleRootPerProcess** (the paper's evaluation mode) — the labeler
//!   automatically chains the process's own messages into one sequence and
//!   adds the application-chosen foreign causes; a message thus depends on
//!   at most `n` others.
//! * **Temporal** — the labeler automatically depends each message on the
//!   latest known message of *every* origin (Lamport-style potential
//!   causality, as restricted CBCAST does), ignoring application choices.

use std::collections::HashSet;

use core::fmt;

use urcgc_types::{CausalityMode, Mid, ProcessId, NO_SEQ};

/// Rejected dependency lists.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LabelError {
    /// The application named a cause this process neither generated nor
    /// processed — such a relation is not "significant for p"
    /// (Definition 3.1).
    UnknownCause {
        /// The offending mid.
        cause: Mid,
    },
    /// The application named the message's own (future) mid as a cause.
    SelfCause {
        /// The offending mid.
        cause: Mid,
    },
}

impl fmt::Display for LabelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LabelError::UnknownCause { cause } => write!(
                f,
                "cause {cause} was neither generated nor processed by this process"
            ),
            LabelError::SelfCause { cause } => {
                write!(f, "message cannot causally depend on itself ({cause})")
            }
        }
    }
}

impl std::error::Error for LabelError {}

/// Stamps outgoing messages with mids and dependency lists.
#[derive(Clone, Debug)]
pub struct Labeler {
    me: ProcessId,
    mode: CausalityMode,
    /// Next sequence number this process will assign.
    next_seq: u64,
    /// Latest processed/generated seq per origin (potential-causality state;
    /// also serves as the known-message validator for General mode).
    latest: Vec<u64>,
    /// Out-of-order knowledge beyond the per-origin latest prefix (General
    /// mode can process an origin's concurrent messages in any order).
    known_extra: HashSet<Mid>,
}

impl Labeler {
    /// A labeler for process `me` in a group of `n`.
    pub fn new(me: ProcessId, n: usize, mode: CausalityMode) -> Self {
        assert!(me.index() < n, "labeler owner outside group");
        Labeler {
            me,
            mode,
            next_seq: 1,
            latest: vec![NO_SEQ; n],
            known_extra: HashSet::new(),
        }
    }

    /// The owning process.
    pub fn me(&self) -> ProcessId {
        self.me
    }

    /// The causality mode in force.
    pub fn mode(&self) -> CausalityMode {
        self.mode
    }

    /// The mid the *next* generated message will receive.
    pub fn peek_next_mid(&self) -> Mid {
        Mid::new(self.me, self.next_seq)
    }

    /// Records that `mid` has been processed (or generated elsewhere and
    /// recovered); updates potential-causality state.
    pub fn note_processed(&mut self, mid: Mid) {
        let i = mid.origin.index();
        if i >= self.latest.len() {
            return;
        }
        if mid.seq == self.latest[i] + 1 {
            self.latest[i] = mid.seq;
            // In-order processing leaves `known_extra` empty; checking
            // that first spares hashing a mid per processed message.
            while !self.known_extra.is_empty()
                && self
                    .known_extra
                    .remove(&Mid::new(mid.origin, self.latest[i] + 1))
            {
                self.latest[i] += 1;
            }
        } else if mid.seq > self.latest[i] {
            self.known_extra.insert(mid);
        }
    }

    fn knows(&self, mid: Mid) -> bool {
        let i = mid.origin.index();
        i < self.latest.len() && (mid.seq <= self.latest[i] || self.known_extra.contains(&mid))
    }

    /// Assigns the next mid and builds the published dependency list from
    /// the application's `chosen` causes according to the mode. On success
    /// the labeler's own state advances (the new message becomes the
    /// process's latest own message).
    pub fn label(&mut self, chosen: &[Mid]) -> Result<(Mid, Vec<Mid>), LabelError> {
        let mid = Mid::new(self.me, self.next_seq);
        let deps = match self.mode {
            CausalityMode::General => {
                for &c in chosen {
                    if c == mid {
                        return Err(LabelError::SelfCause { cause: c });
                    }
                    if !self.knows(c) {
                        return Err(LabelError::UnknownCause { cause: c });
                    }
                }
                let mut deps = chosen.to_vec();
                deps.sort();
                deps.dedup();
                deps
            }
            CausalityMode::SingleRootPerProcess => {
                let mut deps: Vec<Mid> = Vec::new();
                // Own predecessor first: point i of Definition 3.1 under the
                // single-sequence restriction.
                if let Some(prev) = mid.predecessor() {
                    deps.push(prev);
                }
                for &c in chosen {
                    if c == mid {
                        return Err(LabelError::SelfCause { cause: c });
                    }
                    if c.origin == self.me {
                        // Own messages are already covered by the chain.
                        continue;
                    }
                    if !self.knows(c) {
                        return Err(LabelError::UnknownCause { cause: c });
                    }
                    deps.push(c);
                }
                deps.sort();
                deps.dedup();
                deps
            }
            CausalityMode::Temporal => {
                // Depend on the latest known message of every origin
                // (own predecessor included via latest[me]).
                let mut deps: Vec<Mid> = self
                    .latest
                    .iter()
                    .enumerate()
                    .filter(|(_, &s)| s != NO_SEQ)
                    .map(|(i, &s)| Mid::new(ProcessId::from_index(i), s))
                    .collect();
                deps.sort();
                deps
            }
        };
        self.next_seq += 1;
        // The sender processes its own message immediately (Section 4:
        // "broadcasts the message to the group and processes it").
        self.note_processed(mid);
        Ok((mid, deps))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mid(p: u16, s: u64) -> Mid {
        Mid::new(ProcessId(p), s)
    }

    #[test]
    fn single_root_chains_own_messages() {
        let mut l = Labeler::new(ProcessId(0), 3, CausalityMode::SingleRootPerProcess);
        let (m1, d1) = l.label(&[]).unwrap();
        assert_eq!(m1, mid(0, 1));
        assert!(d1.is_empty());
        let (m2, d2) = l.label(&[]).unwrap();
        assert_eq!(m2, mid(0, 2));
        assert_eq!(d2, vec![mid(0, 1)]);
    }

    #[test]
    fn single_root_adds_foreign_causes() {
        let mut l = Labeler::new(ProcessId(0), 3, CausalityMode::SingleRootPerProcess);
        l.note_processed(mid(1, 1));
        let (_, deps) = l.label(&[mid(1, 1)]).unwrap();
        assert_eq!(deps, vec![mid(1, 1)]);
        // Own causes passed by the app are folded into the chain.
        let (_, deps) = l.label(&[mid(0, 1), mid(1, 1)]).unwrap();
        assert_eq!(deps, vec![mid(0, 1), mid(1, 1)]);
    }

    #[test]
    fn single_root_bounds_dep_count_by_n() {
        // "each message may depend on at most n other messages" (Section 3).
        let n = 5;
        let mut l = Labeler::new(ProcessId(0), n, CausalityMode::SingleRootPerProcess);
        for p in 1..n as u16 {
            for s in 1..=3 {
                l.note_processed(mid(p, s));
            }
        }
        l.label(&[]).unwrap();
        let chosen: Vec<Mid> = (1..n as u16).map(|p| mid(p, 3)).collect();
        let (_, deps) = l.label(&chosen).unwrap();
        assert!(deps.len() <= n);
    }

    #[test]
    fn general_mode_trusts_but_verifies() {
        let mut l = Labeler::new(ProcessId(0), 3, CausalityMode::General);
        l.note_processed(mid(2, 1));
        let (m1, d1) = l.label(&[mid(2, 1)]).unwrap();
        assert_eq!(d1, vec![mid(2, 1)]);
        // General mode: a second message may be concurrent with the first
        // (no automatic own-chain).
        let (_, d2) = l.label(&[]).unwrap();
        assert!(d2.is_empty());
        assert_eq!(
            l.label(&[mid(1, 5)]),
            Err(LabelError::UnknownCause { cause: mid(1, 5) }),
        );
        let _ = m1;
    }

    #[test]
    fn general_mode_rejects_self_cause() {
        let mut l = Labeler::new(ProcessId(0), 2, CausalityMode::General);
        let next = l.peek_next_mid();
        assert_eq!(l.label(&[next]), Err(LabelError::SelfCause { cause: next }),);
        // Failed label must not consume the seq.
        assert_eq!(l.peek_next_mid(), next);
    }

    #[test]
    fn temporal_mode_depends_on_everything_known() {
        let mut l = Labeler::new(ProcessId(0), 3, CausalityMode::Temporal);
        l.note_processed(mid(1, 2)); // out of order: unknown prefix
        l.note_processed(mid(1, 1));
        l.note_processed(mid(2, 1));
        let (_, deps) = l.label(&[]).unwrap();
        assert_eq!(deps, vec![mid(1, 2), mid(2, 1)]);
        // Second message now also depends on own first.
        let (_, deps) = l.label(&[mid(9, 9)]).unwrap(); // chosen ignored
        assert_eq!(deps, vec![mid(0, 1), mid(1, 2), mid(2, 1)]);
    }

    #[test]
    fn note_processed_compacts_prefix() {
        let mut l = Labeler::new(ProcessId(0), 2, CausalityMode::Temporal);
        l.note_processed(mid(1, 3));
        l.note_processed(mid(1, 1));
        l.note_processed(mid(1, 2));
        let (_, deps) = l.label(&[]).unwrap();
        assert_eq!(deps, vec![mid(1, 3)]);
    }

    #[test]
    fn deps_are_sorted_and_deduped() {
        let mut l = Labeler::new(ProcessId(0), 4, CausalityMode::General);
        l.note_processed(mid(3, 1));
        l.note_processed(mid(1, 1));
        let (_, deps) = l.label(&[mid(3, 1), mid(1, 1), mid(3, 1)]).unwrap();
        assert_eq!(deps, vec![mid(1, 1), mid(3, 1)]);
    }

    #[test]
    #[should_panic(expected = "outside group")]
    fn owner_must_be_group_member() {
        let _ = Labeler::new(ProcessId(5), 3, CausalityMode::General);
    }

    #[test]
    fn label_errors_display() {
        let e = LabelError::UnknownCause { cause: mid(1, 2) };
        assert!(e.to_string().contains("p1#2"));
        let e = LabelError::SelfCause { cause: mid(0, 1) };
        assert!(e.to_string().contains("itself"));
    }
}
