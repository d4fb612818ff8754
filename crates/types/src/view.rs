//! Local group views (assumption 4 of Section 4).
//!
//! A *local group view* records what a process currently believes about the
//! liveness of every member of `G`. Views are only ever updated from
//! coordinator decisions, which is how the algorithm guarantees all active
//! processes converge on the same knowledge about the group.

use core::fmt;

use crate::id::ProcessId;

/// A process's view of the group: one liveness flag per member.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct GroupView {
    alive: Vec<bool>,
}

impl GroupView {
    /// A fresh view in which all `n` members are believed alive.
    pub fn all_alive(n: usize) -> Self {
        GroupView {
            alive: vec![true; n],
        }
    }

    /// Group cardinality `n` (including members believed crashed — the view
    /// never shrinks, entries only flip to dead).
    #[inline]
    pub fn n(&self) -> usize {
        self.alive.len()
    }

    /// Whether `p` is believed alive.
    #[inline]
    pub fn is_alive(&self, p: ProcessId) -> bool {
        self.alive.get(p.index()).copied().unwrap_or(false)
    }

    /// Marks `p` as crashed. Idempotent.
    pub fn mark_crashed(&mut self, p: ProcessId) {
        if let Some(slot) = self.alive.get_mut(p.index()) {
            *slot = false;
        }
    }

    /// Number of members believed alive.
    #[inline]
    pub fn alive_count(&self) -> usize {
        self.alive.iter().filter(|&&a| a).count()
    }

    /// Iterates over the members believed alive.
    pub fn alive_members(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.alive
            .iter()
            .enumerate()
            .filter(|(_, &a)| a)
            .map(|(i, _)| ProcessId::from_index(i))
    }

    /// Raw liveness flags, indexed by process.
    #[inline]
    pub fn flags(&self) -> &[bool] {
        &self.alive
    }

    /// Replaces this view with `other` (used when a decision carries a newer
    /// `process_state` vector). A process that was locally known crashed is
    /// never resurrected: the paper's failure model has no recovery of
    /// crashed processes within a run, so the merge is a logical AND.
    pub fn merge_from_decision(&mut self, decided: &[bool]) {
        for (slot, &d) in self.alive.iter_mut().zip(decided) {
            *slot = *slot && d;
        }
    }

    /// The rotating coordinator for `subrun`, *skipping members this view
    /// believes crashed*.
    ///
    /// The paper rotates the coordinator over all of `G`; a subrun whose
    /// scheduled coordinator is known-crashed is simply an idle subrun (its
    /// decision never arrives and `attempts` counters advance at the next
    /// live coordinator). Exposing the skip-aware helper lets drivers avoid
    /// simulating provably-dead subruns when they want to, while the core
    /// protocol uses the plain rotation.
    pub fn next_live_coordinator(&self, subrun: crate::id::Subrun) -> Option<ProcessId> {
        let n = self.n();
        if n == 0 {
            return None;
        }
        (0..n)
            .map(|off| ProcessId::from_index(((subrun.0 as usize) + off) % n))
            .find(|&p| self.is_alive(p))
    }
}

impl fmt::Display for GroupView {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "view{{")?;
        for (i, &a) in self.alive.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "p{i}:{}", if a { "up" } else { "down" })?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::Subrun;

    #[test]
    fn fresh_view_has_everyone_alive() {
        let v = GroupView::all_alive(4);
        assert_eq!(v.n(), 4);
        assert_eq!(v.alive_count(), 4);
        assert!(v.is_alive(ProcessId(3)));
    }

    #[test]
    fn out_of_range_member_is_not_alive() {
        let v = GroupView::all_alive(2);
        assert!(!v.is_alive(ProcessId(7)));
    }

    #[test]
    fn mark_crashed_is_idempotent() {
        let mut v = GroupView::all_alive(3);
        v.mark_crashed(ProcessId(1));
        v.mark_crashed(ProcessId(1));
        assert_eq!(v.alive_count(), 2);
        assert!(!v.is_alive(ProcessId(1)));
    }

    #[test]
    fn merge_never_resurrects() {
        let mut v = GroupView::all_alive(3);
        v.mark_crashed(ProcessId(0));
        // A (stale) decision that still believes p0 alive must not revive it.
        v.merge_from_decision(&[true, true, false]);
        assert!(!v.is_alive(ProcessId(0)));
        assert!(v.is_alive(ProcessId(1)));
        assert!(!v.is_alive(ProcessId(2)));
    }

    #[test]
    fn live_coordinator_skips_crashed_members() {
        let mut v = GroupView::all_alive(4);
        v.mark_crashed(ProcessId(1));
        // subrun 1 would rotate to p1; the next live member is p2.
        assert_eq!(v.next_live_coordinator(Subrun(1)), Some(ProcessId(2)));
        assert_eq!(v.next_live_coordinator(Subrun(0)), Some(ProcessId(0)));
    }

    #[test]
    fn live_coordinator_none_when_all_crashed() {
        let mut v = GroupView::all_alive(2);
        v.mark_crashed(ProcessId(0));
        v.mark_crashed(ProcessId(1));
        assert_eq!(v.next_live_coordinator(Subrun(0)), None);
    }

    #[test]
    fn alive_members_iterates_in_order() {
        let mut v = GroupView::all_alive(4);
        v.mark_crashed(ProcessId(2));
        let ids: Vec<_> = v.alive_members().collect();
        assert_eq!(ids, vec![ProcessId(0), ProcessId(1), ProcessId(3)]);
    }

    #[test]
    fn display_renders_all_members() {
        let mut v = GroupView::all_alive(2);
        v.mark_crashed(ProcessId(1));
        assert_eq!(v.to_string(), "view{p0:up p1:down}");
    }
}
