//! Typed property oracles over [`GroupHarness`] probe output.
//!
//! Each oracle encodes one guarantee the paper states (Sections 3–5) in a
//! form that is *sound* for the implementation — it can only fire on
//! behavior the protocol actually forbids:
//!
//! * **Uniform Atomicity** (Definition 3.2): at quiescence, every
//!   generated message was processed by all surviving processes or by
//!   none of them. Checked from the report's partial-processing count.
//! * **Uniform Ordering** (Definition 3.3): every local processing log is
//!   consistent with the published dependency relation — a message never
//!   appears before one of its declared causes, and one origin's messages
//!   appear in sequence order.
//! * **Stability-safety**: no process purges a history entry that some
//!   process alive in its view has not yet processed. Sound mid-run: a
//!   full-group decision's stable vector is the minimum over exactly the
//!   alive-in-view contributors, contributions are monotone lower bounds
//!   on the contributors' frontiers, and views only shrink.
//! * **Frontier agreement**: at quiescence all survivors hold identical
//!   `last_processed` vectors.
//! * **Termination**: the run reaches quiescence within the (generous)
//!   round budget.
//! * **Membership** (loss-free specs only): a process leaves the group
//!   only when it actually crashed — the paper's exit rules all hinge on
//!   lost messages, so in a run that loses none, every non-crashed
//!   process must still be `Active` at the end.

use std::collections::HashMap;
use std::fmt;

use urcgc::sim::{GroupHarness, GroupReport, UrcgcNode};
use urcgc_simnet::SimNet;
use urcgc_types::ProcessId;

/// Which property a violation breaches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OracleKind {
    /// Uniform Atomicity: a message processed by a strict subset of the
    /// survivors at quiescence.
    Atomicity,
    /// Uniform Ordering: a processing log contradicts the dependency
    /// relation.
    Ordering,
    /// A history entry purged before it was stable.
    StabilitySafety,
    /// The run hit its round budget without quiescing.
    Stall,
    /// Survivors ended with different processed frontiers.
    Divergence,
    /// A process left the group in a run where nothing was lost: the
    /// paper's leave rule (Section 5) ejects a member only when messages
    /// were actually lost or the member actually failed.
    Membership,
    /// Genuineness (multi-group operation): a frame took a protocol step
    /// at a group other than its destination group — either an engine
    /// accepted a frame enveloped for a different group, or a frame was
    /// routed to a node that does not host its destination group at all.
    Genuineness,
}

impl OracleKind {
    /// Stable machine-readable label (`urcgc-repro/1` / `urcgc-check/1`).
    pub fn label(self) -> &'static str {
        match self {
            OracleKind::Atomicity => "atomicity",
            OracleKind::Ordering => "ordering",
            OracleKind::StabilitySafety => "stability_safety",
            OracleKind::Stall => "stall",
            OracleKind::Divergence => "divergence",
            OracleKind::Membership => "membership",
            OracleKind::Genuineness => "genuineness",
        }
    }
}

impl fmt::Display for OracleKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One oracle violation.
#[derive(Clone, Debug, PartialEq)]
pub struct Violation {
    /// The property breached.
    pub kind: OracleKind,
    /// Round at which the breach was observed (mid-run oracles only).
    pub round: Option<u64>,
    /// Human-readable specifics.
    pub detail: String,
}

impl Violation {
    fn at(kind: OracleKind, round: u64, detail: String) -> Violation {
        Violation {
            kind,
            round: Some(round),
            detail,
        }
    }

    fn terminal(kind: OracleKind, detail: String) -> Violation {
        Violation {
            kind,
            round: None,
            detail,
        }
    }
}

/// Mid-run stability-safety check: for every active, non-net-crashed
/// holder `i` and every peer `j` that is active, not net-crashed, and
/// alive in `i`'s view, `i` must not have purged origin `q`'s history past
/// `j`'s processed frontier for any `q`. Call once per round (O(n³), n is
/// small).
pub fn check_stability(net: &SimNet<UrcgcNode>, round: u64) -> Option<Violation> {
    let nodes = net.nodes();
    for holder in nodes {
        let hid = holder.engine().me();
        if net.is_crashed(hid) || !holder.engine().status().is_active() {
            continue;
        }
        for peer in nodes {
            let pid = peer.engine().me();
            if net.is_crashed(pid)
                || !peer.engine().status().is_active()
                || !holder.engine().view().is_alive(pid)
            {
                continue;
            }
            for q in 0..nodes.len() {
                let q = ProcessId::from_index(q);
                let purged = holder.engine().history_purged_to(q);
                let processed = peer.engine().last_processed(q);
                if purged > processed {
                    return Some(Violation::at(
                        OracleKind::StabilitySafety,
                        round,
                        format!(
                            "p{} purged origin p{}'s history to seq {purged} while p{} \
                             (alive in its view) has only processed seq {processed}",
                            hid.0, q.0, pid.0
                        ),
                    ));
                }
            }
        }
    }
    None
}

/// Uniform-Ordering check over every node's full processing log (crashed
/// nodes too — their logs are valid prefixes and must already be
/// consistent). Returns the first inconsistency.
pub fn check_ordering(nodes: &[UrcgcNode]) -> Option<Violation> {
    for node in nodes {
        let me = node.engine().me();
        let log = node.delivery_log();
        let position: HashMap<_, _> = log.iter().enumerate().map(|(i, &m)| (m, i)).collect();
        let mut last_seq: HashMap<ProcessId, u64> = HashMap::new();
        for (idx, &mid) in log.iter().enumerate() {
            let prev = last_seq.insert(mid.origin, mid.seq).unwrap_or(0);
            if mid.seq <= prev {
                return Some(Violation::terminal(
                    OracleKind::Ordering,
                    format!(
                        "p{} processed p{}#{} after p{}#{}: an origin's sequence ran backwards",
                        me.0, mid.origin.0, mid.seq, mid.origin.0, prev
                    ),
                ));
            }
            for &dep in node.deps_of(mid).unwrap_or(&[]) {
                match position.get(&dep) {
                    Some(&dep_idx) if dep_idx < idx => {}
                    Some(_) => {
                        return Some(Violation::terminal(
                            OracleKind::Ordering,
                            format!(
                                "p{} processed p{}#{} before its declared cause p{}#{}",
                                me.0, mid.origin.0, mid.seq, dep.origin.0, dep.seq
                            ),
                        ));
                    }
                    None => {
                        return Some(Violation::terminal(
                            OracleKind::Ordering,
                            format!(
                                "p{} processed p{}#{} without ever processing its declared \
                                 cause p{}#{}",
                                me.0, mid.origin.0, mid.seq, dep.origin.0, dep.seq
                            ),
                        ));
                    }
                }
            }
        }
    }
    None
}

/// Membership check, sound only for *loss-free* specs (no omissions, no
/// cuts, no schedule drops — see `CheckSpec::is_loss_free`): every process
/// the fault plan did not crash must still be `Active` at the end of the
/// run. With nothing lost, the paper's exit rules (missed-`K`-decisions
/// leave, declared-crashed suicide, exhausted recovery) can only fire on a
/// process that really failed — any other ejection is a protocol bug.
/// Crash-induced relay gaps are covered by the `K` sizing (PROTOCOL.md §8).
pub fn check_membership(h: &GroupHarness) -> Option<Violation> {
    for node in h.net().nodes() {
        let id = node.engine().me();
        if h.net().is_crashed(id) {
            continue;
        }
        let status = node.engine().status();
        if !status.is_active() {
            let reason = node
                .engine()
                .status_reason()
                .map(|r| r.to_string())
                .unwrap_or_else(|| "unknown".to_string());
            return Some(Violation::terminal(
                OracleKind::Membership,
                format!(
                    "p{} was ejected ({status:?}: {reason}) although it never crashed and \
                     the run lost no messages",
                    id.0
                ),
            ));
        }
    }
    None
}

/// End-of-run oracles over the final [`GroupReport`]: termination, and —
/// only meaningful once quiesced — Uniform Atomicity and frontier
/// agreement.
pub fn check_final(report: &GroupReport) -> Vec<Violation> {
    let mut violations = Vec::new();
    if !report.quiesced {
        violations.push(Violation::terminal(
            OracleKind::Stall,
            format!(
                "no quiescence after {} rounds ({} of {} messages fully processed)",
                report.rounds, report.fully_processed, report.generated_total
            ),
        ));
        return violations;
    }
    if report.partially_processed > 0 {
        violations.push(Violation::terminal(
            OracleKind::Atomicity,
            format!(
                "{} message(s) processed by a strict subset of the survivors at quiescence",
                report.partially_processed
            ),
        ));
    }
    if !report.frontiers_agree() {
        violations.push(Violation::terminal(
            OracleKind::Divergence,
            "survivors ended with different last_processed vectors".to_string(),
        ));
    }
    violations
}
