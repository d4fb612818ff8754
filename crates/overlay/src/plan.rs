//! The deterministic overlay planner.
//!
//! Every process computes the same overlay from the same inputs — a seed
//! and the set of members it believes alive — with no membership protocol
//! of its own: the group view the engine already maintains *is* the
//! membership, and a crash simply shrinks the alive set, which re-roots
//! and re-parents the whole overlay on the next [`Plan::rebuild`].
//!
//! # One permutation, n trees
//!
//! A naive per-origin tree costs an O(n log n) permutation per origin per
//! view change — ruinous at n = 1000. Instead the planner draws **one**
//! seeded permutation `P` of the alive members per view epoch and derives
//! the tree rooted at origin `o` by *rotating* `P` so `o` comes first:
//! the member at rotated position `r` has children at positions
//! `r·k + 1 ..= r·k + k`. Each origin gets a genuinely different tree
//! (different rotation ⇒ different interior nodes), every fan-out query is
//! O(k) from the cached index, and the one sort is paid once per view
//! change, not per frame.
//!
//! Transient view disagreement between processes is harmless: a process
//! with a stale view forwards along stale edges, which at worst duplicates
//! a frame (the receiver's dedup absorbs it) or loses one subtree (the
//! engine's recovery-from-history heals it, exactly as it heals an omission
//! on the direct path).

use urcgc_types::ProcessId;

/// How frames spread through the overlay.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OverlayMode {
    /// Degree-bounded k-ary tree per origin (rotation of the epoch
    /// permutation). Deterministic single path per broadcast; re-parented
    /// on view changes.
    Tree,
    /// Infect-and-die gossip: on first receipt of a broadcast, forward it
    /// to `degree` pseudo-randomly chosen members (a fresh choice per
    /// `(origin, seq)`), then never again. Redundant paths trade extra
    /// frames for crash tolerance without re-parenting latency.
    Gossip,
}

impl OverlayMode {
    /// Stable label (JSON specs, CLI flags).
    pub fn label(self) -> &'static str {
        match self {
            OverlayMode::Tree => "tree",
            OverlayMode::Gossip => "gossip",
        }
    }

    /// Parses a [`OverlayMode::label`].
    pub fn from_label(s: &str) -> Option<OverlayMode> {
        match s {
            "tree" => Some(OverlayMode::Tree),
            "gossip" => Some(OverlayMode::Gossip),
            _ => None,
        }
    }
}

/// Overlay parameters. Two processes with equal configs and equal alive
/// views compute identical overlays.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OverlayConfig {
    /// Dissemination strategy.
    pub mode: OverlayMode,
    /// Fan-out bound: tree arity, or gossip targets per fresh frame.
    pub degree: usize,
    /// Permutation seed (shared by the whole group, like the protocol
    /// config).
    pub seed: u64,
    /// Deliberately broken relay for checker self-tests: fresh frames
    /// carrying a decision PDU are delivered locally but never forwarded.
    #[cfg(feature = "checker-knobs")]
    pub drop_decision_forwards: bool,
}

impl OverlayConfig {
    /// A k-ary tree overlay.
    pub fn tree(degree: usize, seed: u64) -> OverlayConfig {
        assert!(degree >= 1, "tree arity must be at least 1");
        OverlayConfig {
            mode: OverlayMode::Tree,
            degree,
            seed,
            #[cfg(feature = "checker-knobs")]
            drop_decision_forwards: false,
        }
    }

    /// An infect-and-die gossip overlay.
    pub fn gossip(degree: usize, seed: u64) -> OverlayConfig {
        assert!(degree >= 1, "gossip fan-out must be at least 1");
        OverlayConfig {
            mode: OverlayMode::Gossip,
            degree,
            seed,
            #[cfg(feature = "checker-knobs")]
            drop_decision_forwards: false,
        }
    }

    /// Enables the deliberately broken relay (drops decision forwards).
    /// Checker self-tests only.
    #[cfg(feature = "checker-knobs")]
    pub fn with_drop_decision_forwards(mut self) -> OverlayConfig {
        self.drop_decision_forwards = true;
        self
    }

    /// Whether the broken-relay knob is on (always `false` without the
    /// `checker-knobs` feature).
    pub fn drops_decision_forwards(&self) -> bool {
        #[cfg(feature = "checker-knobs")]
        {
            self.drop_decision_forwards
        }
        #[cfg(not(feature = "checker-knobs"))]
        {
            false
        }
    }
}

/// splitmix64 finalizer: the planner's whole entropy budget. Cheap,
/// dependency-free, and good enough to decorrelate member positions.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The planned overlay for one alive-view epoch.
#[derive(Clone, Debug)]
pub struct Plan {
    cfg: OverlayConfig,
    /// Seeded permutation of the alive members.
    perm: Vec<ProcessId>,
    /// member index → position in `perm` (`None` for dead members).
    pos: Vec<Option<usize>>,
    /// The alive flags this plan was built from (staleness check).
    alive: Vec<bool>,
}

impl Plan {
    /// Builds the plan for `alive` (flag per process index).
    pub fn build(cfg: OverlayConfig, alive: &[bool]) -> Plan {
        // Hash each member once, not twice per comparison: the pairs sort
        // by (hash, id), the same key and tie-break as ever.
        let mut keyed: Vec<(u64, u16)> = Vec::with_capacity(alive.len());
        keyed.extend(
            (0u16..)
                .zip(alive)
                .filter(|(_, &a)| a)
                .map(|(p, _)| (mix(cfg.seed ^ (u64::from(p) << 1 | 1)), p)),
        );
        keyed.sort_unstable();
        let perm: Vec<ProcessId> = keyed.into_iter().map(|(_, p)| ProcessId(p)).collect();
        let mut pos = vec![None; alive.len()];
        for (at, p) in perm.iter().enumerate() {
            pos[p.index()] = Some(at);
        }
        Plan {
            cfg,
            perm,
            pos,
            alive: alive.to_vec(),
        }
    }

    /// Whether this plan still matches `alive`.
    pub fn matches(&self, alive: &[bool]) -> bool {
        self.alive == alive
    }

    /// Rebuilds only if the alive view changed; returns whether it did
    /// (a crash-triggered re-parenting event).
    pub fn rebuild(&mut self, alive: &[bool]) -> bool {
        if self.matches(alive) {
            false
        } else {
            *self = Plan::build(self.cfg.clone(), alive);
            true
        }
    }

    /// Alive members in permutation order (tests/diagnostics).
    pub fn permutation(&self) -> &[ProcessId] {
        &self.perm
    }

    /// The config this plan was built with.
    pub fn config(&self) -> &OverlayConfig {
        &self.cfg
    }

    /// The rotation offset of origin `o`: its position if alive, else a
    /// seeded virtual position so a crashed origin's in-flight frames
    /// still route consistently on every process that shares this view.
    fn rotation_of(&self, origin: ProcessId) -> usize {
        match self.pos.get(origin.index()).copied().flatten() {
            Some(at) => at,
            None => (mix(self.cfg.seed ^ u64::from(origin.0)) as usize) % self.perm.len().max(1),
        }
    }

    /// `me`'s forward targets for a frame of broadcast `(origin, seq)`.
    /// O(degree). Empty when `me` is a leaf of the origin's tree (or the
    /// gossip draw lands only on excluded members).
    pub fn fanout(&self, origin: ProcessId, seq: u64, me: ProcessId) -> Vec<ProcessId> {
        let m = self.perm.len();
        if m <= 1 {
            return Vec::new();
        }
        match self.cfg.mode {
            OverlayMode::Tree => {
                let Some(ime) = self.pos.get(me.index()).copied().flatten() else {
                    return Vec::new();
                };
                let io = self.rotation_of(origin);
                let r = (ime + m - io) % m;
                let k = self.cfg.degree;
                let first = match r.checked_mul(k).and_then(|x| x.checked_add(1)) {
                    Some(f) if f < m => f,
                    _ => return Vec::new(),
                };
                (first..(first + k).min(m))
                    .map(|rel| self.perm[(io + rel) % m])
                    .collect()
            }
            OverlayMode::Gossip => {
                let mut targets = Vec::with_capacity(self.cfg.degree);
                let base = mix(self.cfg.seed ^ u64::from(origin.0))
                    ^ mix(seq.wrapping_mul(0xA24B_AED4_963E_E407) ^ u64::from(me.0) << 32);
                // Bounded probe: degree draws plus a few retries to skip
                // self/origin/duplicates; termination over completeness
                // (the engine's recovery covers any shortfall).
                let mut probe = 0u64;
                while targets.len() < self.cfg.degree && probe < (self.cfg.degree as u64) * 4 {
                    let cand = self.perm[(mix(base ^ probe) as usize) % m];
                    probe += 1;
                    if cand == me || cand == origin || targets.contains(&cand) {
                        continue;
                    }
                    targets.push(cand);
                }
                targets
            }
        }
    }

    /// Every alive process reachable through repeated [`Plan::fanout`]
    /// hops of broadcast `(origin, seq)`, starting at the origin — or, for
    /// a crashed origin, at the member occupying its virtual rotation slot
    /// (the tree's stand-in root). Test/diagnostic helper (the production
    /// path never materializes this).
    pub fn coverage(&self, origin: ProcessId, seq: u64) -> Vec<ProcessId> {
        if self.perm.is_empty() {
            return Vec::new();
        }
        let start = match self.pos.get(origin.index()).copied().flatten() {
            Some(_) => origin,
            None => self.perm[self.rotation_of(origin)],
        };
        let mut seen = vec![false; self.alive.len()];
        let mut frontier = vec![start];
        let mut out = Vec::new();
        if let Some(s) = seen.get_mut(start.index()) {
            *s = true;
        }
        while let Some(p) = frontier.pop() {
            out.push(p);
            for c in self.fanout(origin, seq, p) {
                if !seen[c.index()] {
                    seen[c.index()] = true;
                    frontier.push(c);
                }
            }
        }
        out.sort_unstable_by_key(|p| p.0);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alive(n: usize) -> Vec<bool> {
        vec![true; n]
    }

    #[test]
    fn tree_covers_every_member_exactly_once() {
        for n in [2usize, 3, 10, 33, 100] {
            let plan = Plan::build(OverlayConfig::tree(3, 0xFEED), &alive(n));
            for origin in [0u16, 1, (n - 1) as u16] {
                let covered = plan.coverage(ProcessId(origin), 0);
                assert_eq!(covered.len(), n, "n={n} origin={origin}");
                // Exactly once: every member has exactly one parent, so
                // total fan-out edges are n-1.
                let edges: usize = (0..n)
                    .map(|i| {
                        plan.fanout(ProcessId(origin), 0, ProcessId::from_index(i))
                            .len()
                    })
                    .sum();
                assert_eq!(edges, n - 1, "n={n} origin={origin}");
            }
        }
    }

    #[test]
    fn permutation_is_the_members_sorted_by_seeded_hash_then_id() {
        // The definition, spelled with the hash inside the comparison (how
        // the planner computed it before it hashed each member once).
        for (n, seed) in [
            (9, 0xfeed),
            (7, 0xbeef),
            (6, 99),
            (100, 7 ^ 0xE701),
            (1000, 3),
        ] {
            let mut flags = alive(n);
            flags[n / 2] = false;
            let mut expected: Vec<ProcessId> = (0..n)
                .filter(|&i| flags[i])
                .map(ProcessId::from_index)
                .collect();
            expected.sort_unstable_by_key(|p| (mix(seed ^ (u64::from(p.0) << 1 | 1)), p.0));
            let plan = Plan::build(OverlayConfig::tree(3, seed), &flags);
            assert_eq!(plan.permutation(), expected, "n={n} seed={seed:#x}");
        }
    }

    #[test]
    fn tree_fanout_is_degree_bounded_and_rooted_at_origin() {
        let plan = Plan::build(OverlayConfig::tree(3, 7), &alive(50));
        for origin in 0..50u16 {
            for me in 0..50u16 {
                let f = plan.fanout(ProcessId(origin), 0, ProcessId(me));
                assert!(f.len() <= 3);
                assert!(!f.contains(&ProcessId(origin)), "nobody relays to root");
                assert!(!f.contains(&ProcessId(me)), "no self-edges");
            }
        }
        // The origin itself always has children in a group of > 1.
        assert!(!plan.fanout(ProcessId(9), 0, ProcessId(9)).is_empty());
    }

    #[test]
    fn different_origins_rotate_to_different_trees() {
        let plan = Plan::build(OverlayConfig::tree(2, 1), &alive(20));
        let f0 = plan.fanout(ProcessId(0), 0, ProcessId(0));
        let f1 = plan.fanout(ProcessId(1), 0, ProcessId(1));
        assert_ne!(f0, f1, "rotations must differ");
    }

    #[test]
    fn rebuild_reparents_on_crash_and_drops_dead_members() {
        let mut flags = alive(12);
        let mut plan = Plan::build(OverlayConfig::tree(2, 3), &flags);
        // Find an interior (relay) node of origin 0's tree and crash it.
        let relay = (1..12u16)
            .map(ProcessId)
            .find(|&p| !plan.fanout(ProcessId(0), 0, p).is_empty())
            .expect("some interior node");
        flags[relay.index()] = false;
        assert!(plan.rebuild(&flags), "view change must rebuild");
        assert!(!plan.rebuild(&flags), "idempotent");
        let covered = plan.coverage(ProcessId(0), 0);
        assert_eq!(covered.len(), 11, "all survivors re-parented");
        assert!(!covered.contains(&relay));
        for me in covered {
            assert!(!plan.fanout(ProcessId(0), 0, me).contains(&relay));
        }
    }

    #[test]
    fn crashed_origin_still_routes_consistently() {
        let mut flags = alive(8);
        flags[3] = false;
        let plan = Plan::build(OverlayConfig::tree(2, 9), &flags);
        // Frames from the dead origin (in flight at crash time) still fan
        // out over all survivors deterministically, rooted at the member
        // occupying the origin's virtual rotation slot.
        let covered = plan.coverage(ProcessId(3), 0);
        assert_eq!(covered.len(), 7, "every survivor re-parented");
        assert!(!covered.contains(&ProcessId(3)));
    }

    #[test]
    fn gossip_fanout_is_fresh_per_broadcast_and_bounded() {
        let plan = Plan::build(OverlayConfig::gossip(3, 11), &alive(30));
        let a = plan.fanout(ProcessId(0), 0, ProcessId(5));
        let b = plan.fanout(ProcessId(0), 1, ProcessId(5));
        assert!(a.len() <= 3 && b.len() <= 3);
        assert!(!a.is_empty());
        assert_ne!(a, b, "per-seq target draw");
        for t in a.iter().chain(&b) {
            assert_ne!(*t, ProcessId(5));
            assert_ne!(*t, ProcessId(0));
        }
        // Deterministic: same inputs, same draw.
        assert_eq!(a, plan.fanout(ProcessId(0), 0, ProcessId(5)));
    }

    #[test]
    fn two_member_group_degenerates_to_unicast() {
        let plan = Plan::build(OverlayConfig::tree(3, 0), &alive(2));
        let f = plan.fanout(ProcessId(0), 0, ProcessId(0));
        assert_eq!(f, vec![ProcessId(1)]);
        assert!(plan.fanout(ProcessId(0), 0, ProcessId(1)).is_empty());
    }

    #[test]
    fn mode_labels_round_trip() {
        for mode in [OverlayMode::Tree, OverlayMode::Gossip] {
            assert_eq!(OverlayMode::from_label(mode.label()), Some(mode));
        }
        assert_eq!(OverlayMode::from_label("mesh"), None);
    }
}
