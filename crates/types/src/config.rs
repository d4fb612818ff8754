//! Protocol parameters shared by the core state machine, the simulator
//! drivers, and the experiment harness.

use core::fmt;

/// Which interpretation of Definition 3.1 the group runs under (Section 3).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum CausalityMode {
    /// The most general interpretation: a process may root arbitrarily many
    /// concurrent sequences and a message may list any set of prior mids as
    /// its direct causes. Histories are tree-structured per origin.
    General,
    /// The intermediate interpretation used throughout the paper's
    /// evaluation: each process roots at most **one** sequence, so its own
    /// messages are totally ordered, while it may still freely choose which
    /// foreign messages to depend on (point ii of Definition 3.1). Each
    /// message then depends on at most `n` others.
    #[default]
    SingleRootPerProcess,
    /// ISIS-style potential causality: every message depends on *everything*
    /// the sender delivered or sent before it (Lamport's happened-before).
    /// Minimal concurrency; provided for comparison with CBCAST/Psync.
    Temporal,
}

impl fmt::Display for CausalityMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CausalityMode::General => "general",
            CausalityMode::SingleRootPerProcess => "single-root",
            CausalityMode::Temporal => "temporal",
        };
        f.write_str(s)
    }
}

/// Tunable parameters of the urcgc protocol.
///
/// The paper's symbols map onto fields as follows: `n` is the group
/// cardinality, `K` the number of consecutive coordinator contacts a process
/// may miss before being declared crashed (and, symmetrically, the number of
/// consecutive decisions a process may fail to receive before it leaves the
/// group), `R` the number of unsuccessful history-recovery attempts before a
/// process leaves, and the history threshold is the `8n` flow-control bound
/// of Figure 6 b).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ProtocolConfig {
    /// Group cardinality `n`.
    pub n: usize,
    /// Failure-detection attempt bound `K` (≥ 1).
    pub k: u32,
    /// Recovery attempt bound `R`. Must satisfy `R > 2K + f` for the largest
    /// number `f` of consecutive coordinator crashes the deployment should
    /// ride out (Section 4); [`ProtocolConfig::validate`] checks this
    /// against [`ProtocolConfig::max_coordinator_crashes`].
    pub r: u32,
    /// The number of consecutive coordinator crashes `f` the configuration
    /// is sized for. Only used to validate `r` and to size analytic bounds;
    /// the protocol itself adapts to whatever failures actually occur.
    pub max_coordinator_crashes: u32,
    /// Flow-control threshold on the local history length (Figure 6 b);
    /// `None` disables flow control (Figure 6 a). The paper uses `8n`.
    pub history_threshold: Option<usize>,
    /// Causality interpretation in force.
    pub causality: CausalityMode,
    /// When true (the default), a recovering process coalesces its
    /// per-origin recovery requests into one `RecoveryBatchRq` per holder,
    /// and holders answer with one `RecoveryBatch` frame per requester
    /// instead of one `RecoveryReply` per origin — 98× fewer recovery
    /// frames at `n = 100` for identical healing behaviour. Set to `false`
    /// (via [`ProtocolConfig::with_unbatched_recovery`]) to reproduce the
    /// paper's literal per-origin framing; the digest-gated experiment
    /// documents were re-pinned when this default flipped.
    pub batched_recovery: bool,
    /// **Fault-injection knob for the checker — never set in production.**
    /// When true, full-group decisions purge each origin's history up to the
    /// group *maximum* processed sequence instead of the stable minimum,
    /// discarding entries some alive process may still need to recover.
    /// Exists so `urcgc-check` can prove its stability oracle catches a
    /// purge-before-stable bug. Only present with the `checker-knobs` cargo
    /// feature, which `urcgc-check` enables; the production config surface
    /// does not carry it.
    #[cfg(feature = "checker-knobs")]
    #[doc(hidden)]
    pub broken_purge_before_stability: bool,
}

impl ProtocolConfig {
    /// A configuration with the paper's defaults for a group of `n`
    /// processes: `K = 3`, `f` allowance 1, `R = 2K + f + 1` (the smallest
    /// value satisfying `R > 2K + f`), flow control off, intermediate
    /// causality.
    pub fn new(n: usize) -> Self {
        let k = 3;
        let f = 1;
        ProtocolConfig {
            n,
            k,
            r: 2 * k + f + 1,
            max_coordinator_crashes: f,
            history_threshold: None,
            causality: CausalityMode::default(),
            batched_recovery: true,
            #[cfg(feature = "checker-knobs")]
            broken_purge_before_stability: false,
        }
    }

    /// Enables the deliberate purge-before-stability bug (checker-only; see
    /// the field docs).
    #[cfg(feature = "checker-knobs")]
    #[doc(hidden)]
    pub fn with_broken_purge_before_stability(mut self) -> Self {
        self.broken_purge_before_stability = true;
        self
    }

    /// Disables batched recovery, restoring the paper's literal per-origin
    /// `RecoveryRq`/`RecoveryReply` framing.
    pub fn with_unbatched_recovery(mut self) -> Self {
        self.batched_recovery = false;
        self
    }

    /// Sets `K` and re-derives the minimal valid `R` for the current `f`
    /// allowance.
    pub fn with_k(mut self, k: u32) -> Self {
        self.k = k;
        self.r = 2 * k + self.max_coordinator_crashes + 1;
        self
    }

    /// Sets the `f` allowance and re-derives the minimal valid `R`.
    pub fn with_f_allowance(mut self, f: u32) -> Self {
        self.max_coordinator_crashes = f;
        self.r = 2 * self.k + f + 1;
        self
    }

    /// Sets an explicit `R` (callers must keep `R > 2K + f`).
    pub fn with_r(mut self, r: u32) -> Self {
        self.r = r;
        self
    }

    /// Enables the distributed flow control of Figure 6 b) with the paper's
    /// `8n` threshold.
    pub fn with_paper_flow_control(mut self) -> Self {
        self.history_threshold = Some(8 * self.n);
        self
    }

    /// Enables flow control with an explicit threshold.
    pub fn with_history_threshold(mut self, threshold: usize) -> Self {
        self.history_threshold = Some(threshold);
        self
    }

    /// Sets the causality interpretation.
    pub fn with_causality(mut self, mode: CausalityMode) -> Self {
        self.causality = mode;
        self
    }

    /// The resilience degree `t = (n−1)/2`: the highest number of combined
    /// process/network failures per subrun under which the reliable
    /// circulation of decisions is still guaranteed (Section 4).
    #[inline]
    pub fn resilience(&self) -> usize {
        self.n.saturating_sub(1) / 2
    }

    /// Upper bound on subruns between history cleanings: `2K + f`
    /// (Section 4).
    #[inline]
    pub fn cleaning_bound_subruns(&self) -> u64 {
        2 * self.k as u64 + self.max_coordinator_crashes as u64
    }

    /// Upper bound on the history population implied by the cleaning bound:
    /// `2(2K + f)·n` messages (Section 6).
    #[inline]
    pub fn history_bound_messages(&self) -> usize {
        2 * self.cleaning_bound_subruns() as usize * self.n
    }

    /// Checks the structural constraints the paper states: `n ≥ 1`, `K ≥ 1`,
    /// and `R > 2K + f`.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.n == 0 {
            return Err(ConfigError::EmptyGroup);
        }
        if self.k == 0 {
            return Err(ConfigError::ZeroK);
        }
        let min_r = 2 * self.k + self.max_coordinator_crashes;
        if self.r <= min_r {
            return Err(ConfigError::RTooSmall {
                r: self.r,
                min_exclusive: min_r,
            });
        }
        Ok(())
    }
}

/// Structural-parameter violations detected by [`ProtocolConfig::validate`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ConfigError {
    /// `n == 0`.
    EmptyGroup,
    /// `K == 0`: crash detection would fire on the first missed contact.
    ZeroK,
    /// `R ≤ 2K + f`: a correct process chasing a crashed "most updated"
    /// peer could be expelled before learning about the crash.
    RTooSmall {
        /// Configured `R`.
        r: u32,
        /// `R` must strictly exceed this value.
        min_exclusive: u32,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::EmptyGroup => write!(f, "group cardinality n must be at least 1"),
            ConfigError::ZeroK => write!(f, "failure-detection bound K must be at least 1"),
            ConfigError::RTooSmall { r, min_exclusive } => write!(
                f,
                "recovery bound R = {r} must strictly exceed 2K + f = {min_exclusive}"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_satisfy_paper_constraints() {
        let cfg = ProtocolConfig::new(10);
        cfg.validate().unwrap();
        assert_eq!(cfg.resilience(), 4);
        assert!(cfg.r > 2 * cfg.k + cfg.max_coordinator_crashes);
    }

    #[test]
    fn with_k_rederives_r() {
        let cfg = ProtocolConfig::new(10).with_k(5);
        cfg.validate().unwrap();
        assert_eq!(cfg.r, 2 * 5 + 1 + 1);
    }

    #[test]
    fn with_f_allowance_rederives_r() {
        let cfg = ProtocolConfig::new(10).with_f_allowance(4);
        cfg.validate().unwrap();
        assert_eq!(cfg.cleaning_bound_subruns(), 2 * 3 + 4);
    }

    #[test]
    fn paper_flow_control_threshold_is_8n() {
        let cfg = ProtocolConfig::new(40).with_paper_flow_control();
        assert_eq!(cfg.history_threshold, Some(320));
    }

    #[test]
    fn validation_rejects_degenerate_parameters() {
        assert_eq!(
            ProtocolConfig::new(0).validate(),
            Err(ConfigError::EmptyGroup)
        );
        let mut cfg = ProtocolConfig::new(4);
        cfg.k = 0;
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroK));
        let cfg = ProtocolConfig::new(4).with_r(3);
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::RTooSmall { r: 3, .. })
        ));
    }

    #[test]
    fn history_bound_matches_section_6_formula() {
        let cfg = ProtocolConfig::new(40).with_k(2).with_f_allowance(1);
        // 2(2K + f)n = 2·5·40
        assert_eq!(cfg.history_bound_messages(), 400);
    }

    #[test]
    fn resilience_of_small_groups() {
        assert_eq!(ProtocolConfig::new(1).resilience(), 0);
        assert_eq!(ProtocolConfig::new(2).resilience(), 0);
        assert_eq!(ProtocolConfig::new(3).resilience(), 1);
        assert_eq!(ProtocolConfig::new(41).resilience(), 20);
    }

    #[test]
    fn config_error_messages_are_informative() {
        let err = ProtocolConfig::new(4).with_r(3).validate().unwrap_err();
        let text = err.to_string();
        assert!(text.contains("R = 3"), "got: {text}");
    }

    #[test]
    fn batched_recovery_defaults_on() {
        assert!(ProtocolConfig::new(5).batched_recovery);
        // Per-origin framing remains reachable for paper-literal runs.
        assert!(
            !ProtocolConfig::new(5)
                .with_unbatched_recovery()
                .batched_recovery
        );
    }
}
