//! Counterexamples the explorer has produced, committed as `urcgc-repro/1`
//! files under `tests/repros/` and replayed here through the same
//! `run_spec` the `checker` binary uses.
//!
//! * A **healed** repro must stay clean: it pins the fix.
//! * An **open** repro must keep reproducing its named violation — the
//!   cause is known and recorded (ROADMAP direction 2), the fix is not in
//!   yet, and a repro that silently stops reproducing is a repro nobody
//!   can trust. When the fix lands this test says so: move the file to the
//!   healed list and lengthen the `--seed 7` / `--seed 99` legs of CI's
//!   `checker-smoke` job, which stop just short of these runs.

use urcgc_check::oracle::OracleKind;
use urcgc_check::repro::parse_repro;
use urcgc_check::run::run_spec;

fn replay(name: &str) -> Vec<OracleKind> {
    let path = format!("{}/tests/repros/{name}.json", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let spec = parse_repro(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
    run_spec(&spec).violations.iter().map(|v| v.kind).collect()
}

/// `checker --runs 20000 --n 3,5,7 --seed 99`, run 1 068 (n = 3, two
/// messages each, link p1→p0 cut for rounds 1–8, p2 a +2-round straggler):
/// every decision that would have told p0 about p1#2 was itself cut, so p0
/// looked quiescent, the settle loop counted eight quiet rounds and the
/// terminal oracles condemned (atomicity, divergence) a run that heals by
/// itself once the cut ends. The loop now settles only after the plan's
/// scheduled faults are spent (`PlanSpec::spent_by`).
#[test]
fn a_run_is_not_settled_while_a_scheduled_cut_hides_a_gap() {
    assert_eq!(replay("settled-while-a-cut-hid-the-gap"), vec![]);
}

/// `--seed 7` run 363 (n = 3) and `--seed 99` run 4 760 (n = 7): loss-free
/// genomes in which a member whose frames take three rounds (slow sender
/// +2) is declared crashed at the default K = 3 and suicides. A
/// straggler's requests only count through the salvage path (stash for
/// the next own matrix, forward once to the next coordinator —
/// `Engine::handle_request`), which is itself about K subruns long; one
/// crash on that path (n = 7: p0 dies as the straggler's first request
/// reaches it; n = 3: the dead p1 leaves p0 the only foreign coordinator,
/// one subrun in three, outside the two-subrun staleness window, while the
/// straggler's own decisions arrive already superseded) leaves it K
/// consecutive misses. Both are clean at K = 4. Not the settle bug.
#[test]
fn open_a_straggler_is_expelled_when_a_crash_breaks_its_salvage_path() {
    for name in ["open-straggler-expelled-n3", "open-straggler-expelled-n7"] {
        assert_eq!(
            replay(name),
            vec![OracleKind::Membership],
            "{name} no longer reproduces as recorded — if it is clean, the \
             failure detector was fixed: move it to the healed list"
        );
    }
}
