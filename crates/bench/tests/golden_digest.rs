//! Determinism golden test: the sweep binaries must reproduce their JSON
//! documents bit for bit, modulo the `wall_secs` timing field.
//!
//! The calendar-queue scheduler rebuild (PR 3) was required to preserve
//! delivery order and RNG draw alignment exactly; these digests pin that
//! guarantee so any future scheduler change that perturbs either is caught
//! in CI, not in a downstream figure. Two binaries cover the two run
//! shapes: `fig4_delay` (urcgc + both baselines under omission faults) and
//! `ablation_h` (recovery-depth sweep with crashes).
//!
//! If a digest mismatch is *intended* (a deliberate protocol or experiment
//! change), regenerate with the command printed in the failure message and
//! update the constant alongside a changelog note. Last re-pin: a gap is
//! asked for when the decision that shows it is adopted, not at the next
//! decision round (PR 16), which moves every recovery one round earlier;
//! the slot change of the same PR moved neither digest. EXPERIMENTS.md
//! records the before/after digests of this and the earlier re-pins.

use std::process::Command;

use urcgc_types::Fnv64;

/// FNV-1a 64 over the document with every line containing `"wall_secs"`
/// removed (the only field that varies run to run).
fn normalized_digest(doc: &str) -> u64 {
    let mut h = Fnv64::new();
    let mut first = true;
    for line in doc.split('\n').filter(|l| !l.contains("\"wall_secs\"")) {
        if !first {
            h.update(b"\n");
        }
        first = false;
        h.update(line.as_bytes());
    }
    h.finish()
}

fn run_and_digest(bin: &str, exe: &str) -> u64 {
    let out = std::env::temp_dir().join(format!("golden_{bin}_{}.json", std::process::id()));
    let status = Command::new(exe)
        .args(["--max-rounds", "60", "--replicates", "2", "--jobs", "2"])
        .args(["--json", out.to_str().unwrap()])
        .output()
        .unwrap_or_else(|e| panic!("launching {bin}: {e}"));
    assert!(
        status.status.success(),
        "{bin} exited with {:?}: {}",
        status.status,
        String::from_utf8_lossy(&status.stderr)
    );
    let doc = std::fs::read_to_string(&out).expect("sweep document written");
    let _ = std::fs::remove_file(&out);
    normalized_digest(&doc)
}

#[test]
fn fig4_delay_document_is_bit_stable() {
    let digest = run_and_digest("fig4_delay", env!("CARGO_BIN_EXE_fig4_delay"));
    assert_eq!(
        digest, 0x8e1f_e0bd_42bd_d4c5,
        "fig4_delay smoke document drifted; if intended, regenerate with \
         `fig4_delay --max-rounds 60 --replicates 2 --jobs 2 --json out.json` \
         and pin the new digest ({digest:#x})"
    );
}

#[test]
fn ablation_h_document_is_bit_stable() {
    let digest = run_and_digest("ablation_h", env!("CARGO_BIN_EXE_ablation_h"));
    assert_eq!(
        digest, 0xf8cf_ba6a_1ce2_7ad7,
        "ablation_h smoke document drifted; if intended, regenerate with \
         `ablation_h --max-rounds 60 --replicates 2 --jobs 2 --json out.json` \
         and pin the new digest ({digest:#x})"
    );
}

#[test]
fn digest_normalization_strips_only_wall_secs() {
    let a = "{\n  \"x\": 1,\n  \"wall_secs\": 0.5,\n  \"y\": 2\n}";
    let b = "{\n  \"x\": 1,\n  \"wall_secs\": 99.125,\n  \"y\": 2\n}";
    let c = "{\n  \"x\": 1,\n  \"wall_secs\": 0.5,\n  \"y\": 3\n}";
    assert_eq!(normalized_digest(a), normalized_digest(b));
    assert_ne!(normalized_digest(a), normalized_digest(c));
}
