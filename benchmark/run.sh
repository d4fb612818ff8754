#!/usr/bin/env bash
# Builds the benchmark offline (no registry access is needed: every
# dependency is a path inside this repository) and runs it with the given
# arguments. Run from the repository root:
#
#   benchmark/run.sh --workload udp_steady --seed 1 --seconds 20 --trace 0
#   benchmark/run.sh all --seed 1 --runs 5 --json benchmark/out/run.json
#   benchmark/run.sh compare benchmark/results/baseline.json benchmark/out/run.json
#
# The build goes to $CARGO_TARGET_DIR when set, else to benchmark/target,
# so it never touches the repository's own target directory.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" 1>&2
exec "$CARGO_TARGET_DIR/release/urcgc-benchmark" "$@"
