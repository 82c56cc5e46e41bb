#!/usr/bin/env bash
# Builds the server and the load generator from source, then runs the
# benchmark. All arguments go to the generator:
#
#   run.sh --workload W --seed N --seconds S --trace 0|1   one workload; last
#                                                          stdout line = result
#   run.sh [--seed N] [--seconds S]     all workloads, wire and traced
#   run.sh --quick                      the same at 2 s per run, as a smoke test
#   run.sh --repeat N [--seed N]        N runs per workload on N seeds: spread
#                                       of every end-to-end metric vs its bound
set -euo pipefail
cd "$(dirname "$0")/.."

# One target directory for both workspaces (the driver exports its own).
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path Cargo.toml --bin chatiyp >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2

LOADBENCH_RUSTC="$(rustc --version)" exec "$CARGO_TARGET_DIR/release/chatiyp-loadbench" "$@"
