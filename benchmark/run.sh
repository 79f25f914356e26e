#!/usr/bin/env bash
# The repository's benchmark, one command: builds the harness, then runs it.
#
#   benchmark/run.sh                                    all workloads, both passes
#   benchmark/run.sh --workload <name>                  one workload, both passes
#   benchmark/run.sh --check-repeat                     end-to-end pass twice, gaps vs bounds
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#                                                       one pass; last stdout line is JSON
#   --seed <u64> (default 1)   --out <file> (all results, headed by the runner)
#
# Exits non-zero when the build fails or any correctness check fails.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
# Build where the caller says; by default share the repository's target/.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/hdmm-benchmark" "$@"
