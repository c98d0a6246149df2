#!/usr/bin/env bash
# The repo benchmark. Builds the driver, then hands every argument to it:
#
#   run.sh --workload W --seed N --seconds S --trace 0|1   one pass, result line last
#   run.sh [--seed N] [--seconds S] [--workload W] [--out NAME] [--smoke]
#                                                          all workloads, both passes
#   run.sh --compare A.json B.json                         judge B against A
#
# Run from the repository root. See README.md beside this file.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# Build output goes to stderr so the last line of stdout stays the result.
cargo build --release --offline --manifest-path "$here/Cargo.toml" 1>&2

# Cargo resolves a relative CARGO_TARGET_DIR against the directory it is
# run from, which is also where this script runs the binary from.
target="${CARGO_TARGET_DIR:-$here/target}"
export HACC_BENCH_DIR="$here"
export HACC_BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
export HACC_BENCH_COMMIT="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)"
exec "$target/release/hacc-benchmark" "$@"
