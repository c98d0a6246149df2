#!/usr/bin/env bash
# Full CI gate: release build, the complete workspace test suite,
# lint-clean clippy and docs, then the benchmark's toy-size smoke run.
# Run locally before pushing; .github/workflows/ci.yml runs the same
# steps.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --workspace --release"
cargo build --workspace --release

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo bench --workspace --no-run"
cargo bench --workspace --no-run

echo "==> RUSTDOCFLAGS=\"-D warnings\" cargo doc --workspace --no-deps"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo xtask verify  (lint wall, deny, loom; miri/tsan when installed)"
cargo xtask verify

echo "==> bash benchmark/run.sh --smoke  (pm.inproc2 == pm.socket2 digest, 0 CRC rejects, 0 retries)"
bash benchmark/run.sh --smoke

echo "==> CI gate passed"
