#!/usr/bin/env bash
# Full CI gate: formatting of the crates already rustfmt-clean, release
# build, the complete workspace test suite, lint-clean clippy and docs,
# then the benchmark's unit tests and its toy-size smoke run.
# Run locally before pushing; .github/workflows/ci.yml runs the same
# steps.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt -p hacc-pm -p hacc-ics -p hacc-genio --check  (formatting, ratcheted crate by crate)"
cargo fmt -p hacc-pm -p hacc-ics -p hacc-genio --check

echo "==> cargo build --workspace --release"
cargo build --workspace --release

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> cargo run --release --example quickstart  (the public serial API end to end, 16³)"
cargo run --release --example quickstart

echo "==> cargo test --release -p hacc-short --lib detection_is_stable -- --nocapture  (the SIMD level verified below)"
cargo test --release -q -p hacc-short --lib detection_is_stable -- --nocapture

echo "==> cargo test --release -p hacc-fft --lib detection_is_stable -- --nocapture  (the FFT stage lowering)"
cargo test --release -q -p hacc-fft --lib detection_is_stable -- --nocapture

echo "==> cargo test --release -p hacc-short --lib --test periodic --test tile_oracle -- --include-ignored  (48³ periodic tree oracle, 48³ cut invariance, tile oracle)"
cargo test --release -q -p hacc-short --lib --test periodic --test tile_oracle -- --include-ignored

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo bench --workspace --no-run"
cargo bench --workspace --no-run

echo "==> RUSTDOCFLAGS=\"-D warnings\" cargo doc --workspace --no-deps"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo xtask verify  (lint wall, deny, loom; miri/tsan when installed)"
cargo xtask verify

echo "==> comm_volume  (two-level gate: a2a_ratio and a2a_ratio_warm_step >= 6.5)"
cargo build --release -p hacc-bench --bin comm_volume
./target/release/comm_volume --json out/bench/comm_volume.json
for key in a2a_ratio a2a_ratio_warm_step; do
  ratio=$(sed -n "s/.*\"$key\": \([0-9.]*\).*/\1/p" out/bench/comm_volume.json)
  echo "$key = $ratio"
  awk -v s="$ratio" 'BEGIN { exit !(s >= 6.5) }'
done

echo "==> cargo test --offline --manifest-path benchmark/Cargo.toml"
cargo test --offline --manifest-path benchmark/Cargo.toml

echo "==> bash benchmark/run.sh --smoke  (pm.inproc2 == pm.socket2 digest, 0 CRC rejects, 0 retries)"
bash benchmark/run.sh --smoke

echo "==> CI gate passed"
