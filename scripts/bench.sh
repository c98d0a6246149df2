#!/usr/bin/env bash
# Composite performance gates. Two stages, each with a committed baseline:
#
# PR2 — PM pipeline: end-to-end PM step benchmark plus timing-breakdown
# and kernel-threading probes → out/bench/BENCH_pr2.json. The committed
# baseline (out/bench/pm_step_baseline.json) was recorded on the
# complex-to-complex solver before the half-spectrum rework; the gate
# asserts at least MIN_SPEEDUP (default 1.3).
#
# PR4 — short-range solver: the tree_step benchmark (TreePM step
# dominated by the short-range kernel) → out/bench/BENCH_pr4.json. The
# committed baseline (out/bench/tree_step_baseline.json) was recorded on
# the one-sided scalar walk with per-subcycle rebuilds, before the
# symmetric SIMD walk and Verlet-skin reuse; the gate asserts at least
# MIN_TREE_SPEEDUP (default 1.5).
#
# PR7 — FFT microarchitecture: the same pm_step run judged against the
# pre-split-radix baseline (out/bench/pm_step_pr7_baseline.json,
# recorded on the generic mixed-radix scalar FFT) →
# out/bench/BENCH_pr7.json. The gate asserts at least MIN_PM_SPEEDUP
# (default 2.0) on both the step median and the FFT phase.
#
# PR9 — two-level mesh: the comm_volume A/B (single-level vs two-level
# distributed PM, per-tag-class transport counters) →
# out/bench/BENCH_pr9.json. The gates assert the pm_step speedup held
# (no regression from the two-level plumbing) and
# the measured alltoallv bytes dropped at least MIN_A2A_RATIO
# (default 4) at coarsening 2.
#
# Usage: scripts/bench.sh [--quick]
#   --quick  shrink the kernel-threading sweep (CI-friendly)
set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=""
if [[ "${1:-}" == "--quick" ]]; then
  QUICK="--quick"
fi
MIN_SPEEDUP="${MIN_SPEEDUP:-1.3}"
MIN_TREE_SPEEDUP="${MIN_TREE_SPEEDUP:-1.5}"
MIN_PM_SPEEDUP="${MIN_PM_SPEEDUP:-2.0}"
OUT=out/bench
BASELINE="$OUT/pm_step_baseline.json"
TREE_BASELINE="$OUT/tree_step_baseline.json"
PR7_BASELINE="$OUT/pm_step_pr7_baseline.json"
mkdir -p "$OUT"

echo "==> cargo build --release -p hacc-bench"
cargo build --release -p hacc-bench

echo "==> pm_step (end-to-end PM timestep, 128^3 grid)"
./target/release/pm_step --json "$OUT/pm_step_current.json"

echo "==> timing_breakdown (full TreePM phase split)"
./target/release/timing_breakdown --json "$OUT/timing_breakdown.json"

echo "==> fig5_kernel_threading ${QUICK}"
# shellcheck disable=SC2086
./target/release/fig5_kernel_threading $QUICK --json "$OUT/fig5_kernel_threading.json"

base_median=$(sed -n 's/.*"step_ms_median": \([0-9.]*\).*/\1/p' "$BASELINE")
cur_median=$(sed -n 's/.*"step_ms_median": \([0-9.]*\).*/\1/p' "$OUT/pm_step_current.json")
speedup=$(awk -v b="$base_median" -v c="$cur_median" 'BEGIN { printf "%.3f", b / c }')

{
  echo '{'
  echo '  "baseline":'
  sed 's/^/  /' "$BASELINE" | sed '$ s/$/,/'
  echo '  "current":'
  sed 's/^/  /' "$OUT/pm_step_current.json" | sed '$ s/$/,/'
  echo "  \"speedup_median\": $speedup,"
  echo '  "timing_breakdown":'
  sed 's/^/  /' "$OUT/timing_breakdown.json" | sed '$ s/$/,/'
  echo '  "kernel_threading":'
  sed 's/^/  /' "$OUT/fig5_kernel_threading.json"
  echo '}'
} > "$OUT/BENCH_pr2.json"

echo "==> wrote $OUT/BENCH_pr2.json"
echo "    baseline step: ${base_median} ms, current step: ${cur_median} ms, speedup: ${speedup}x"

awk -v s="$speedup" -v m="$MIN_SPEEDUP" 'BEGIN { exit !(s >= m) }' || {
  echo "FAIL: speedup ${speedup}x is below the required ${MIN_SPEEDUP}x" >&2
  exit 1
}
echo "==> PASS: speedup ${speedup}x >= ${MIN_SPEEDUP}x"

echo "==> tree_step (short-range TreePM step: symmetric SIMD walk + skin reuse)"
./target/release/tree_step --json "$OUT/tree_step_current.json"

tree_base=$(sed -n 's/.*"step_ms_median": \([0-9.]*\).*/\1/p' "$TREE_BASELINE")
tree_cur=$(sed -n 's/.*"step_ms_median": \([0-9.]*\).*/\1/p' "$OUT/tree_step_current.json")
tree_speedup=$(awk -v b="$tree_base" -v c="$tree_cur" 'BEGIN { printf "%.3f", b / c }')

{
  echo '{'
  echo '  "baseline":'
  sed 's/^/  /' "$TREE_BASELINE" | sed '$ s/$/,/'
  echo '  "current":'
  sed 's/^/  /' "$OUT/tree_step_current.json" | sed '$ s/$/,/'
  echo "  \"speedup_median\": $tree_speedup,"
  echo "  \"min_required\": $MIN_TREE_SPEEDUP"
  echo '}'
} > "$OUT/BENCH_pr4.json"

echo "==> wrote $OUT/BENCH_pr4.json"
echo "    baseline step: ${tree_base} ms, current step: ${tree_cur} ms, speedup: ${tree_speedup}x"

awk -v s="$tree_speedup" -v m="$MIN_TREE_SPEEDUP" 'BEGIN { exit !(s >= m) }' || {
  echo "FAIL: tree_step speedup ${tree_speedup}x is below the required ${MIN_TREE_SPEEDUP}x" >&2
  exit 1
}
echo "==> PASS: tree_step speedup ${tree_speedup}x >= ${MIN_TREE_SPEEDUP}x"

# PR7 gate: the SIMD split-radix kernels + cache-blocked transposes must
# beat the pre-rework pm_step baseline on BOTH the whole step and the
# FFT phase.
pr7_base_step=$(sed -n 's/.*"step_ms_median": \([0-9.]*\).*/\1/p' "$PR7_BASELINE")
pr7_base_fft=$(sed -n 's/.*"fft_ms_per_step": \([0-9.]*\).*/\1/p' "$PR7_BASELINE")
pr7_cur_step=$(sed -n 's/.*"step_ms_median": \([0-9.]*\).*/\1/p' "$OUT/pm_step_current.json")
pr7_cur_fft=$(sed -n 's/.*"fft_ms_per_step": \([0-9.]*\).*/\1/p' "$OUT/pm_step_current.json")
pr7_cur_cic=$(sed -n 's/.*"cic_ms_per_step": \([0-9.]*\).*/\1/p' "$OUT/pm_step_current.json")
pm_speedup=$(awk -v b="$pr7_base_step" -v c="$pr7_cur_step" 'BEGIN { printf "%.3f", b / c }')
fft_speedup=$(awk -v b="$pr7_base_fft" -v c="$pr7_cur_fft" 'BEGIN { printf "%.3f", b / c }')

{
  echo '{'
  echo '  "baseline":'
  sed 's/^/  /' "$PR7_BASELINE" | sed '$ s/$/,/'
  echo '  "current":'
  sed 's/^/  /' "$OUT/pm_step_current.json" | sed '$ s/$/,/'
  echo "  \"speedup_step_median\": $pm_speedup,"
  echo "  \"speedup_fft\": $fft_speedup,"
  echo "  \"cic_ms_per_step\": $pr7_cur_cic,"
  echo "  \"min_required\": $MIN_PM_SPEEDUP"
  echo '}'
} > "$OUT/BENCH_pr7.json"

echo "==> wrote $OUT/BENCH_pr7.json"
echo "    baseline step: ${pr7_base_step} ms, current step: ${pr7_cur_step} ms, speedup: ${pm_speedup}x"
echo "    baseline fft:  ${pr7_base_fft} ms, current fft:  ${pr7_cur_fft} ms, speedup: ${fft_speedup}x"

awk -v s="$pm_speedup" -v m="$MIN_PM_SPEEDUP" 'BEGIN { exit !(s >= m) }' || {
  echo "FAIL: pm_step speedup ${pm_speedup}x is below the required ${MIN_PM_SPEEDUP}x" >&2
  exit 1
}
awk -v s="$fft_speedup" -v m="$MIN_PM_SPEEDUP" 'BEGIN { exit !(s >= m) }' || {
  echo "FAIL: FFT-phase speedup ${fft_speedup}x is below the required ${MIN_PM_SPEEDUP}x" >&2
  exit 1
}
echo "==> PASS: pm_step ${pm_speedup}x and FFT ${fft_speedup}x >= ${MIN_PM_SPEEDUP}x"

echo "==> comm_volume (two-level mesh alltoallv A/B at c=2)"
./target/release/comm_volume --json "$OUT/comm_volume.json"

# PR9 gates: (a) the two-level machinery must not regress the
# single-level pm_step — judged against the same PR7 baseline and bar;
# (b) the coarse global solve must cut measured alltoallv bytes by at
# least MIN_A2A_RATIO (default 4) versus the single-level solve at the
# same ng, from the per-tag-class transport counters.
MIN_A2A_RATIO="${MIN_A2A_RATIO:-4.0}"
a2a_ratio=$(sed -n 's/.*"a2a_ratio": \([0-9.]*\).*/\1/p' "$OUT/comm_volume.json")
total_ratio=$(sed -n 's/.*"total_ratio": \([0-9.]*\).*/\1/p' "$OUT/comm_volume.json")

{
  echo '{'
  echo '  "pm_step_current":'
  sed 's/^/  /' "$OUT/pm_step_current.json" | sed '$ s/$/,/'
  echo "  \"pm_speedup_vs_pr7_baseline\": $pm_speedup,"
  echo "  \"min_pm_speedup\": $MIN_PM_SPEEDUP,"
  echo "  \"min_a2a_ratio\": $MIN_A2A_RATIO,"
  echo '  "comm_volume":'
  sed 's/^/  /' "$OUT/comm_volume.json"
  echo '}'
} > "$OUT/BENCH_pr9.json"

echo "==> wrote $OUT/BENCH_pr9.json"
echo "    pm_step vs PR7 baseline: ${pm_speedup}x, alltoallv reduction: ${a2a_ratio}x (total ${total_ratio}x)"

awk -v s="$pm_speedup" -v m="$MIN_PM_SPEEDUP" 'BEGIN { exit !(s >= m) }' || {
  echo "FAIL: pm_step speedup ${pm_speedup}x regressed below ${MIN_PM_SPEEDUP}x" >&2
  exit 1
}
awk -v s="$a2a_ratio" -v m="$MIN_A2A_RATIO" 'BEGIN { exit !(s >= m) }' || {
  echo "FAIL: alltoallv reduction ${a2a_ratio}x is below the required ${MIN_A2A_RATIO}x" >&2
  exit 1
}
echo "==> PASS: pm_step ${pm_speedup}x held and alltoallv cut ${a2a_ratio}x >= ${MIN_A2A_RATIO}x"
