#!/usr/bin/env bash
# Run paper-reproduction binaries, capture each one's output under
# out/experiments/<name>.txt, and replace that experiment's recorded
# block in EXPERIMENTS.md. Only the named experiments' blocks change;
# every other block stays byte-identical.
# Usage: scripts/record_experiments.sh [--skip-run] [name ...]
#   name ...    the experiments to record (default: all of them)
#   --skip-run  record from the existing out/experiments/<name>.txt
set -euo pipefail
cd "$(dirname "$0")/.."

BINS=(
  fig5_kernel_threading fig6_poisson_weak_scaling table1_fft_scaling
  table2_weak_scaling table3_strong_scaling fig9_structure_evolution
  fig10_power_spectrum fig2_dynamic_range fig11_halo_subhalos
  accuracy_p3m_vs_treepm timing_breakdown ablation_spectral
  ablation_leaf_size ablation_deposit_order ablation_subcycles
)

skip_run=0
names=()
for arg in "$@"; do
  case "$arg" in
    --skip-run) skip_run=1 ;;
    -*) echo "unknown option: $arg" >&2; exit 2 ;;
    *)
      if [[ " ${BINS[*]} " != *" $arg "* ]]; then
        echo "unknown experiment: $arg (one of: ${BINS[*]})" >&2
        exit 2
      fi
      names+=("$arg")
      ;;
  esac
done
if ((${#names[@]} == 0)); then
  names=("${BINS[@]}")
fi

mkdir -p out/experiments
if ((skip_run == 0)); then
  cargo build --release -p hacc-bench --bins
  for b in "${names[@]}"; do
    echo "== $b"
    ./target/release/"$b" | tee "out/experiments/$b.txt"
  done
fi

# Replace (or insert, in name order) each named experiment's block.
python3 - "${names[@]}" <<'EOF'
import pathlib, re, sys
path = pathlib.Path("EXPERIMENTS.md")
marker = "<!-- recorded-output -->\n"
head, found, tail = path.read_text().partition(marker)
if not found:
    sys.exit("EXPERIMENTS.md has no recorded-output marker")
# The recorded section is one blank line, then `### \`name\`` blocks
# separated by blank lines.
parts = re.split(r"(?m)^(?=### `)", tail)
blocks = {}
for part in parts[1:]:
    blocks[re.match(r"### `([^`]+)`", part).group(1)] = part.rstrip("\n")
for name in sys.argv[1:]:
    text = pathlib.Path(f"out/experiments/{name}.txt").read_text().rstrip()
    blocks[name] = f"### `{name}`\n\n```text\n{text}\n```"
body = "\n\n".join(blocks[n] for n in sorted(blocks))
path.write_text(head + marker + "\n" + body + "\n")
print(f"EXPERIMENTS.md: recorded {', '.join(sys.argv[1:])}")
EOF
