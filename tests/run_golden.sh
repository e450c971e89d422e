#!/usr/bin/env bash
# Golden bench outputs: rerun the figure, ablation and extension benches
# at PAGESIM_TRIALS=2 and compare each one's stdout with
# tests/golden/<bench>.txt. The outputs do not depend on the worker
# count, so any difference is a change in simulated behaviour or in
# what a bench prints.
#
#   bash tests/run_golden.sh <build-dir>            compare; exit 1 on a diff
#   bash tests/run_golden.sh <build-dir> --record   rewrite the golden files
#
# A change that moves simulated behaviour on purpose re-records the
# golden files with --record in their own commit, as it does for the
# fingerprint pins.
set -euo pipefail

build=${1:?usage: $0 <build-dir> [--record]}
record=${2:-}
golden=$(cd "$(dirname "$0")" && pwd)/golden
benches=(
  fig01_mean_ssd50 fig02_joint_ssd50 fig03_tails_ssd50
  fig04_variants_mean fig05_variants_joint fig06_capacity_mean
  fig07_capacity_faults fig08_capacity_tails fig09_zram_mean
  fig10_zram_faults fig11_zram_vs_ssd fig12_zram_tails
  ablation_bloom ablation_tiers ext_tpp_tiering ext_memcg_colocation
)

out=$(mktemp)
trap 'rm -f "$out"' EXIT
status=0
for bench in "${benches[@]}"; do
  PAGESIM_TRIALS=2 "$build/bench/$bench" > "$out"
  if [ "$record" = --record ]; then
    cp "$out" "$golden/$bench.txt"
  elif ! diff -u "$golden/$bench.txt" "$out"; then
    echo "golden: $bench differs from tests/golden/$bench.txt" >&2
    status=1
  fi
done
[ "$record" = --record ] || echo "golden: ${#benches[@]} bench outputs checked"
exit $status
