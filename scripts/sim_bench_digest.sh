#!/usr/bin/env bash
# Simulator output digest: runs the 13 benches that drive only the
# discrete-event simulator and prints one sha256 of each bench's stdout.
# The simulator is deterministic, so two builds whose simulated numbers
# agree print identical digests; diffing the output of this script across
# two build directories is the "byte-identical simulator output" check.
#
# Usage: sim_bench_digest.sh <build-dir>
set -euo pipefail

BUILD=${1:?usage: sim_bench_digest.sh <build-dir>}

BENCHES=(bench_table1 bench_fig3_idle bench_fig4_spectral bench_fig5_staleness
         bench_fig7_convergence bench_fig8_group_size bench_fig9_production
         bench_fig10_imagenet bench_fig11_scalability bench_ablation_dynamic
         bench_ablation_frozen bench_ablation_overlap bench_theory_bound)

status=0
for bench in "${BENCHES[@]}"; do
  bin="$BUILD/bench/$bench"
  if [[ ! -x "$bin" ]]; then
    echo "missing $bin" >&2
    status=1
    continue
  fi
  if ! digest=$("$bin" | sha256sum); then
    echo "$bench failed" >&2
    status=1
    continue
  fi
  echo "${digest%% *}  $bench"
done
exit "$status"
