#!/usr/bin/env bash
# The whole benchmark in one command: build, then run every workload twice,
# untraced (end-to-end metrics) and traced (per-layer metrics), each run its
# own process so peak memory is per workload. Every metric is printed by name
# with its unit; result files land in perf/out/ (see README.md).
#
#   perf/run.sh [--seed N] [--seconds S] [--runs R] [--out DIR] [--ops N] [--smoke]
#
# Exits non-zero if any run reports a failed operation or output check.
set -euo pipefail
cd "$(dirname "$0")/.."

seed=42 seconds=15 runs=1 out=perf/out extra=()
while (($#)); do
  case $1 in
    --seed) seed=$2; shift 2 ;;
    --seconds) seconds=$2; shift 2 ;;
    --runs) runs=$2; shift 2 ;;
    --out) out=$2; shift 2 ;;
    --ops) extra+=(--ops "$2"); shift 2 ;;
    --smoke) extra+=(--smoke); shift ;;
    *) sed -n '2,9p' "$0" >&2; exit 2 ;;
  esac
done

perf() { cargo run --release --offline --quiet --manifest-path perf/Cargo.toml -- "$@"; }

status=0
for run in $(seq 1 "$runs"); do
  dir=$out
  ((runs > 1)) && dir=$out/run-$run
  mkdir -p "$dir"
  for workload in imdb_uncached imdb_zipf_serve imdb_click_mix corpus_scale; do
    for trace in 0 1; do
      echo "== $workload  seed $seed  trace $trace  (run $run of $runs)"
      log=$dir/log-$workload-trace$trace.txt
      perf --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" \
        --out "$dir" ${extra[@]+"${extra[@]}"} | tee "$log"
      tail -n 1 "$log" | grep -q '^{"correct": true, ' || status=1
    done
  done
done
((status == 0)) || echo "perf/run.sh: a run reported failed operations or checks" >&2
exit "$status"
