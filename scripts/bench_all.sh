#!/usr/bin/env bash
# Runs the benchmark suite and collects every datapoint as JSONL.
#
#   scripts/bench_all.sh                      # all benches -> bench_results.jsonl
#   scripts/bench_all.sh out.jsonl            # all benches -> out.jsonl
#   scripts/bench_all.sh out.jsonl lgc_hot    # only binaries matching the regex
#
# Each bench binary appends one JSON object per datapoint to the output
# file via the RGC_BENCH_JSONL hook (bench/bench_util.h).  The committed
# BENCH_seed.json was captured with
#   scripts/bench_all.sh BENCH_seed.json lgc_hotpath
# *before* the mark-epoch/parallel-phase optimization landed, so the perf
# trajectory has a fixed reference point (see docs/PERFORMANCE.md).
set -euo pipefail

cd "$(dirname "$0")/.."

OUT="${1:-bench_results.jsonl}"
FILTER="${2:-.}"
JOBS=$(nproc 2>/dev/null || echo 4)

BENCHES=(
  lgc_hotpath
  cluster_scale
  fig6_lgc_total_overhead
  fig7_lgc_unitary_cost
  fig8_cdm_per_step
  fig9_cdm_totals
  table2_steps_to_detection
  ablation_policies
  ablation_candidates
  ablation_race_barrier
)

cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS" >/dev/null

: > "$OUT"
for b in "${BENCHES[@]}"; do
  [[ "$b" =~ $FILTER ]] || continue
  echo "== $b =="
  RGC_BENCH_JSONL="$OUT" "./build/bench/$b"
done
echo "wrote $(wc -l < "$OUT") datapoints to $OUT"

# Perf trajectory: diff this run against the newest committed BENCH_*.json
# baseline, skipping the one we just wrote (if OUT itself is a baseline
# being refreshed).  Baselines are ordered by name, not by commit time
# (commits can share a timestamp): BENCH_seed.json first, then
# BENCH_pr<N>.json by numeric N.
if command -v python3 >/dev/null 2>&1; then
  BASELINE=""
  BEST=-1
  while IFS= read -r f; do
    [[ "$f" -ef "$OUT" ]] && continue
    case "$f" in
      BENCH_seed.json) rank=0 ;;
      BENCH_pr*.json)
        n="${f#BENCH_pr}"
        n="${n%.json}"
        [[ "$n" =~ ^[0-9]+$ ]] || continue
        rank=$((10#$n + 1))
        ;;
      *) continue ;;
    esac
    if ((rank > BEST)); then
      BEST="$rank"
      BASELINE="$f"
    fi
  done < <(git ls-files 'BENCH_*.json' 2>/dev/null)
  if [[ -n "$BASELINE" ]]; then
    # --gate: >10% regression in the guarded headline fields (see
    # bench_diff.py GATED) fails the whole run.
    echo "baseline: $BASELINE"
    python3 scripts/bench_diff.py --gate "$BASELINE" "$OUT"
  else
    echo "no committed BENCH_*.json baseline to diff against"
  fi
fi
