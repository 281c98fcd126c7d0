#!/usr/bin/env bash
# Snapshot the acquisition hot-path benchmarks into BENCH_<n>.json, seeding
# the repo's perf trajectory. Each snapshot records ns/op, B/op and
# allocs/op for the hot-path benchmarks and numeric-core microbenchmarks
# (best of -count runs, to damp scheduler noise) plus the environment they
# ran in.
#
# Usage:
#   scripts/bench.sh [n]        # writes BENCH_<n>.json at the repo root
#
# n defaults to the next unused index. Compare snapshots with e.g.
#   jq -s '.[0].benchmarks, .[1].benchmarks' BENCH_0.json BENCH_1.json
set -euo pipefail

cd "$(dirname "$0")/.."

BENCHES='^(BenchmarkMBOSuggestBatch|BenchmarkMBOSuggestBatchLive|BenchmarkGPFit|BenchmarkFigure9|BenchmarkFLScale|BenchmarkFleetScale|BenchmarkCholeskyBlocked|BenchmarkCholeskyScalar|BenchmarkPredictBatchFused|BenchmarkILPSolve)$'
COUNT="${BENCH_COUNT:-3}"

n="${1:-}"
if [[ -z "$n" ]]; then
  # Next index after the highest existing snapshot (gaps stay gaps).
  n=0
  for f in BENCH_*.json; do
    [[ -e "$f" ]] || continue
    i="${f#BENCH_}"
    i="${i%.json}"
    [[ "$i" =~ ^[0-9]+$ ]] && ((i >= n)) && n=$((i + 1))
  done
fi
out="BENCH_${n}.json"

export GO_VERSION="$(go env GOVERSION)"
export BENCH_GOMAXPROCS="${GOMAXPROCS:-$(getconf _NPROCESSORS_ONLN)}"

raw="$(go test -run='^$' -bench="$BENCHES" -benchmem -benchtime=1x -count="$COUNT" . 2>&1)"
echo "$raw"

echo "$raw" | awk -v out="$out" -v count="$COUNT" '
  /^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)   # strip the GOMAXPROCS suffix if present
    ns = $3
    if (!(name in best) || ns + 0 < best[name] + 0) {
      best[name] = ns
      # Keep the custom metrics (pool fan-out stats, figure metrics) that
      # rode along with the best run: fields come in <value> <unit> pairs.
      # Fields run <name> <iters> <value> <unit> [<value> <unit>]...; skip
      # the leading ns/op pair already captured in best[].
      extra[name] = ""
      for (i = 5; i + 1 <= NF; i += 2) {
        extra[name] = extra[name] sprintf(", \"%s\": %s", $(i + 1), $i)
      }
    }
    if (order[name] == "") { order[name] = ++k; names[k] = name }
  }
  /^cpu:/ { sub(/^cpu: /, ""); cpu = $0 }
  END {
    printf "{\n"
    printf "  \"schema\": \"bofl-bench-v1\",\n"
    printf "  \"go\": \"%s\",\n", ENVIRON["GO_VERSION"]
    printf "  \"cpu\": \"%s\",\n", cpu
    printf "  \"gomaxprocs\": %s,\n", ENVIRON["BENCH_GOMAXPROCS"]
    printf "  \"count\": %s,\n", count
    printf "  \"benchmarks\": {\n"
    for (i = 1; i <= k; i++) {
      printf "    \"%s\": {\"ns_per_op\": %s%s}%s\n", names[i], best[names[i]], extra[names[i]], (i < k ? "," : "")
    }
    printf "  }\n"
    printf "}\n"
  }
' > "$out"

echo "wrote $out"
