#!/usr/bin/env bash
# Runs paired untraced benchmark runs of two checkouts and compares them:
# for each seed 1..COUNT and each workload, one run of BASE and one of
# CHANGE, alternating which side runs first, so host drift reaches both.
# Results go to OUT/base.jsonl and OUT/change.jsonl.
#
#   bash perfbench/pairs.sh /tmp/cmp 10 ../parent . pace round-flat round-http
#
# Passing one checkout twice gives two result sets of the same code, whose
# spreads and medians the bounds in BENCHMARK.json must hold. Each run
# measures the benchmark's default time, BENCHMARK.json's run_seconds.
set -euo pipefail
if [ $# -lt 5 ]; then
	echo "usage: pairs.sh OUT COUNT BASE CHANGE WORKLOAD..." >&2
	exit 2
fi
out="$1" count="$2" base="$(cd "$3" && pwd)" change="$(cd "$4" && pwd)"
shift 4
mkdir -p "${out}"
out="$(cd "${out}" && pwd)"
run() { # side checkout seed workload
	bash "$2/perfbench/run.sh" --workload "$4" --seed "$3" --trace 0 \
		--out "${out}/$1.jsonl" | tail -n 1
}
for seed in $(seq 1 "${count}"); do
	for w in "$@"; do
		if [ $((seed % 2)) -eq 1 ]; then
			run base "${base}" "${seed}" "${w}"
			run change "${change}" "${seed}" "${w}"
		else
			run change "${change}" "${seed}" "${w}"
			run base "${base}" "${seed}" "${w}"
		fi
	done
done
cd "${change}"
bash perfbench/run.sh compare "${out}/base.jsonl" "${out}/change.jsonl"
