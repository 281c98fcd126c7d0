#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload pace --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh compare base.jsonl change.jsonl
#
# Everything the build writes (binary, Go build cache, temp files) stays under
# .bench_build/ at the checkout root. Exits non-zero without a result when the
# repository's sources are missing.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${root}/.bench_build"
mkdir -p "${build}/gocache" "${build}/tmp" "${build}/home"
(
	cd "${root}/perfbench"
	HOME="${build}/home" XDG_CONFIG_HOME="${build}/home" \
		GOCACHE="${build}/gocache" GOTMPDIR="${build}/tmp" TMPDIR="${build}/tmp" \
		GOPATH="${build}/home/go" GOTOOLCHAIN=local GOPROXY=off GOWORK=off \
		GOTELEMETRY=off \
		go build -o "${build}/perfbench" .
) >&2
cd "${root}"
exec "${build}/perfbench" "$@"
