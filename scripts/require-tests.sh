#!/usr/bin/env bash
# Fails unless every name in a go test -run pattern of the form '^(A|B|…)$'
# is a test, benchmark, fuzz target or example in the given packages. A -run
# pattern that matches nothing passes, so a step that selects tests by name
# would otherwise stop running a renamed or deleted test without failing.
#
# Usage: scripts/require-tests.sh '^(TestA|TestB)$' ./internal/a/ ./internal/b/
set -euo pipefail

pattern=$1
shift
want=$(sed -E 's/^\^\(//; s/\)\$$//' <<<"$pattern" | tr '|' '\n' | sort -u)
have=$(go test -list "$pattern" "$@" | { grep -E '^(Test|Benchmark|Fuzz|Example)' || true; } | sort -u)
missing=$(comm -23 <(echo "$want") <(echo "$have"))
if [ -n "$missing" ]; then
	echo "go test -run '$pattern' matches $(grep -c . <<<"$have" || true) of the $(grep -c . <<<"$want") tests it lists; missing:" >&2
	echo "$missing" >&2
	exit 1
fi
