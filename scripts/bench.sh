#!/bin/sh
# bench.sh — run the hot-path benchmark suite and emit BENCH_<N>.json so
# the perf trajectory is tracked across PRs.
#
# Usage: scripts/bench.sh [N]
#   N is the PR index used in the output filename (default 1), or the
#   literal "ci" for the bench-regression CI job (same suite, shorter
#   benchtime, output BENCH_ci.json — never commit that file).
#
# The JSON maps benchmark name -> {ns_per_op, bytes_per_op, allocs_per_op},
# plus a "_topology" entry recording the box the numbers were taken on
# (GOOS/GOARCH, CPU count, GOMAXPROCS) so bench_compare.sh can warn when
# a comparison crosses machines. Missing -benchmem fields are emitted as
# JSON null; the output is always valid JSON (self-checked with
# `jq -e .` when jq is available), including the no-benchmarks-matched
# case.
set -eu

cd "$(dirname "$0")/.."

N="${1:-1}"
OUT="BENCH_${N}.json"
# The ci mode keeps the recorded-baseline benchtime (1s) by default so
# CI numbers are not additionally skewed against the committed
# BENCH_<N>.json by a shorter measurement window.
BENCHTIME="1s"
if [ "$N" = "ci" ]; then
	BENCHTIME="${BENCH_CI_BENCHTIME:-1s}"
fi
RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

# Box topology, recorded alongside the numbers so bench_compare.sh can
# warn when a comparison crosses machines (ns/op is only meaningful
# like-with-like) and compare allocs/op only between runs at the same
# GOMAXPROCS (a few allocations depend on it). GOMAXPROCS defaults to
# the CPU count unless set in the environment, and is exported so the
# benchmarks run at exactly the recorded value.
GOOS_V="$(go env GOOS)"
GOARCH_V="$(go env GOARCH)"
NUM_CPU="$(getconf _NPROCESSORS_ONLN 2>/dev/null || nproc 2>/dev/null || echo 0)"
GOMAXPROCS_V="${GOMAXPROCS:-$NUM_CPU}"
export GOMAXPROCS="$GOMAXPROCS_V"
TOPO="{\"goos\": \"${GOOS_V}\", \"goarch\": \"${GOARCH_V}\", \"num_cpu\": ${NUM_CPU}, \"gomaxprocs\": ${GOMAXPROCS_V}}"

# BenchmarkRouteBalls* (old per-ball routing vs the block-wise
# multinomial pass) lives in internal/sim, the observation-kernel
# suite (BenchmarkObsSnapshot*, scan-vs-histogram at n=10⁶/64 shards)
# in internal/obs and the serving ring's build and churn
# (BenchmarkRing*) in internal/chash, so the suite spans four
# packages; the awk emitter below keys on benchmark lines only and is
# package-agnostic.
go test -run '^$' -bench 'BenchmarkPlace|BenchmarkSimulateSmall|BenchmarkSimulateLargeCheckpoints|BenchmarkRunLargeSharded|BenchmarkRunLargeMonte|BenchmarkRunStream|BenchmarkClusterTick|BenchmarkRouteBalls|BenchmarkObsSnapshot|BenchmarkRing' \
	-benchmem -benchtime "$BENCHTIME" -count 1 . ./internal/sim ./internal/obs ./internal/chash | tee "$RAW"

awk -v topo="$TOPO" '
# jnum renders a benchmark metric as a JSON value: the number itself,
# or null when the field was absent from the line (e.g. -benchmem off).
function jnum(x) {
	if (x == "") {
		return "null"
	}
	return x
}
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name)   # strip the GOMAXPROCS suffix
	ns = ""; bytes = ""; allocs = ""
	for (i = 2; i < NF; i++) {
		if ($(i+1) == "ns/op") ns = $i
		if ($(i+1) == "B/op") bytes = $i
		if ($(i+1) == "allocs/op") allocs = $i
	}
	if (ns != "") {
		results[++n] = sprintf("  \"%s\": {\"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}",
			name, jnum(ns), jnum(bytes), jnum(allocs))
	}
}
END {
	print "{"
	printf "  \"_topology\": %s%s\n", topo, (n > 0 ? "," : "")
	for (i = 1; i <= n; i++) printf "%s%s\n", results[i], (i < n ? "," : "")
	print "}"
}
' "$RAW" > "$OUT"

# Self-check: the emitted file must be valid JSON. Fail the script (and
# any CI job running it) if the emitter ever regresses.
if command -v jq >/dev/null 2>&1; then
	jq -e . "$OUT" >/dev/null || { echo "bench.sh: $OUT is not valid JSON" >&2; exit 1; }
else
	echo "bench.sh: warning: jq not found, skipping JSON self-check" >&2
fi

echo "wrote $OUT"
