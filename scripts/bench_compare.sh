#!/bin/sh
# bench_compare.sh — fail when the current benchmark run regresses
# against a committed baseline.
#
# Usage: scripts/bench_compare.sh <baseline.json> <current.json> [tolerance_pct]
#
# Both files are bench.sh output (benchmark -> {ns_per_op, bytes_per_op,
# allocs_per_op}). The script fails when, for any benchmark present in
# BOTH files:
#   - ns_per_op regresses by more than tolerance_pct percent (default 25,
#     also settable via BENCH_TOLERANCE_PCT), or
#   - allocs_per_op increases at all (allocation count is deterministic
#     for a fixed GOMAXPROCS, so any increase is a real regression, not
#     noise) — checked only when both files record the same
#     _topology.gomaxprocs, because a few allocations (worker and
#     routing-group counts) follow GOMAXPROCS.
# Benchmarks present in only one file WARN and never fail: new
# benchmarks have no baseline to regress against, and retired ones no
# current number — both are expected while the suite grows PR over PR.
#
# When both files carry a "_topology" entry (bench.sh records
# GOOS/GOARCH, CPU count and GOMAXPROCS) and they differ, a warning is
# printed: ns/op comparisons across differing boxes are indicative
# only, not grounds for a verdict. The ns/op comparison still runs; the
# allocs/op check runs only when both GOMAXPROCS values are recorded
# and equal (otherwise the counts are printed, not judged).
set -eu

if [ $# -lt 2 ]; then
	echo "usage: $0 <baseline.json> <current.json> [tolerance_pct]" >&2
	exit 2
fi
BASE="$1"
CUR="$2"
TOL="${3:-${BENCH_TOLERANCE_PCT:-25}}"

command -v jq >/dev/null 2>&1 || { echo "bench_compare.sh: jq is required" >&2; exit 2; }
jq -e . "$BASE" >/dev/null || { echo "bench_compare.sh: $BASE is not valid JSON" >&2; exit 2; }
jq -e . "$CUR" >/dev/null || { echo "bench_compare.sh: $CUR is not valid JSON" >&2; exit 2; }

# Topology check: compare like with like. Older baselines without a
# _topology entry compare as "null" and only warn if the current file
# has one (and vice versa).
base_topo=$(jq -cS '."_topology" // null' "$BASE")
cur_topo=$(jq -cS '."_topology" // null' "$CUR")
if [ "$base_topo" != "$cur_topo" ]; then
	echo "WARN  box topology differs between baseline and current run:"
	echo "WARN    baseline: $base_topo"
	echo "WARN    current:  $cur_topo"
	echo "WARN  ns/op deltas across differing boxes are indicative only"
fi

# The allocs/op fence compares like with like: same GOMAXPROCS.
base_procs=$(jq -r '."_topology".gomaxprocs // "unrecorded"' "$BASE")
cur_procs=$(jq -r '."_topology".gomaxprocs // "unrecorded"' "$CUR")
allocs_fence=0
if [ "$base_procs" != unrecorded ] && [ "$base_procs" = "$cur_procs" ]; then
	allocs_fence=1
else
	echo "WARN  GOMAXPROCS differs (baseline $base_procs, current $cur_procs): allocs/op shown, not compared"
fi

fail=0
for name in $(jq -r 'keys[] | select(. != "_topology")' "$BASE"); do
	if ! jq -e --arg n "$name" 'has($n)' "$CUR" >/dev/null; then
		echo "WARN  $name: absent from current run (retired benchmark?), not compared"
		continue
	fi
	base_ns=$(jq -r --arg n "$name" '.[$n].ns_per_op // empty' "$BASE")
	cur_ns=$(jq -r --arg n "$name" '.[$n].ns_per_op // empty' "$CUR")
	base_allocs=$(jq -r --arg n "$name" '.[$n].allocs_per_op // empty' "$BASE")
	cur_allocs=$(jq -r --arg n "$name" '.[$n].allocs_per_op // empty' "$CUR")

	if [ -n "$base_ns" ] && [ -n "$cur_ns" ]; then
		if awk -v b="$base_ns" -v c="$cur_ns" -v t="$TOL" \
			'BEGIN { exit !(c > b * (1 + t / 100)) }'; then
			printf 'FAIL  %s: ns/op %s -> %s (> +%s%%)\n' "$name" "$base_ns" "$cur_ns" "$TOL"
			fail=1
			continue
		fi
	fi
	if [ "$allocs_fence" -eq 1 ] && [ -n "$base_allocs" ] && [ -n "$cur_allocs" ]; then
		if awk -v b="$base_allocs" -v c="$cur_allocs" 'BEGIN { exit !(c > b) }'; then
			printf 'FAIL  %s: allocs/op %s -> %s (any increase fails)\n' "$name" "$base_allocs" "$cur_allocs"
			fail=1
			continue
		fi
	fi
	printf 'ok    %s: ns/op %s -> %s, allocs/op %s -> %s\n' \
		"$name" "${base_ns:-?}" "${cur_ns:-?}" "${base_allocs:-?}" "${cur_allocs:-?}"
done
for name in $(jq -r 'keys[] | select(. != "_topology")' "$CUR"); do
	if ! jq -e --arg n "$name" 'has($n)' "$BASE" >/dev/null; then
		echo "WARN  $name: absent from baseline (new benchmark), not compared"
	fi
done

if [ "$fail" -ne 0 ]; then
	echo "bench_compare.sh: benchmark regression against $BASE (tolerance ${TOL}%)" >&2
	exit 1
fi
echo "bench_compare.sh: no regressions against $BASE (tolerance ${TOL}%)"
