#!/bin/sh
# experiments_smoke.sh — run a slice of the figure harness at tiny scale
# through the classic AND sharded engines and diff the table shapes.
#
# The engines draw from different joint laws for d >= 2 (the sharded
# engine is the partitioned relaxation), so values legitimately differ;
# what must NOT differ is the shape of the output: the same figure must
# produce the same TSV files, with identical titles, identical column
# headers and identical row counts, whichever engine ran it. A missing
# file, a dropped row or a renamed column means an engine port broke
# the harness contract.
#
# Usage: scripts/experiments_smoke.sh [path-to-bnbfig]
#   Without an argument the binary is built into a temp dir first.
#
# Figure choice: fig01 (uniform-capacity baseline sweep), fig10
# (heterogeneous capacities) and fig14 (growth sweep — exercises the
# default shard-count heuristic at several n). All three are
# sharded-eligible: no per-repetition ArrayFn and no class tracking.
# ext-cluster pins the cluster engine itself and must ignore -engine:
# a cluster spec under an explicit sharded engine would be rejected.
set -eu

cd "$(dirname "$0")/.."

BNBFIG="${1:-}"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
if [ -z "$BNBFIG" ]; then
	BNBFIG="$TMP/bnbfig"
	go build -o "$BNBFIG" ./cmd/bnbfig
fi

FIGS="fig01 fig10 fig14 ext-cluster"
REPS=3
SCALE=0.02
SEED=20260808

fail=0
for fig in $FIGS; do
	for engine in classic sharded; do
		dir="$TMP/${fig}_${engine}"
		"$BNBFIG" -fig "$fig" -reps "$REPS" -scale "$SCALE" -seed "$SEED" \
			-engine "$engine" -out "$dir" > /dev/null
	done
	a="$TMP/${fig}_classic"
	b="$TMP/${fig}_sharded"

	# Same file set from both engines.
	(cd "$a" && ls) > "$TMP/files_a"
	(cd "$b" && ls) > "$TMP/files_b"
	if ! diff -u "$TMP/files_a" "$TMP/files_b"; then
		echo "SMOKE FAIL: $fig emits different file sets per engine" >&2
		fail=1
		continue
	fi

	for f in $(cat "$TMP/files_a"); do
		# Shape = title + column-header comment lines plus the row count;
		# data cells are stripped (values legitimately differ for d >= 2,
		# where the sharded engine samples the partitioned relaxation).
		shape() {
			grep '^#' "$1"
			wc -l < "$1"
		}
		shape "$a/$f" > "$TMP/shape_a"
		shape "$b/$f" > "$TMP/shape_b"
		if ! diff -u "$TMP/shape_a" "$TMP/shape_b"; then
			echo "SMOKE FAIL: $fig/$f table shape differs between classic and sharded" >&2
			fail=1
		else
			echo "ok    $fig/$f: same shape ($(wc -l < "$a/$f") lines) on both engines"
		fi
	done
done

if [ "$fail" -ne 0 ]; then
	echo "experiments_smoke.sh: engine ports disagree on table shape" >&2
	exit 1
fi
echo "experiments_smoke.sh: classic and sharded engines agree on all table shapes"
