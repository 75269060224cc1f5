#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the repository root. Build outputs, the Go build cache and
# run records all go under .bench_build (or $CARGO_TARGET_DIR when set),
# so nothing outside the checkout is written. Without the repository's
# sources next to perfbench/ the build fails and no result is printed.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp GOTOOLCHAIN=local GOPROXY=off GOWORK=off

if [ ! -f "$here/../go.mod" ]; then
	echo "perfbench: no repository sources next to $here" >&2
	exit 2
fi

# Provenance: the commit when this is a git work tree, otherwise a hash
# of the Go sources, so records of different code never look alike.
if commit=$(git -C "$here/.." rev-parse HEAD 2>/dev/null); then
	if [ -n "$(git -C "$here/.." status --porcelain -- '*.go' go.mod 2>/dev/null)" ]; then
		commit="$commit+dirty"
	fi
else
	commit="src:$(cd "$here/.." && find . -path ./.bench_build -prune -o \( -name '*.go' -o -name go.mod \) -type f -print | LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)"
fi
export PERFBENCH_COMMIT=$commit

(cd "$here" && go build -o "$build/perfbench-bin" .)
exec "$build/perfbench-bin" --out "$build/perfbench" "$@"
