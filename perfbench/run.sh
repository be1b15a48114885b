#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs it, passing every argument through:
#
#   bash perfbench/run.sh --workload map-grow --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The build cache, the binary and the
# result files all stay inside the checkout (.bench_build, .perfbench).
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root; the program's sources are not here" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOPROXY=off GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
# Results name the commit they measured where the checkout knows it.
PERFBENCH_COMMIT=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
export PERFBENCH_COMMIT
exec "$build/perfbench" "$@"
