#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout's sources and runs it.
# Run from the repository root:
#
#   bash e2ebench/run.sh --workload sweep-aspen --seed 1 --seconds 10 --trace 0
#
# The build, the Go build cache, the stores each run generates and traces
# all stay under the build directory ($CARGO_TARGET_DIR when set, else
# .bench_build). With --pin instead of --seed/--seconds/--trace it rewrites
# the workload's golden file under e2ebench/golden.
set -euo pipefail

root="$(pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/e2ebench" && go build -o "$build/e2ebench" .) >&2
exec "$build/e2ebench" --state-dir "$build" "$@"
