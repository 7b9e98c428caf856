#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it. Run it from
# the repository root:
#
#   bash restorebench/run.sh --workload warm-mix --seed 1 --seconds 25 --trace 0
#
# The binary, the Go build cache and the traced run's span dumps all live
# under .bench_build/, so a run reads and writes nothing outside the
# checkout. A failed build exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" \
	GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/restorebench" && go build -o "$build/restorebench" .) >&2
exec "$build/restorebench" "$@"
