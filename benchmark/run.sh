#!/bin/sh
# Builds the benchmark from the checkout it is run in and runs it with the
# given arguments. Run from the repository root:
#
#   bash benchmark/run.sh --workload paper-cold --seed 1 --seconds 20 --trace 0
#
# Every build product stays under .bench_build/ in the checkout. Outside a
# full checkout (no ../go.mod for the replace directive) the build fails and
# the script exits nonzero without printing a result.
set -eu
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
GOCACHE="$build/gocache"
GOMODCACHE="$build/gomodcache"
GOPATH="$build/gopath"
GOTOOLCHAIN=local
GOWORK=off
GOFLAGS=
export GOCACHE GOMODCACHE GOPATH GOTOOLCHAIN GOWORK GOFLAGS
(cd benchmark && go build -o "$build/benchmark" .)
exec "$build/benchmark" "$@"
