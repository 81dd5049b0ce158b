#!/usr/bin/env bash
# Builds perfbench from the sources of this checkout and runs it with the
# given arguments, from the checkout root:
#
#   bash perfbench/run.sh --workload paper-braun --seed 1 --seconds 12 --trace 0
#
# Everything the build writes (binary, Go build cache, go command state)
# goes under .bench_build in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
