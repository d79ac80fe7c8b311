#!/usr/bin/env bash
# Builds the relqueryd benchmark from this checkout's sources and runs it
# with the given arguments (see perfbench/README.md). Run from the root
# of the checkout: bash perfbench/run.sh --workload warm --seed 1
# --seconds 10 --trace 0. Build caches and outputs stay under
# .bench_build/ in the checkout.
set -euo pipefail
out="$(pwd)/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off GOFLAGS=
(cd perfbench && go build -o "$out/relbench" .) >&2
exec "$out/relbench" "$@"
