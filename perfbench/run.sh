#!/usr/bin/env bash
# Builds perfbench from the checkout it is started in and runs it with the
# given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload macro --seed 1 --seconds 10 --trace 0
#
# The binary and the Go build cache live in .bench_build/ under the
# current directory; nothing is written elsewhere.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
