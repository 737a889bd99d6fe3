#!/usr/bin/env bash
# Builds passjoind and the pjbench harness from this checkout, then runs
# the harness with the given arguments, e.g.
#
#   bash pjbench/run.sh --workload lookup-short --seed 1 --seconds 10 --trace 0
#
# Every build output, Go build cache and run file stays under
# .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gotmp" "$out/gomodcache"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
(cd "$root" && go build -o "$out/bin/passjoind" ./cmd/passjoind)
(cd "$root/pjbench" && go build -o "$out/bin/pjbench" .)
exec "$out/bin/pjbench" -root "$root" -bin "$out/bin" "$@"
