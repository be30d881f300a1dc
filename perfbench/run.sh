#!/usr/bin/env bash
# Builds the RSIN service benchmark from source and runs it. Run it from
# the repository root:
#
#   bash perfbench/run.sh --workload fabric-mix --seed 1 --seconds 50 --trace 0
#
# The binary, the Go build cache, the toolchain's telemetry counters and
# the trace spans stay under .bench_build; nothing is fetched (the
# benchmark uses the standard library and this repository only).
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPATH="$out/go-path" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOENV=off GOWORK=off GOFLAGS=-buildvcs=false
# The commit each run records; "unknown" outside a git work tree.
export RSIN_COMMIT="${RSIN_COMMIT:-$(git rev-parse HEAD 2>/dev/null || echo unknown)}"
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" "$@"
