#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload city-query --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The binary, the Go build and module
# caches, the go command's configuration directory (where it keeps its
# telemetry counters), span journals and CPU profiles all stay under
# .bench_build/ in the current directory.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
