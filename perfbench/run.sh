#!/usr/bin/env bash
# Builds refserve and the benchmark from this checkout's sources into
# .bench_build/, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload warm-gcov --seed 1 --seconds 15 --trace 0
#
# Run from the repository root. The Go build and module caches and the Go
# configuration directory live under .bench_build/ too, and the proxy is
# off: the build writes nothing outside the checkout and fetches nothing.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOPROXY=off GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off
go build -o "$build/bin/refserve" ./cmd/refserve
(cd perfbench && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" --refserve "$build/bin/refserve" --out "$build/perfbench" "$@"
