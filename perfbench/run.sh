#!/usr/bin/env bash
# Builds sit-server and the benchmark from source, then runs the benchmark
# with the given arguments, for example:
#
#   bash perfbench/run.sh --workload tenant-mix --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache, server
# data directories and span files all stay under .bench_build/ there.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out"
export GOTOOLCHAIN=local
export GOTELEMETRY=off
export GOMAXPROCS=2

go build -o "$out/bin/sit-server" ./cmd/sit-server
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" --server "$out/bin/sit-server" --workdir "$out/run" "$@"
