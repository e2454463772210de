#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#   bash htcbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run from the repository root. Every build artifact, the Go build cache
# and the trace files stay under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off
(cd "$root/htcbench" && go build -o "$out/htcbench" .)
exec "$out/htcbench" "$@"
