#!/usr/bin/env bash
# Builds the harness from the checkout's source and runs it with the given
# arguments. Everything built or written, the Go build cache included, stays
# under bench/out/. The harness builds cmd/enzogo itself when a workload
# needs it.
set -euo pipefail
cd "$(dirname "$0")"
mkdir -p out/bin
export GOCACHE="$PWD/out/gocache"
go build -o out/bin/bench .
exec out/bin/bench "$@"
