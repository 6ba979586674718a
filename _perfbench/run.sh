#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#
#   bash _perfbench/run.sh --workload repro --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache, the go command's own configuration and
# telemetry, and trace files stay under .bench_build/ in the checkout, so a
# run reads and writes nothing outside it.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off
go -C "$here" build -o "$out/perfbench" . >&2
cd "$root"
exec "$out/perfbench" "$@"
