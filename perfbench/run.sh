#!/usr/bin/env bash
# Builds the repository's commands and the benchmark harness from source,
# then runs the harness. Run it from the repository root:
#
#   bash perfbench/run.sh --workload train-cold --seed 1 --seconds 20 --trace 0
#
# Every build product and Go cache stays under .bench_build/ in the
# current directory, so a run reads and writes only inside the checkout.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/gotmp"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local
export GOTELEMETRY=off
export GOENV=off
export GOPROXY=off

# Build output goes to stderr: the harness's last stdout line is the
# result the caller parses.
go build -o "$out/bin/" ./cmd/mcdsweep ./cmd/mcdserved 1>&2
go -C perfbench build -o "$out/bin/perfbench" . 1>&2

exec "$out/bin/perfbench" -root "$root" -bin "$out/bin" "$@"
