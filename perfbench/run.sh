#!/usr/bin/env bash
# Builds the batch service and the load driver from the checkout it is run
# from (the current directory), then runs it with the given
# arguments. Binaries and the Go build cache stay under .bench_build/.
#
#   bash perfbench/run.sh --workload lifecycle-local --seed 1 --seconds 15 --trace 0
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOWORK=off
go build -o "$out/batchsvc" ./cmd/batchsvc >&2
go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" -root "$root" -batchsvc "$out/batchsvc" "$@"
