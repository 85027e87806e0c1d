#!/bin/sh
# Builds the benchmark from the checkout's sources and runs one workload.
# Usage, from the repository root:
#   sh perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Every build and cache file stays under .bench_build/ in the checkout.
set -eu
cd "$(dirname "$0")/.."
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomod" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomod"
# The go command's env file, telemetry counters and GOPATH live under the
# user's config and home directories by default; keep them in the checkout.
export XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath"
export GOTOOLCHAIN=local
(cd perfbench && go build -o "$out/perfbench-bin" .) >&2
exec "$out/perfbench-bin" "$@"
