#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it; every
# argument is passed through, for example
#
#   bash perfbench/run.sh --workload serve_cold --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. The build cache and the binary live
# in .bench_build/ under the current directory, so nothing is written
# outside the checkout and no module is fetched.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache"
export GOMODCACHE="$out/go-mod"
export GOPATH="$out/go-path"
export GOTOOLCHAIN=local
export GOPROXY=off
export XDG_CONFIG_HOME="$out/config"

go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
