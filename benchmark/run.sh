#!/usr/bin/env bash
# The BENCHMARK.json command. Builds awcbench from source inside the checkout
# and runs it from the checkout root; awcbench builds cmd/rubis-server itself.
# Everything the go tool writes — build cache, GOPATH, its telemetry counters
# — is pointed under .bench_build/, so nothing lands under $HOME.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/bin"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOENV=off
go -C benchmark build -o "$build/bin/awcbench" ./cmd/awcbench
exec "$build/bin/awcbench" "$@"
