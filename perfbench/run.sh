#!/usr/bin/env bash
# Builds the aergiad daemon and the benchmark harness from the checkout this
# is run in, then runs the harness with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload tiny-local --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the checkout. Every build artifact, cache and
# scratch file lives under .bench_build/ there; nothing outside the checkout
# is read or written apart from the Go toolchain itself.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomodcache" "$out/config"
# The go command keeps its build cache, scratch files and telemetry counters
# under these; pointing them into .bench_build keeps every write inside the
# checkout.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
# With telemetry in its default "local" mode the go command forks a detached
# upload process (in a session of its own) that can outlive this script, even
# when the build fails at once. Mode "off" keeps the go command from starting
# it.
mkdir -p "$out/config/go/telemetry"
echo off > "$out/config/go/telemetry/mode"
go build -o "$out/aergiad" ./cmd/aergiad
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" "$@"
