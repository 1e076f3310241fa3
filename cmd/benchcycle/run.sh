#!/usr/bin/env bash
# BENCHMARK.json's command. Builds benchcycle from the checkout it is
# run in and execs it with the driver's arguments. The binary and every
# cache the Go toolchain writes (build cache, temp files, telemetry
# counters) land under .bench_build, so a run touches nothing outside
# its checkout.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config/go/telemetry"
# With a fresh telemetry directory the go command detaches a child of
# itself (the once-a-day report builder) that outlives `go build`.
# Telemetry mode "off" makes it start nothing.
echo off >"$out/config/go/telemetry/mode"
GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	go build -o "$out/benchcycle" ./cmd/benchcycle
exec "$out/benchcycle" "$@"
