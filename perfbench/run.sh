#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it; all
# arguments pass through. Run from the repository root:
#
#   bash perfbench/run.sh --workload build --seed 1 --seconds 20 --trace 0
#
# Build outputs (the Go build cache and the binary) stay inside the checkout
# under .bench_build, and nothing outside it is written: no Go env file, no
# telemetry. The toolchain is used as installed: no download is ever
# attempted.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" \
	GOPATH="$out/gopath" GOENV=off GOTELEMETRY=off GOTOOLCHAIN=local GOPROXY=off \
	GOWORK=off GOFLAGS="-mod=mod -buildvcs=false"

HOME="$out/home" XDG_CONFIG_HOME="$out/config" go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
