#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload tasktree --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the repository. The binary, the Go build cache,
# Go's own config and telemetry files and the traced run's spans all stay
# under .bench_build/ there, and Go never fetches a toolchain or a module.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off \
	GOFLAGS=-mod=readonly GOPROXY=off
go build -C perfbench -o "$build/perfbench" .
exec "$build/perfbench" "$@"
