#!/usr/bin/env bash
# Builds the benchmark from the module it sits in and runs it with the
# arguments given. Everything the build and the run write stays inside the
# checkout: the Go build cache, temporary files and the toolchain's own
# telemetry counters under .bench_build/, trace files and the durable
# sites' scratch data under bench/out/.
set -euo pipefail
cd "$(dirname "$0")/.."
build=$PWD/.bench_build
mkdir -p "$build/tmp"
GOENV=$(go env GOENV) # keep the user's go settings when the config directory moves
export GOENV GOCACHE=$build/gocache GOTMPDIR=$build/tmp XDG_CONFIG_HOME=$build/config
go build -o "$build/glare-bench" ./bench
exec "$build/glare-bench" "$@"
