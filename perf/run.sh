#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument is passed
# to it (see README.md). The Go build cache, the go command's own
# configuration and telemetry files, temporary files and the binary stay
# under .bench_build/ at the repository root, and the benchmark runs from
# perf/, so its records and traces land in perf/out/.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
cd "$here"
go build -o "$build/perf" .
exec "$build/perf" "$@"
