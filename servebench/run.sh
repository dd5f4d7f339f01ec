#!/usr/bin/env bash
# Builds the served-path benchmark from the checkout's sources and runs
# it with the given arguments. Run from the repository root:
#
#   bash servebench/run.sh --workload ingest --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (binary, Go build cache, temp files) stays
# under .bench_build/ in the current directory.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
mkdir -p .bench_build/tmp
out="$(cd .bench_build && pwd)"

# XDG_CONFIG_HOME keeps the go command's telemetry counters and env
# file inside the build directory too.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOPROXY=off GOWORK=off GOTOOLCHAIN=local

(cd "$here" && go build -o "$out/servebench" .)
exec "$out/servebench" "$@"
