#!/usr/bin/env bash
# Builds the serving benchmark from source and runs it once.
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. The build cache, the binary and the trace
# files all live under .bench_build/ so nothing is written outside the
# checkout. The last line of standard output is the JSON result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
# The go command's telemetry counters live under the user config directory.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOENV=off GOPROXY=off

# The benchmark module imports the repository's packages through a
# replace directive pointing at the parent directory, so a copy holding
# only the benchmark's own files fails here and prints no result.
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -root "$root" "$@"
