#!/usr/bin/env bash
# Builds the benchmark and sosd from source, then runs the benchmark with
# the given flags. Run it from the repository root:
#
#   bash bench/run.sh --workload paper-milp --seed 1 --seconds 15 --trace 0
#
# Everything the build writes (Go build cache, temporary files, the go
# command's telemetry and configuration, binaries) stays under .bench_build
# in the current directory, and no module is downloaded: the benchmark uses
# only the standard library and the sos module it sits in.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C bench build -o "$out/bin/bench" .
go -C bench build -o "$out/bin/sosd" sos/cmd/sosd
exec "$out/bin/bench" -sosd "$out/bin/sosd" "$@"
