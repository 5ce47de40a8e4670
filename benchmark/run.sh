#!/bin/bash
# Entry point named by BENCHMARK.json, run from the root of a checkout:
# builds the benchmark (a Go module of its own in this directory, which
# compiles the program from the source one level up) and runs it with the
# arguments given. Everything the build and the run write stays inside the
# checkout: the Go caches and the binary under .bench_build/, result files
# and traces under benchmark/out/.
#
#   bash benchmark/run.sh --workload serve_flat --seed 1 --seconds 20 --trace 0
#   bash benchmark/run.sh -seed 1                     all four workloads, traced
#   bash benchmark/run.sh -compare A.json B.json
set -euo pipefail

root=$PWD
build=$root/.bench_build
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/config"
export GOCACHE=$build/gocache GOTMPDIR=$build/gotmp GOPATH=$build/gopath
# The go command keeps its env file and telemetry counters in the user's
# configuration directory; this moves them into the checkout too.
export XDG_CONFIG_HOME=$build/config
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off

# Fails, with a non-zero exit and no result line, where the program's source
# (../go.mod and the packages the benchmark imports) is absent.
(cd "$root/benchmark" && go build -o "$build/lemp-benchmark" .)

exec "$build/lemp-benchmark" "$@"
