#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# This is BENCHMARK.json's command: the harness calls it from the root of
# a checkout as
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Everything the build writes — the binary, Go's build cache, its
# temporary work directory and the toolchain's telemetry counters (which
# go under the user's config directory) — stays in .bench_build/ inside
# the checkout: the harness may run where /tmp and $HOME are not
# writable, and nothing outside the checkout is to be touched.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/home"

export HOME="$build/home"
export XDG_CONFIG_HOME="$build/home/.config"
export XDG_CACHE_HOME="$build/home/.cache"
export TMPDIR="$build/tmp"
export GOTMPDIR="$build/tmp"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOENV=off
export GOFLAGS=
export GOWORK=off
export GOTOOLCHAIN=local

# The benchmark is its own module (benchmark/go.mod) that replaces the
# ganglia module with the checkout it sits in; in a directory without the
# repository's sources this build fails and nothing is printed.
(cd "$root/benchmark" && go build -o "$build/ganglia-benchmark" .)

cd "$root"
exec "$build/ganglia-benchmark" "$@"
