#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout — with Go's build cache and counters there too, so nothing is
# written outside the checkout — and runs it with the arguments given.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
(
	cd bench
	GOCACHE="$build/go-cache" XDG_CONFIG_HOME="$build/config" GOFLAGS=-mod=mod \
		GOTOOLCHAIN=local GOPROXY=off go build -o "$build/bench" .
)
exec "$build/bench" "$@"
