#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build inside the checkout
# and runs it with the given arguments, so a measuring run reads and
# writes nothing outside the checkout it was started in.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -f bench/go.mod ]; then
	echo "bench/run.sh: run from the root of a checkout that holds go.mod and bench/" >&2
	exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOTOOLCHAIN=local
go build -C bench -o "$build/bench" .
exec "$build/bench" "$@"
