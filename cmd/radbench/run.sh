#!/usr/bin/env bash
# Builds radbench from the checkout it is run in and runs it with the
# given arguments. Run it from the repository root:
#
#	bash cmd/radbench/run.sh --workload campaign-mix --seed 1 --seconds 10 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the current
# directory: the Go build cache, the binary, daemon state directories and
# span files.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOENV=off

# A build failure (for example a directory holding only the benchmark,
# without the module it measures) exits here, before any result is printed.
(cd "$root/cmd/radbench" && go build -o "$out/radbench" .)
exec "$out/radbench" -workdir "$out" "$@"
