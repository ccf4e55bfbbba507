#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from and
# runs one workload, e.g. from the repository root:
#
#   bash perfbench/run.sh --workload warm_mc --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build in the
# current directory: the Go build cache, temporary files, the binary, the
# workload's stores and the span files of traced runs.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config" "$out/bin"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPATH="$out/go-path"
export TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOENV=off GOWORK=off

(cd "$root/perfbench" && go build -trimpath -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" --workdir "$out/perfbench" "$@"
