#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#
#   bash perfbench/run.sh --workload train-conv --seed 1 --seconds 20 --trace 0
#
# Every build and run artefact (Go build cache, binary, traces) stays under
# .bench_build/ in the checkout. Outside a full checkout the build fails,
# so the script exits non-zero without printing a result.
set -eu
here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" -out "$out" "$@"
