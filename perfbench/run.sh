#!/usr/bin/env bash
# Builds the benchmark from source in the current checkout and runs it:
#
#   bash perfbench/run.sh --workload lib-large --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. The Go build cache, the binary and the
# traced runs' span files all stay under .bench_build/ in the checkout.
set -euo pipefail
root="$(pwd)"
here="$(cd "$(dirname "$0")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/home" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
