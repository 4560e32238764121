#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, for example:
#
#   bash perfbench/run.sh --workload hot-small --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (binary, Go build cache and
# settings, temporary files, spans) stays under .bench_build at the root
# of the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export TMPDIR="$out/tmp" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
