#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it.
# Every argument is passed through, e.g.
#
#   bash perfbench/run.sh --workload figure4 --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the checkout. Build outputs, the Go build cache,
# temporary server directories and span dumps all stay under .bench_build.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOTELEMETRY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2

# Only this checkout's own repository counts; git would otherwise walk
# up into whatever repository encloses it.
commit=unknown
if [ -e "$root/.git" ]; then
  commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
exec "$out/perfbench" --root "$root" --commit "$commit" "$@"
