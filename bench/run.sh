#!/usr/bin/env bash
# Builds strg-server and the benchmark from this checkout's sources into
# .bench_build/ (build cache included, so nothing is written outside the
# checkout) and runs the benchmark with the given arguments.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOPROXY=off GOENV=off
go build -o "$out/strg-server" ./cmd/strg-server >&2
(cd bench && go build -o "$out/strg-bench" .) >&2
exec "$out/strg-bench" "$@"
