#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it. Run it from
# the repository root:
#
#   bash perfbench/run.sh --workload serve_hot --seed 1 --seconds 30 --trace 0
#
# The binary, the Go build cache and the traced runs' spans all stay under
# .bench_build/ in the working directory; nothing is fetched or written
# elsewhere. Build output goes to standard error, so the last line of
# standard output is always the benchmark's JSON result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$(dirname "$0")" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
