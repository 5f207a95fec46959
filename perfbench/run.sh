#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it; arguments pass
# through, e.g.
#
#   bash perfbench/run.sh --workload minc_http --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR if set, else .bench_build, relative to the
# checkout root): the Go build cache, temporary files, the binary, and
# the run's reports and spans.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/tmp" "$build/home"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/perfbench" && go build -buildvcs=false -o "$build/perfbench" .)
exec "$build/perfbench" --out "$build/perfbench-out" --digests "$root/perfbench/asm_digest.json" "$@"
