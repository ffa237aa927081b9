#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it.
#
# Usage (from the repository root):
#
#	bash perfbench/run.sh --workload fs-job --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under the checkout:
# the Go build cache and the binary go to $CARGO_TARGET_DIR (default
# .bench_build), and the run's scratch files to .perfbench.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local
export GOPROXY=off
export CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -root "$root" "$@"
