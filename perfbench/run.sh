#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# from the root of the checkout. The binary, the Go build cache and
# durable replicas' logs all stay under .bench_build in the checkout.
#
#   bash perfbench/run.sh --workload rwu-mem --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --suite --repeats 5
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off
# Stamp the git revision into the binary only where there is one.
vcs=false
if [ -d "$root/.git" ]; then vcs=auto; fi
go -C perfbench build -buildvcs="$vcs" -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
