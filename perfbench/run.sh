#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout this script sits in,
# then replaces itself with the benchmark binary, so no shell or build
# process outlives the run. Every file the build writes stays under the
# build directory ($CARGO_TARGET_DIR, default .bench_build).
#
#	bash perfbench/run.sh --workload report-default --seed 42 --seconds 32 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$PWD/$out ;;
esac
mkdir -p "$out/go-cache" "$out/go-tmp" "$out/go-mod"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/go-tmp" GOMODCACHE="$out/go-mod" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" --spans-dir "$out/spans" "$@"
