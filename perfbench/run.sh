#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument is passed
# through. Run it from the repository root:
#
#   bash perfbench/run.sh --workload handshake-full --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and traced-run spans all go under
# .bench_build in that root (or $CARGO_TARGET_DIR when it is set), so the
# run writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --trace-dir "$out/trace" "$@"
