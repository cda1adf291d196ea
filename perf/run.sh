#!/usr/bin/env bash
# Builds atmo-perf from this checkout and runs it with the given flags,
# e.g. from the repository root:
#
#   bash perf/run.sh --workload ipc-rpc --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write — binary, Go build cache,
# traced-run artifacts — stays under $CARGO_TARGET_DIR (default
# .bench_build), relative to the current directory. The build needs the
# repository's Go module one directory above perf/ and fails without it.
set -euo pipefail

out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$PWD/$out ;;
esac
perf=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
mkdir -p "$out/tmp"

export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOPATH=$out/gopath
export XDG_CONFIG_HOME=$out/config XDG_CACHE_HOME=$out/cache
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd "$perf" && go build -o "$out/atmo-perf" ./cmd/atmo-perf)
exec "$out/atmo-perf" -trace-dir "$out/atmo-perf-trace" "$@"
