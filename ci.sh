#!/bin/sh
# Repository gate: vet (the benchmark module too), build, the full test
# suite, a race-detector shard over the packages that start goroutines,
# the benchmark module's tests, and CLI smoke runs.
# Run from the repo root; any failure fails the script.
set -eu

cd "$(dirname "$0")"

echo "== gofmt -l"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files are not formatted:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== (cd perf && go vet ./...)"
# perf/ is its own module, so the root's ./... does not reach it.
(cd perf && go vet ./...)

echo "== go build ./..."
go build ./...

echo "== go test ./..."
go test ./...

echo "== go test -race (kernel/verify shard)"
# The simulation is single-goroutine; only verify.RunObligations and the
# kernel's big-lock concurrency test start goroutines.
go test -race ./internal/kernel/ ./internal/verify/

echo "== (cd perf && go test ./...)"
(cd perf && go test ./...)

echo "== fuzz smoke (10s per target)"
go test ./internal/mck/ -run '^$' -fuzz '^FuzzDiff$' -fuzztime 10s
go test ./internal/mck/ -run '^$' -fuzz '^FuzzChecked$' -fuzztime 10s
go test ./internal/mck/ -run '^$' -fuzz '^FuzzDiffBatch$' -fuzztime 10s
go test ./internal/hw/ -run '^$' -fuzz '^FuzzPhysMemDense$' -fuzztime 10s
go test ./internal/mem/ -run '^$' -fuzz '^FuzzAllocatorDense$' -fuzztime 10s

echo "== docs relative-link check"
# Every relative link in README.md, DESIGN.md and docs/*.md must resolve
# from its own file's directory (fragment stripped); http(s)/mailto and
# pure in-page anchors are skipped.
for f in README.md DESIGN.md docs/*.md; do
    dir=$(dirname "$f")
    grep -o '](\([^)]*\))' "$f" | sed 's/^](//; s/)$//' | while IFS= read -r link; do
        case "$link" in
            http://*|https://*|mailto:*|'#'*) continue ;;
        esac
        target=${link%%#*}
        [ -n "$target" ] || continue
        if [ ! -e "$dir/$target" ]; then
            echo "$f: dead relative link ($link)" >&2
            exit 1
        fi
    done
done

echo "== atmo-fuzz -diff smoke"
# 256 seeds: 3.3-4.1 CPU s on 2 vCPUs since Interp.Diff reads the kernel
# in place, about what 128 seeds took (2.9-3.8 s) when every step copied
# the kernel's abstract state first, and 24 seeds (~5 s) before the
# oracle stopped snapshotting the allocator and rebuilding that state on
# every step.
go run ./cmd/atmo-fuzz -diff -seeds 256 -steps 2000

echo "== atmo-fuzz checked and -chaos sweeps"
# The two oracle sweeps docs/TESTING.md documents: four 2,000-op seeds
# stepped through the spec interpreter with every invariant checked
# after every step, and sixteen seeds of the differential sweep with
# one allocation in ten refused (409 faults in all). Seeds 1 and 9
# inject faults, and their fault traces are pinned. A change that
# moves a pin edits it and records before -> after in CHANGES.md.
go run ./cmd/atmo-fuzz -seeds 4 -steps 2000
chaos=$(go run ./cmd/atmo-fuzz -chaos -seeds 16)
printf '%s\n' "$chaos"
for pin in "1 0xae5d533c093ea8b" "9 0xb5cb407d129d493b"; do
    seed=${pin% *}
    hash=${pin#* }
    if ! printf '%s\n' "$chaos" | grep -q "^seed $seed: .*, trace hash $hash\$"; then
        echo "atmo-fuzz -chaos: seed $seed did not print fault-trace hash $hash" >&2
        exit 1
    fi
done

echo "== atmo-bench -series all -json -check"
# Every gated row in bench_all_reference.txt, and one BENCH_<id>.json per
# experiment id.
smoke_dir=$(mktemp -d /tmp/atmo-ci-smoke.XXXXXX)
trap 'rm -rf "$smoke_dir"' EXIT
go run ./cmd/atmo-bench -series all -json -outdir "$smoke_dir" \
    -check bench_all_reference.txt
ids=$(go run ./cmd/atmo-bench -list)
if [ -z "$ids" ]; then
    echo "atmo-bench: -list printed no experiment ids" >&2
    exit 1
fi
for id in $ids; do
    if [ ! -s "$smoke_dir/BENCH_$id.json" ]; then
        echo "atmo-bench: -series all produced no BENCH_$id.json" >&2
        exit 1
    fi
done

echo "ci: all checks passed"
