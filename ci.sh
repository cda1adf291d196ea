#!/bin/sh
# Repository gate: vet, build, the full test suite, a race-detector
# shard over the packages that start goroutines, the benchmark module's
# tests, and CLI smoke runs.
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

echo "== docs relative-link check"
# Every relative link in docs/*.md must resolve (fragment stripped);
# http(s)/mailto and pure in-page anchors are skipped.
for f in docs/*.md; do
    grep -o '](\([^)]*\))' "$f" | sed 's/^](//; s/)$//' | while IFS= read -r link; do
        case "$link" in
            http://*|https://*|mailto:*|'#'*) continue ;;
        esac
        target=${link%%#*}
        [ -n "$target" ] || continue
        if [ ! -e "docs/$target" ]; then
            echo "$f: dead relative link ($link)" >&2
            exit 1
        fi
    done
done

echo "== atmo-fuzz -diff smoke"
go run ./cmd/atmo-fuzz -diff -seeds 4 -steps 2000

echo "== atmo-trace smoke"
smoke_dir=$(mktemp -d /tmp/atmo-ci-smoke.XXXXXX)
trap 'rm -rf "$smoke_dir"' EXIT
go run ./cmd/atmo-trace -workload kvstore -seed 1 -ops 50 \
    -o "$smoke_dir/trace.json" -profile "$smoke_dir/trace"
if [ ! -s "$smoke_dir/trace.json" ]; then
    echo "atmo-trace: smoke run produced an empty trace" >&2
    exit 1
fi
if [ ! -s "$smoke_dir/trace.folded" ] || [ ! -s "$smoke_dir/trace.pb.gz" ]; then
    echo "atmo-trace: smoke run produced no profile exports" >&2
    exit 1
fi

echo "== atmo-top smoke"
go run ./cmd/atmo-top -workload chaos -seed 7 -ops 200 > "$smoke_dir/top.txt"
if ! grep -q "^nvme.gen0" "$smoke_dir/top.txt"; then
    echo "atmo-top: smoke run shows no driver container row" >&2
    cat "$smoke_dir/top.txt" >&2
    exit 1
fi

echo "== atmo-top -locks smoke"
go run ./cmd/atmo-top -workload multicore -cores 4 -ops 100 -locks > "$smoke_dir/locks.txt"
# The alloc workload's hot mmap path resolves to the caller's container
# frontier under the sharded lock plans; the big lock shows up only for
# the cache-refill and lifecycle entries.
if ! grep -q "^lock container/root " "$smoke_dir/locks.txt"; then
    echo "atmo-top: -locks smoke shows no container-frontier row" >&2
    cat "$smoke_dir/locks.txt" >&2
    exit 1
fi
if ! grep -q "^lock big/kernel " "$smoke_dir/locks.txt"; then
    echo "atmo-top: -locks smoke shows no big-lock row" >&2
    cat "$smoke_dir/locks.txt" >&2
    exit 1
fi
if ! grep -q "^wait container/root sys=mmap cntr=root " "$smoke_dir/locks.txt"; then
    echo "atmo-top: -locks smoke shows no wait-attribution row" >&2
    cat "$smoke_dir/locks.txt" >&2
    exit 1
fi

echo "== atmo-top -locks -by-class smoke"
go run ./cmd/atmo-top -workload multicore -cores 4 -ops 100 -locks -by-class > "$smoke_dir/byclass.txt"
if ! grep -q "^class container locks=" "$smoke_dir/byclass.txt"; then
    echo "atmo-top: -by-class smoke shows no container class row" >&2
    cat "$smoke_dir/byclass.txt" >&2
    exit 1
fi

echo "== atmo-bench -json -check smoke"
go run ./cmd/atmo-bench -experiment table3 -json -outdir "$smoke_dir" \
    -check bench_all_reference.txt
if [ ! -s "$smoke_dir/BENCH_table3.json" ]; then
    echo "atmo-bench: smoke run produced no BENCH_table3.json" >&2
    exit 1
fi

echo "== atmo-bench -series multicore smoke"
go run ./cmd/atmo-bench -series multicore -json -outdir "$smoke_dir" \
    -check bench_all_reference.txt
if [ ! -s "$smoke_dir/BENCH_multicore.json" ]; then
    echo "atmo-bench: smoke run produced no BENCH_multicore.json" >&2
    exit 1
fi

echo "== atmo-bench -series batch smoke"
go run ./cmd/atmo-bench -series batch -json -outdir "$smoke_dir" \
    -check bench_all_reference.txt
if [ ! -s "$smoke_dir/BENCH_batch.json" ]; then
    echo "atmo-bench: smoke run produced no BENCH_batch.json" >&2
    exit 1
fi

echo "== atmo-bench -series cluster smoke"
go run ./cmd/atmo-bench -series cluster -json -outdir "$smoke_dir" \
    -check bench_all_reference.txt
if [ ! -s "$smoke_dir/BENCH_cluster.json" ]; then
    echo "atmo-bench: smoke run produced no BENCH_cluster.json" >&2
    exit 1
fi

echo "== atmo-trace -workload cluster -merged smoke (byte determinism)"
go run ./cmd/atmo-trace -workload cluster -merged -seed 1107 \
    -o "$smoke_dir/merged_a.json" > "$smoke_dir/merged_a.txt"
go run ./cmd/atmo-trace -workload cluster -merged -seed 1107 \
    -o "$smoke_dir/merged_b.json" > "$smoke_dir/merged_b.txt"
if [ ! -s "$smoke_dir/merged_a.json" ]; then
    echo "atmo-trace: merged smoke produced an empty export" >&2
    exit 1
fi
if ! cmp -s "$smoke_dir/merged_a.json" "$smoke_dir/merged_b.json"; then
    echo "atmo-trace: merged export is not byte-deterministic across same-seed runs" >&2
    exit 1
fi
# The "wrote <path>" line names the (different) output files; everything
# else on stdout must be identical.
grep -v '^wrote ' "$smoke_dir/merged_a.txt" > "$smoke_dir/merged_a.flt"
grep -v '^wrote ' "$smoke_dir/merged_b.txt" > "$smoke_dir/merged_b.flt"
if ! cmp -s "$smoke_dir/merged_a.flt" "$smoke_dir/merged_b.flt"; then
    echo "atmo-trace: merged attribution report is not deterministic" >&2
    exit 1
fi
if ! grep -q "distributed trace attribution" "$smoke_dir/merged_a.txt"; then
    echo "atmo-trace: merged smoke printed no attribution report" >&2
    cat "$smoke_dir/merged_a.txt" >&2
    exit 1
fi

echo "== atmo-trace -workload kvstore-batch smoke (byte determinism)"
go run ./cmd/atmo-trace -workload kvstore-batch -cores 4 \
    -o "$smoke_dir/kvb_a.json" > "$smoke_dir/kvb_a.txt"
go run ./cmd/atmo-trace -workload kvstore-batch -cores 4 \
    -o "$smoke_dir/kvb_b.json" > "$smoke_dir/kvb_b.txt"
if [ ! -s "$smoke_dir/kvb_a.json" ]; then
    echo "atmo-trace: kvstore-batch smoke produced an empty trace" >&2
    exit 1
fi
if ! cmp -s "$smoke_dir/kvb_a.json" "$smoke_dir/kvb_b.json"; then
    echo "atmo-trace: kvstore-batch trace is not byte-deterministic across same-seed runs" >&2
    exit 1
fi

echo "== atmo-trace -contention smoke (byte determinism)"
go run ./cmd/atmo-trace -workload multicore -cores 4 -ops 60 -contention \
    -o "$smoke_dir/contend_a.json" > "$smoke_dir/contend_a.txt"
go run ./cmd/atmo-trace -workload multicore -cores 4 -ops 60 -contention \
    -o "$smoke_dir/contend_b.json" > "$smoke_dir/contend_b.txt"
if ! cmp -s "$smoke_dir/contend_a.json" "$smoke_dir/contend_b.json"; then
    echo "atmo-trace: -contention trace is not byte-deterministic across same-seed runs" >&2
    exit 1
fi
grep -v '^wrote ' "$smoke_dir/contend_a.txt" > "$smoke_dir/contend_a.flt"
grep -v '^wrote ' "$smoke_dir/contend_b.txt" > "$smoke_dir/contend_b.flt"
if ! cmp -s "$smoke_dir/contend_a.flt" "$smoke_dir/contend_b.flt"; then
    echo "atmo-trace: contention report is not deterministic" >&2
    exit 1
fi
if ! grep -q "== contention: locks ==" "$smoke_dir/contend_a.txt"; then
    echo "atmo-trace: -contention smoke printed no contention report" >&2
    cat "$smoke_dir/contend_a.txt" >&2
    exit 1
fi
if ! grep -q '"lock\.' "$smoke_dir/contend_a.json"; then
    echo "atmo-trace: -contention trace has no lock counter tracks" >&2
    exit 1
fi

echo "== atmo-trace -contention 16-core sharded smoke (byte determinism)"
# The multicore workload includes the many-container ipc sub-workload;
# at 16 cores its lock plans touch dozens of container and endpoint
# frontiers, and the export must still be byte-deterministic.
go run ./cmd/atmo-trace -workload multicore -cores 16 -ops 40 -contention \
    -o "$smoke_dir/shard_a.json" > "$smoke_dir/shard_a.txt"
go run ./cmd/atmo-trace -workload multicore -cores 16 -ops 40 -contention \
    -o "$smoke_dir/shard_b.json" > "$smoke_dir/shard_b.txt"
if ! cmp -s "$smoke_dir/shard_a.json" "$smoke_dir/shard_b.json"; then
    echo "atmo-trace: sharded 16-core -contention trace is not byte-deterministic" >&2
    exit 1
fi
grep -v '^wrote ' "$smoke_dir/shard_a.txt" > "$smoke_dir/shard_a.flt"
grep -v '^wrote ' "$smoke_dir/shard_b.txt" > "$smoke_dir/shard_b.flt"
if ! cmp -s "$smoke_dir/shard_a.flt" "$smoke_dir/shard_b.flt"; then
    echo "atmo-trace: sharded 16-core contention report is not deterministic" >&2
    exit 1
fi

echo "ci: all checks passed"
