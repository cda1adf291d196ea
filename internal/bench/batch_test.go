package bench

import (
	"strings"
	"testing"

	"atmosphere/internal/hw"
	"atmosphere/internal/obs"
	"atmosphere/internal/obs/account"
)

// The batched world is deterministic: same seed, same cores, same
// Mops/s and the same per-core trace stream, event for event. (That the
// unbatched Table 3 walls are untouched is TestProbesAreFree's table3
// row.)
func TestBatchingDeterministic(t *testing.T) {
	for _, cores := range kvrCores {
		type run struct {
			ops, wall uint64
			hashes    []uint64
		}
		do := func() run {
			tr := obs.NewTracer(1 << 16)
			ops, wall, _, err := RunKVRPC(true, cores, kvrSeed, 0,
				Sinks{Tracer: tr, Metrics: obs.NewRegistry(), Ledger: account.NewLedger()}.Attach)
			if err != nil {
				t.Fatalf("%dc: %v", cores, err)
			}
			if tr.Len() == 0 {
				t.Fatalf("%dc: tracer attached but recorded nothing", cores)
			}
			return run{ops, wall, tr.CoreHashes(cores)}
		}
		a, b := do(), do()
		if a.ops != b.ops || a.wall != b.wall {
			t.Errorf("%dc: batched run not deterministic: ops %d/%d wall %d/%d",
				cores, a.ops, b.ops, a.wall, b.wall)
		}
		for c := 0; c < cores; c++ {
			if a.hashes[c] != b.hashes[c] {
				t.Errorf("%dc: core %d trace hash differs across same-seed runs: %#x vs %#x",
					cores, c, a.hashes[c], b.hashes[c])
			}
		}
	}
}

// Past 32,768 requests per core a core's 16,384-slot table is full: the
// first SET that cannot store must fail the run, naming the core and
// the request, on both serving paths — not serve misses and exit clean.
func TestKVRPCFailsPastCapacity(t *testing.T) {
	for _, batched := range []bool{false, true} {
		_, _, _, err := RunKVRPC(batched, 1, kvrSeed, 40960, Sinks{}.Attach)
		if err == nil || !strings.Contains(err.Error(), "core 0") ||
			!strings.Contains(err.Error(), "request 32768: SET") {
			t.Errorf("batched=%v: err = %v, want a full-table SET failure at core 0 request 32768", batched, err)
		}
	}
}

// Each core's batched kv-rpc pair lives in a container reserving only
// that core, so a page grant's shootdown interrupts no other core, and
// the workload scales linearly: per-core Mops/s at 4 and 16 cores
// stays within 1% of the 1-core row.
func TestBatchedKVRPCScalesWithCores(t *testing.T) {
	perCore := func(cores int) float64 {
		ops, wall, _, err := RunKVRPC(true, cores, kvrSeed, 0, Sinks{}.Attach)
		if err != nil {
			t.Fatalf("%dc: %v", cores, err)
		}
		return float64(ops) * hw.ClockHz / float64(wall) / 1e6 / float64(cores)
	}
	one := perCore(1)
	for _, n := range []int{4, 16} {
		if got := perCore(n); got < 0.99*one || got > 1.01*one {
			t.Errorf("%dc: %.2f Mops/s per core, want within 1%% of the 1-core %.2f", n, got, one)
		}
	}
}
