package bench

import (
	"testing"

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
				tr, obs.NewRegistry(), account.NewLedger())
			if err != nil {
				t.Fatalf("%dc: %v", cores, err)
			}
			if tr.Len() == 0 {
				t.Fatalf("%dc: tracer attached but recorded nothing", cores)
			}
			return run{ops, wall, perCoreTraceHashes(tr, cores)}
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
