package bench

import (
	"testing"

	"atmosphere/internal/hw"
	"atmosphere/internal/obs"
	"atmosphere/internal/obs/contend"
)

// mcThroughput runs one multicore workload and returns ops per cycle of
// simulated wall clock (unit-free; ratios of these are speedups).
func mcThroughput(t *testing.T, workload string, cores int) float64 {
	t.Helper()
	ops, wall, err := runMulticore(workload, cores, mcSeed)
	if err != nil {
		t.Fatalf("%s %dc: %v", workload, cores, err)
	}
	if ops == 0 || wall == 0 {
		t.Fatalf("%s %dc: degenerate run (ops %d, wall %d)", workload, cores, ops, wall)
	}
	return float64(ops) / float64(wall)
}

// The acceptance gate of the series: workloads whose hot work runs
// outside the big lock (kvstore compute, alloc zeroing) must scale
// >1.5x at 4 cores, and IPC — formerly pinned at 1.0x because every
// round trip serialized on the one big-lock frontier — must now break
// that ceiling under the sharded frontiers: >2x at 4 cores and
// near-linear (>12x) at 16, since each core's ping-pong holds only its
// own container and endpoint frontiers.
func TestMulticoreScaling(t *testing.T) {
	for _, wl := range []string{"kvstore", "alloc"} {
		one := mcThroughput(t, wl, 1)
		four := mcThroughput(t, wl, 4)
		if s := four / one; s <= 1.5 {
			t.Errorf("%s speedup at 4 cores = %.2fx, want > 1.5x", wl, s)
		}
	}
	one := mcThroughput(t, "ipc", 1)
	four := mcThroughput(t, "ipc", 4)
	if s := four / one; s <= 2.0 {
		t.Errorf("ipc speedup at 4 cores = %.2fx, want > 2x (sharded frontiers)", s)
	}
	sixteen := mcThroughput(t, "ipc", 16)
	if s := sixteen / one; s <= 12.0 {
		t.Errorf("ipc speedup at 16 cores = %.2fx, want > 12x (near-linear)", s)
	}
}

// mcRunTraced runs every workload at the given core count into a fresh
// tracer and returns (per-core event hashes, total ops, total wall).
func mcRunTraced(t *testing.T, cores int, seed uint64) ([]uint64, uint64, uint64) {
	t.Helper()
	tr := obs.NewTracer(1 << 16)
	savedT, savedM := benchTracer, benchMetrics
	SetObs(tr, nil)
	defer SetObs(savedT, savedM)
	var ops, wall uint64
	for _, wl := range []string{"ipc", "kvstore", "alloc"} {
		o, w, err := runMulticore(wl, cores, seed)
		if err != nil {
			t.Fatalf("%s %dc: %v", wl, cores, err)
		}
		ops += o
		wall += w
	}
	return perCoreTraceHashes(tr, cores), ops, wall
}

// Same seed, same core count: repeated runs must produce byte-identical
// per-core traces at every core count in the series — the contention
// model, the per-core caches, and work stealing are all deterministic.
// A different seed must perturb at least one core's trace, or the hash
// would be proving nothing.
func TestMulticoreCrossCoreDeterminism(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 16} {
		h1, ops1, wall1 := mcRunTraced(t, n, mcSeed)
		h2, ops2, wall2 := mcRunTraced(t, n, mcSeed)
		if ops1 != ops2 || wall1 != wall2 {
			t.Fatalf("%dc: same seed diverged: ops %d vs %d, wall %d vs %d", n, ops1, ops2, wall1, wall2)
		}
		for c := range h1 {
			if h1[c] != h2[c] {
				t.Errorf("%dc: core %d trace hash differs across same-seed runs: %016x vs %016x", n, c, h1[c], h2[c])
			}
		}
		h3, _, _ := mcRunTraced(t, n, mcSeed+1)
		same := true
		for c := range h1 {
			if h1[c] != h3[c] {
				same = false
			}
		}
		if same {
			t.Errorf("%dc: changing the seed left every per-core hash identical — hashes insensitive", n)
		}
	}
}

// The lock-order self-test at the bench layer: plant the same inversion
// into two fresh observatories and require the checker to name both
// acquisition sites, byte-identically across the runs.
func TestContentionPlantedInversionDeterministic(t *testing.T) {
	plant := func() string {
		o := contend.New()
		var big, ep hw.LockSim
		big.SetIdentity("big", "kernel")
		ep.SetIdentity("endpoint", "e3")
		bigID := o.Register(&big)
		epID := o.Register(&ep)
		o.ArmOrder(contend.KernelOrder(), 2)
		o.Acquired(1, epID, "edpt_poll")
		o.Acquired(1, bigID, "syscall") // endpoint -> big: inversion
		v := o.FirstInversion()
		if v == nil {
			t.Fatal("planted inversion not caught")
		}
		return v.String()
	}
	first, second := plant(), plant()
	if first != second {
		t.Errorf("inversion report not deterministic:\n%s\n%s", first, second)
	}
	want := `lock-order inversion on core 1: acquiring big/kernel at "syscall" while holding endpoint/e3 acquired at "edpt_poll" (no endpoint -> big edge declared)`
	if first != want {
		t.Errorf("inversion report = %q, want %q", first, want)
	}
}
