package bench

import (
	"math"
	"testing"

	"atmosphere/internal/hw"
	"atmosphere/internal/kernel"
	"atmosphere/internal/obs"
	"atmosphere/internal/obs/contend"
)

// mcThroughput runs one multicore workload and returns ops per cycle of
// simulated wall clock (unit-free; ratios of these are speedups).
func mcThroughput(t *testing.T, workload string, cores int) float64 {
	t.Helper()
	ops, wall, _, err := RunMulticore(workload, cores, mcSeed, 0, Sinks{}.Attach)
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
	var ops, wall uint64
	for _, wl := range mcWorkloads {
		o, w, _, err := RunMulticore(wl, cores, seed, 0, Sinks{Tracer: tr}.Attach)
		if err != nil {
			t.Fatalf("%s %dc: %v", wl, cores, err)
		}
		ops += o
		wall += w
	}
	return tr.CoreHashes(cores), ops, wall
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

// Every series workload runs clean under the armed checks at 4 and 16
// cores: no lock-order inversion, and every run queue a syscall mutates
// is one its plan holds — with the yields on their cores' run-queue
// frontiers, which the series must actually acquire.
func TestMulticorePlansCoverRunQueues(t *testing.T) {
	for _, wl := range mcWorkloads {
		for _, n := range []int{4, 16} {
			o := contend.New()
			_, _, _, err := RunMulticore(wl, n, mcSeed, 0, func(k *kernel.Kernel) {
				k.AttachContention(o)
				k.ArmLockOrder()
			})
			if err != nil {
				t.Fatalf("%s %dc: %v", wl, n, err)
			}
			if err := o.Violation(); err != nil {
				t.Errorf("%s %dc: %v", wl, n, err)
			}
			var runq uint64
			for _, c := range o.ByClass() {
				if c.Class == "runq" {
					runq = c.Acquisitions
				}
			}
			if runq == 0 && wl != "alloc" {
				t.Errorf("%s %dc: no run-queue frontier acquired", wl, n)
			}
		}
	}
}

// The alloc row explains its own ceiling. From 16 cores up the shared
// container's frontier is held for the whole run, so the row is one
// mmap per container/root hold: 2.2 GHz over the hold per mmap. (At 4
// and 8 cores the frontier is held for about half and three-quarters
// of the wall, not yet saturated.)
func TestAllocCeilingIsContainerHold(t *testing.T) {
	for _, n := range []int{16, 32, 64} {
		o := contend.New()
		ops, wall, _, err := RunMulticore("alloc", n, mcSeed, 0, Sinks{Contend: o}.Attach)
		if err != nil {
			t.Fatalf("alloc %dc: %v", n, err)
		}
		var hold uint64
		for _, l := range o.Summary() {
			if l.Ident == "container/root" {
				hold = l.HoldCycles
			}
		}
		if share := float64(hold) / float64(wall); share < 0.99 {
			t.Errorf("alloc %dc: container/root held %d of %d wall cycles (%.3f), want >= 0.99", n, hold, wall, share)
		}
		mops := float64(ops) * hw.ClockHz / float64(wall) / 1e6
		ceiling := hw.ClockHz / (float64(hold) / float64(ops)) / 1e6
		if math.Abs(ceiling/mops-1) > 0.01 {
			t.Errorf("alloc %dc: %.2f Mops/s, but a %.1f-cycle hold per mmap allows %.2f", n, mops, float64(hold)/float64(ops), ceiling)
		}
	}
}
