package mck

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"atmosphere/internal/kernel"
)

// fuzzBatchSeeds feeds the batch-dialect corpus: generator output plus
// every checked-in batch repro. The batch repros are named
// repro_batch_*.repro, so the general targets (FuzzDiff/FuzzChecked)
// pick them up through their repro_*.repro glob as well.
func fuzzBatchSeeds(f *testing.F) {
	for seed := uint64(1); seed <= 6; seed++ {
		f.Add(GenerateBatched(seed, 120).Encode())
	}
	files, err := filepath.Glob(filepath.Join("testdata", "repro_batch_*.repro"))
	if err != nil {
		f.Fatal(err)
	}
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		p, err := ParseRepro(data)
		if err != nil {
			f.Fatalf("%s: %v", file, err)
		}
		f.Add(p.Encode())
	}
}

// FuzzDiffBatch is the batching differential target: arbitrary bytes
// decode (totally) into a batch-dialect program — KBatch doorbells,
// grant-bearing sends, and the setup ops they need — and run through
// the lockstep oracle. The oracle property is exactly the batching
// spec: Ψ after a batch must equal the spec interpreter run over the
// flattened per-op sequence the completion ring reports, op by op.
func FuzzDiffBatch(f *testing.F) {
	fuzzBatchSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		p := FromBytesBatch(data)
		if len(p.Ops) > fuzzOps {
			p.Ops = p.Ops[:fuzzOps]
		}
		opt, violation := Options{WFEvery: 64}.WithLockOrder()
		res, _, err := RunDiff(p, opt)
		if err != nil {
			t.Fatalf("boot: %v", err)
		}
		if res != nil {
			t.Fatalf("divergence: %v\nrepro:\n%s", res, p.EncodeRepro())
		}
		if v := violation(); v != nil {
			t.Fatalf("%s\nrepro:\n%s", v, p.EncodeRepro())
		}
	})
}

// TestBatchDiffSeeds runs the deterministic batch-dialect corpus
// through both oracles — the lockstep interpreter and the per-step
// predicates — so the batching spec is exercised on every plain `go
// test` run, not only under the fuzz engine.
func TestBatchDiffSeeds(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		p := GenerateBatched(seed, 250)
		opt, violation := Options{WFEvery: 32}.WithLockOrder()
		res, st, err := RunDiff(p, opt)
		if err != nil {
			t.Fatalf("seed %d: boot: %v", seed, err)
		}
		if res != nil {
			t.Fatalf("seed %d diverged: %v\nrepro:\n%s", seed, res, p.EncodeRepro())
		}
		if v := violation(); v != nil {
			t.Fatalf("seed %d: %s", seed, v)
		}
		if st.Ops["batch"] == 0 {
			t.Fatalf("seed %d: batch dialect ran zero doorbells", seed)
		}
		if _, err := RunChecked(p, Options{}); err != nil {
			t.Fatalf("seed %d checked: %v", seed, err)
		}
	}
}

// grantLeakOptions arms the planted double-grant bug: the kernel skips
// revoking the sender's mapping (and crediting its quota) when a grant
// moves into flight, so one page ends up with two owners. Crucially the
// ledger audit and the memory invariants both stay self-consistent —
// the mapping and the in-flight reference are each properly accounted —
// so only the differential oracle can see it, as a kernel-vs-spec
// used_pages/address-space divergence.
func grantLeakOptions() Options {
	return Options{Hook: func(k *kernel.Kernel) { k.SetMutantForTest(kernel.MutantGrantLeak) }}
}

// grantLeakSeed is a batch-dialect seed whose program drives a grant
// through a KBatch doorbell early; the golden below pins its shrink.
const grantLeakSeed = 15

// TestGrantLeakCaught is the batching oracle's proof of life: with the
// double-grant planted, a batch-dialect program must (a) diverge at the
// field level, (b) shrink to a tiny deterministic repro that still
// carries the grant. A blind oracle turns this whole file decorative.
func TestGrantLeakCaught(t *testing.T) {
	p := GenerateBatched(grantLeakSeed, 400)
	res, _, err := RunDiff(p, grantLeakOptions())
	if err != nil {
		t.Fatalf("boot: %v", err)
	}
	if res == nil {
		t.Fatalf("oracle missed the planted double-grant over %d ops", len(p.Ops))
	}
	if res.Err == nil {
		t.Fatalf("divergence carries no field description: %+v", res)
	}
	t.Logf("caught: %v", res)

	failing := func(q Program) bool { return Fails(q, grantLeakOptions()) }
	s1 := Shrink(p, failing)
	if len(s1.Ops) > 10 {
		t.Fatalf("shrunk repro has %d ops, want <= 10:\n%s", len(s1.Ops), s1.EncodeRepro())
	}
	if !failing(s1) {
		t.Fatalf("shrunk repro no longer fails")
	}
	s2 := Shrink(p, failing)
	if !bytes.Equal(s1.EncodeRepro(), s2.EncodeRepro()) {
		t.Fatalf("shrink is not deterministic:\n%s\nvs\n%s", s1.EncodeRepro(), s2.EncodeRepro())
	}
}

// TestGrantLeakShrinkGolden pins the minimized double-grant repro
// byte-for-byte, and proves it replays: the checked-in file must still
// diverge under the planted bug and must pass on the healthy kernel
// (so the corpus can carry it as a regression seed). Regenerate
// deliberately with UPDATE_GOLDEN=1.
func TestGrantLeakShrinkGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("shrinking loop is slow")
	}
	failing := func(q Program) bool { return Fails(q, grantLeakOptions()) }
	s := Shrink(GenerateBatched(grantLeakSeed, 400), failing)
	got := s.EncodeRepro()
	golden := filepath.Join("testdata", "repro_batch_grant_leak.repro")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("golden missing (set UPDATE_GOLDEN=1 to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("shrunk repro drifted from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	p, err := ParseRepro(want)
	if err != nil {
		t.Fatalf("golden does not parse: %v", err)
	}
	if !Fails(p, grantLeakOptions()) {
		t.Fatal("golden repro no longer reproduces the planted double-grant")
	}
	if res, _, err := RunDiff(p, Options{WFEvery: 1}); err != nil || res != nil {
		t.Fatalf("golden repro fails on the healthy kernel: res=%v err=%v", res, err)
	}
}
