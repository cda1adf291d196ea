package mck

import (
	"os"
	"path/filepath"
	"testing"
)

// fuzzOps caps how many decoded ops a single fuzz execution runs: the
// engine loves growing inputs, and each op costs a full syscall plus a
// spec step plus (periodically) an abstraction diff.
const fuzzOps = 300

// fuzzSeeds feeds the checked-in corpus to a fuzz target: generator
// output across several swarm profiles plus every minimized regression
// repro (re-encoded to the binary form the targets consume).
func fuzzSeeds(f *testing.F) {
	for seed := uint64(1); seed <= 6; seed++ {
		f.Add(Generate(seed, 120).Encode())
	}
	files, err := filepath.Glob(filepath.Join("testdata", "repro_*.repro"))
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

// FuzzDiff decodes arbitrary bytes into a syscall program (decoding is
// total) and runs it through the lockstep differential oracle: any
// kernel-vs-spec divergence, interpreter errno mismatch, kernel panic,
// or lock-order inversion (the checker runs armed under fuzzing) fails
// the target.
func FuzzDiff(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		p := FromBytes(data)
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

// FuzzChecked runs the same decoded programs through the per-syscall
// spec predicates and the invariant suite instead of the interpreter,
// with the lock-order checker armed as well.
func FuzzChecked(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		p := FromBytes(data)
		if len(p.Ops) > fuzzOps {
			p.Ops = p.Ops[:fuzzOps]
		}
		opt, violation := Options{}.WithLockOrder()
		if _, err := RunChecked(p, opt); err != nil {
			t.Fatalf("checked run: %v\nrepro:\n%s", err, p.EncodeRepro())
		}
		if v := violation(); v != nil {
			t.Fatalf("%s\nrepro:\n%s", v, p.EncodeRepro())
		}
	})
}
