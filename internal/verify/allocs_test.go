//go:build !race

package verify

import "testing"

// Every invariant in WFChecks allocates nothing on a warm kernel, with
// one exception: memory_wf's per-table refinement check enumerates each
// concrete table into a fresh map (pt.CheckRefinement, one side of the
// §6.2 ablation), so memory_wf may allocate exactly what its processes'
// CheckRefinement calls allocate. (The race runtime may allocate on its
// own, so this file builds without -race.)
func TestWFChecksAllocateNothing(t *testing.T) {
	k := warmKernel(t).k
	var mappings int
	var refinement float64
	for _, proc := range k.PM.ProcPerms {
		mappings += proc.PageTable.MappedCount()
		refinement += testing.AllocsPerRun(20, func() { _ = proc.PageTable.CheckRefinement(k.Machine.MMU) })
	}
	if n := len(k.PM.ProcPerms); n < 3 || mappings < 64 {
		t.Fatalf("warm kernel has %d processes and %d mappings, want at least 3 and 64", n, mappings)
	}
	for _, c := range WFChecks() {
		if err := c.Check(k); err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		want := 0.0
		if c.Name == "memory_wf" {
			want = refinement
		}
		if n := testing.AllocsPerRun(20, func() { _ = c.Check(k) }); n != want {
			t.Errorf("%s allocates %.2f times per call on a warm kernel, want %.2f", c.Name, n, want)
		}
	}
}
