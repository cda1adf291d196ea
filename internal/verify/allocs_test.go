//go:build !race

package verify

import "testing"

// Every invariant in WFChecks allocates nothing on a warm kernel,
// memory_wf's per-table refinement walks included. (The race runtime
// may allocate on its own, so this file builds without -race.)
func TestWFChecksAllocateNothing(t *testing.T) {
	k := warmKernel(t).k
	var mappings int
	for _, proc := range k.PM.ProcPerms {
		mappings += proc.PageTable.MappedCount()
	}
	if n := len(k.PM.ProcPerms); n < 3 || mappings < 64 {
		t.Fatalf("warm kernel has %d processes and %d mappings, want at least 3 and 64", n, mappings)
	}
	for _, c := range WFChecks() {
		if err := c.Check(k); err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		if n := testing.AllocsPerRun(20, func() { _ = c.Check(k) }); n != 0 {
			t.Errorf("%s allocates %.2f times per call on a warm kernel, want 0", c.Name, n)
		}
	}
}
