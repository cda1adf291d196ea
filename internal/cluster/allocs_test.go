//go:build !race

package cluster

import "testing"

// Frames reuse the buffers of frames already consumed or dropped, so
// once the tier is warm an untraced, fault-free tick allocates nothing.
// (The race runtime may allocate on its own, so this file builds
// without -race.)
func TestStepAllocatesNothing(t *testing.T) {
	c, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		c.Step()
	}
	if n := testing.AllocsPerRun(200, c.Step); n != 0 {
		t.Fatalf("a warm Step allocates %.2f times, want 0", n)
	}
}
