//go:build !race

package cluster

import (
	"testing"

	"atmosphere/internal/kernel"
)

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

// A respawn boots a fresh kernel but empties the dead generation's
// store in place, and Maglev refills its table in place on eviction
// and reinstatement, so a warm kill → evict → respawn → reinstate cycle
// allocates no more than the boot itself.
func TestRespawnCycleAllocatesOnlyTheBoot(t *testing.T) {
	boot := testing.AllocsPerRun(20, func() {
		if _, _, err := kernel.Boot(machineConfig()); err != nil {
			t.Fatal(err)
		}
	})
	c, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		c.Step()
	}
	const b = 1
	m := c.machines[1+b]
	cycle := func() {
		c.killMachine(m)
		c.health.evict(c, b, c.tick)
		c.tick += RespawnDelayTicks
		c.supervise()
		c.health.reinstate(c, b, c.tick)
		if !m.alive || c.maglev.ActiveBackends() != c.cfg.Backends {
			t.Fatalf("cycle left backend %d alive=%v with %d active backends", b, m.alive, c.maglev.ActiveBackends())
		}
	}
	if n := testing.AllocsPerRun(20, cycle); n > boot {
		t.Fatalf("a warm kill/evict/respawn/reinstate cycle allocates %.2f times, one boot %.2f", n, boot)
	}
}
