package verify

import (
	"testing"

	"atmosphere/internal/hw"
	"atmosphere/internal/mem"
	"atmosphere/internal/pm"
	"atmosphere/internal/pt"
)

// With the contention model and per-core page caches enabled, every
// invariant — the page-cache closure included — must hold through a
// cached mmap/munmap churn and through container teardown while frames
// are still parked in the caches. Each checked syscall re-runs the full
// well-formedness suite, so this exercises MemoryWF's OwnerPCache
// closure at every intermediate state.
func TestCheckedWithCoreCaches(t *testing.T) {
	c, init := newChecker(t)
	c.K.EnableContention()
	c.K.EnableCoreCaches(8)

	r := musts(t)(c.NewContainer(0, init, 200, []int{0, 1, 2, 3}))
	a := pm.Ptr(r.Vals[0])
	r = musts(t)(c.NewProcessIn(0, init, a))
	proc := pm.Ptr(r.Vals[0])
	r = musts(t)(c.NewThreadIn(0, init, proc, 1))
	tid := pm.Ptr(r.Vals[0])

	// Churn enough 4 KiB pages through core 1 to force refills, cache
	// hits on remap, and an overflow drain on the way down.
	musts(t)(c.Mmap(1, tid, 0x400000, 12, hw.Size4K, pt.RW))
	musts(t)(c.Munmap(1, tid, 0x400000, 12, hw.Size4K))
	musts(t)(c.Mmap(1, tid, 0x800000, 4, hw.Size4K, pt.RW))
	if err := TotalWF(c.K); err != nil {
		t.Fatal(err)
	}
	hits, misses, refills, _ := c.K.CoreCaches().Stats()
	if misses == 0 || refills == 0 {
		t.Fatalf("cache never refilled (hits %d, misses %d, refills %d)", hits, misses, refills)
	}
	if hits == 0 {
		t.Fatalf("cache never hit (misses %d, refills %d)", misses, refills)
	}

	// Kill the container with live mappings and cached frames: teardown
	// takes the global DecRef path and must leave the cache closure
	// intact.
	cached := func() int {
		s := mem.NewPageSet()
		c.K.PageCachePagesInto(s)
		return s.Len()
	}
	cachedBefore := cached()
	musts(t)(c.KillContainer(0, init, a))
	if err := TotalWF(c.K); err != nil {
		t.Fatal(err)
	}
	if got := cached(); got != cachedBefore {
		t.Fatalf("teardown disturbed the page cache: %d -> %d frames", cachedBefore, got)
	}
}
