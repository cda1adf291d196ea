package mem

import (
	"testing"

	"atmosphere/internal/hw"
)

func newCacheFixture(t *testing.T, frames int) (*Allocator, *hw.Clock) {
	t.Helper()
	clk := &hw.Clock{}
	pm := hw.NewPhysMem(frames)
	return NewAllocator(pm, clk, 1), clk
}

// A hand-out from a warm cache must cost strictly less than the global
// cold path, and its local share must cover the pop and the zero.
func TestCoreCacheHandOutCosts(t *testing.T) {
	a, clk := newCacheFixture(t, 64)
	cc := NewCoreCaches(a, 2, 4)

	// First allocation: miss, batch refill of 4, then hand-out.
	before := clk.Cycles()
	p, local, err := cc.AllocUser4K(0)
	if err != nil {
		t.Fatalf("AllocUser4K: %v", err)
	}
	refillAndHandOut := clk.Cycles() - before
	if local != hw.CostAllocFast+hw.CostPageZero {
		t.Fatalf("local = %d, want %d", local, hw.CostAllocFast+hw.CostPageZero)
	}
	wantRefill := 4*(hw.CostAllocFast+hw.CostCacheMiss) + local
	if refillAndHandOut != uint64(wantRefill) {
		t.Fatalf("refill+hand-out = %d, want %d", refillAndHandOut, wantRefill)
	}
	if m, err := a.Meta(p); err != nil || m.State != StateMapped || m.RefCount != 1 {
		t.Fatalf("handed-out page meta = %+v, %v", m, err)
	}

	// Second allocation: warm hit, exactly the local cost, cheaper than
	// the global path's 2x cache-miss metadata walk.
	before = clk.Cycles()
	if _, local, err = cc.AllocUser4K(0); err != nil {
		t.Fatalf("warm AllocUser4K: %v", err)
	}
	hit := clk.Cycles() - before
	if hit != local {
		t.Fatalf("warm hand-out charged %d, local %d — refill leaked in", hit, local)
	}
	coldPath := uint64(hw.CostAllocFast + 2*hw.CostCacheMiss + hw.CostPageZero)
	if hit >= coldPath {
		t.Fatalf("warm hand-out (%d cycles) not cheaper than global path (%d)", hit, coldPath)
	}
	hits, misses, refills, _ := cc.Stats()
	if hits != 1 || misses != 1 || refills != 1 {
		t.Fatalf("stats = (%d hits, %d misses, %d refills)", hits, misses, refills)
	}
}

// Freeing through the cache parks frames locally and drains the surplus
// back to the global free list when the cache overfills.
func TestCoreCacheFreeAndDrain(t *testing.T) {
	a, _ := newCacheFixture(t, 64)
	cc := NewCoreCaches(a, 1, 2) // batch 2: drain when > 4 cached
	freeBefore := a.FreeCount4K()

	var pages []hw.PhysAddr
	for i := 0; i < 7; i++ {
		p, _, err := cc.AllocUser4K(0)
		if err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
		pages = append(pages, p)
	}
	for i, p := range pages {
		if _, err := cc.FreeUser4K(0, p); err != nil {
			t.Fatalf("free %d: %v", i, err)
		}
	}
	// After draining, the cache holds at most 2*batch frames and the
	// rest are genuinely free again.
	if n := cc.Len(0); n > 4 {
		t.Fatalf("cache holds %d frames after drain, want <= 4", n)
	}
	cached := NewPageSet()
	cc.PagesInto(cached)
	if got := a.Snapshot().PCache; !got.Equal(cached) {
		t.Fatalf("allocator sees %d cached frames, cache claims %d", got.Len(), cached.Len())
	}
	if err := cc.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if a.FreeCount4K() != freeBefore {
		t.Fatalf("free count %d after full drain, want %d", a.FreeCount4K(), freeBefore)
	}
	if a.Snapshot().PCache.Len() != 0 {
		t.Fatalf("frames still owned by page-cache after Drain")
	}
}

// Frames handed out by the cache are indistinguishable from global
// allocations to the rest of the system: DecRef frees them normally,
// and shared (refcount > 1) frames are rejected by the cache free path.
func TestCoreCacheInterop(t *testing.T) {
	a, _ := newCacheFixture(t, 16)
	cc := NewCoreCaches(a, 1, 2)
	p, _, err := cc.AllocUser4K(0)
	if err != nil {
		t.Fatalf("alloc: %v", err)
	}
	if err := a.IncRef(p); err != nil {
		t.Fatalf("IncRef: %v", err)
	}
	if _, err := cc.FreeUser4K(0, p); err == nil {
		t.Fatalf("cache accepted a shared frame")
	}
	if _, err := a.DecRef(p); err != nil {
		t.Fatalf("DecRef: %v", err)
	}
	if freed, err := a.DecRef(p); err != nil || !freed {
		t.Fatalf("final DecRef = (%v, %v), want freed", freed, err)
	}
}

// The observer sees one lifecycle event per cache transition, in order.
func TestCoreCacheObserverEvents(t *testing.T) {
	a, _ := newCacheFixture(t, 16)
	var ops []PageOp
	a.SetObserver(func(op PageOp, p hw.PhysAddr, sc SizeClass) { ops = append(ops, op) })
	cc := NewCoreCaches(a, 1, 1)
	p, _, err := cc.AllocUser4K(0)
	if err != nil {
		t.Fatalf("alloc: %v", err)
	}
	if _, err := cc.FreeUser4K(0, p); err != nil {
		t.Fatalf("free: %v", err)
	}
	if err := cc.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	want := []PageOp{OpCacheFill, OpCacheAlloc, OpCacheFree, OpCacheDrain}
	if len(ops) != len(want) {
		t.Fatalf("ops = %v, want %v", ops, want)
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Fatalf("ops[%d] = %v, want %v", i, ops[i], want[i])
		}
	}
}
