package pt

import (
	"errors"
	"testing"

	"atmosphere/internal/hw"
	"atmosphere/internal/mem"
)

type fixture struct {
	mem   *hw.PhysMem
	mmu   *hw.MMU
	alloc *mem.Allocator
	clock *hw.Clock
	pt    *PageTable
}

func newFixture(t *testing.T, frames int) *fixture {
	t.Helper()
	pm := hw.NewPhysMem(frames)
	clk := &hw.Clock{}
	alloc := mem.NewAllocator(pm, clk, 1)
	table, err := New(alloc, clk)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{mem: pm, mmu: hw.NewMMU(pm), alloc: alloc, clock: clk, pt: table}
}

func (f *fixture) userPage(t *testing.T) hw.PhysAddr {
	t.Helper()
	p, err := f.alloc.AllocUserPage4K()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func (f *fixture) checkAll(t *testing.T) {
	t.Helper()
	if err := f.pt.CheckRefinement(f.mmu); err != nil {
		t.Fatal(err)
	}
	if err := f.pt.CheckStructure(nil); err != nil {
		t.Fatal(err)
	}
}

func TestMap4KAndResolve(t *testing.T) {
	f := newFixture(t, 64)
	p := f.userPage(t)
	if err := f.pt.Map4K(0x40000000, p, RW); err != nil {
		t.Fatal(err)
	}
	e, ok := f.pt.Resolve(0x40000000)
	if !ok || e.Phys != p || e.Size != hw.Size4K || !e.Perm.Write {
		t.Fatalf("resolve = %+v ok=%v", e, ok)
	}
	tr, ok := f.mmu.Walk(f.pt.CR3(), 0x40000123)
	if !ok || tr.Phys != p+0x123 {
		t.Fatalf("mmu walk = %+v ok=%v", tr, ok)
	}
	f.checkAll(t)
}

func TestMapRejectsDoubleMap(t *testing.T) {
	f := newFixture(t, 64)
	p := f.userPage(t)
	if err := f.pt.Map4K(0x1000, p, RW); err != nil {
		t.Fatal(err)
	}
	if err := f.pt.Map4K(0x1000, p, RW); !errors.Is(err, ErrAlreadyMapped) {
		t.Fatalf("double map: %v", err)
	}
}

func TestMapRejectsMisaligned(t *testing.T) {
	f := newFixture(t, 64)
	if err := f.pt.Map4K(0x1001, 0x2000, RW); !errors.Is(err, ErrMisaligned) {
		t.Fatal("misaligned va accepted")
	}
	if err := f.pt.Map4K(0x1000, 0x2001, RW); !errors.Is(err, ErrMisaligned) {
		t.Fatal("misaligned phys accepted")
	}
	if err := f.pt.Map2M(hw.PageSize4K, 0, RW); !errors.Is(err, ErrMisaligned) {
		t.Fatal("misaligned 2M accepted")
	}
	if err := f.pt.Map1G(hw.PageSize2M, 0, RW); !errors.Is(err, ErrMisaligned) {
		t.Fatal("misaligned 1G accepted")
	}
}

func TestUnmapRestoresState(t *testing.T) {
	f := newFixture(t, 64)
	p := f.userPage(t)
	if err := f.pt.Map4K(0x5000, p, RW); err != nil {
		t.Fatal(err)
	}
	e, err := f.pt.Unmap(0x5000)
	if err != nil || e.Phys != p {
		t.Fatalf("unmap = %+v err=%v", e, err)
	}
	if _, ok := f.pt.Resolve(0x5000); ok {
		t.Fatal("resolve after unmap succeeded")
	}
	if _, ok := f.mmu.Walk(f.pt.CR3(), 0x5000); ok {
		t.Fatal("mmu walk after unmap succeeded")
	}
	if _, err := f.pt.Unmap(0x5000); !errors.Is(err, ErrNotMapped) {
		t.Fatal("double unmap not rejected")
	}
	f.checkAll(t)
}

func TestMap2MHugePage(t *testing.T) {
	f := newFixture(t, 3*hw.Pages4KPer2M)
	if _, err := f.alloc.Merge2M(); err != nil {
		t.Fatal(err)
	}
	p, err := f.alloc.AllocUserPage(mem.Size2M)
	if err != nil {
		t.Fatal(err)
	}
	va := hw.VirtAddr(1 << 21)
	if err := f.pt.Map2M(va, p, RW); err != nil {
		t.Fatal(err)
	}
	tr, ok := f.mmu.Walk(f.pt.CR3(), va+0x12345)
	if !ok || tr.Size != hw.Size2M || tr.Phys != p+0x12345 {
		t.Fatalf("2M walk = %+v ok=%v", tr, ok)
	}
	f.checkAll(t)
	if _, err := f.pt.Unmap(va); err != nil {
		t.Fatal(err)
	}
	f.checkAll(t)
}

func TestMapConflictGranularity(t *testing.T) {
	f := newFixture(t, 64)
	p := f.userPage(t)
	// Map a 4K page inside the first 2M region, then try to map the
	// region as 2M: the L2 entry already points at a PT.
	if err := f.pt.Map4K(0x1000, p, RW); err != nil {
		t.Fatal(err)
	}
	if err := f.pt.Map2M(0, 0, RW); !errors.Is(err, ErrConflict) {
		t.Fatalf("2M over PT: %v", err)
	}
	// And a 4K map under an existing 2M mapping must fail.
	va2m := hw.VirtAddr(4 << 21)
	if err := f.pt.Map2M(va2m, 0x200000, RW); err != nil {
		t.Fatal(err)
	}
	if err := f.pt.Map4K(va2m+0x3000, p, RW); !errors.Is(err, ErrAlreadyMapped) {
		t.Fatalf("4K under 2M: %v", err)
	}
}

func TestPermissionsPropagate(t *testing.T) {
	f := newFixture(t, 64)
	p := f.userPage(t)
	ro := Perm{Write: false, User: true, Exec: false}
	if err := f.pt.Map4K(0x9000, p, ro); err != nil {
		t.Fatal(err)
	}
	tr, ok := f.mmu.Walk(f.pt.CR3(), 0x9000)
	if !ok || tr.Writable || !tr.User || !tr.NX {
		t.Fatalf("ro mapping = %+v", tr)
	}
	f.checkAll(t)
}

func TestHighHalfAddresses(t *testing.T) {
	f := newFixture(t, 64)
	p := f.userPage(t)
	va := hw.VAFromIndices(511, 10, 20, 30)
	if err := f.pt.Map4K(va, p, RW); err != nil {
		t.Fatal(err)
	}
	tr, ok := f.mmu.Walk(f.pt.CR3(), va)
	if !ok || tr.Phys != p {
		t.Fatalf("high-half walk = %+v ok=%v", tr, ok)
	}
	f.checkAll(t)
}

func TestMapOtherEntriesUnchanged(t *testing.T) {
	// The §6.2 property that motivated the flat design: adding one
	// mapping changes no other abstract entry.
	f := newFixture(t, 256)
	var vas []hw.VirtAddr
	for i := 0; i < 30; i++ {
		va := hw.VirtAddr(0x100000 + i*hw.PageSize4K)
		if err := f.pt.Map4K(va, f.userPage(t), RW); err != nil {
			t.Fatal(err)
		}
		vas = append(vas, va)
	}
	before := f.pt.AddressSpace()
	newVA := hw.VirtAddr(0x900000)
	if err := f.pt.Map4K(newVA, f.userPage(t), RW); err != nil {
		t.Fatal(err)
	}
	after := f.pt.AddressSpace()
	if len(after) != len(before)+1 {
		t.Fatal("domain grew by more than one")
	}
	for _, va := range vas {
		if before[va] != after[va] {
			t.Fatalf("mapping %#x changed", va)
		}
	}
	f.checkAll(t)
}

// enumerate materializes every terminal mapping the concrete tables
// encode, keyed by base virtual address.
func enumerate(t *PageTable) map[hw.VirtAddr]MapEntry {
	out := make(map[hw.VirtAddr]MapEntry)
	_ = t.eachMapping(func(va hw.VirtAddr, e MapEntry) error {
		out[va] = e
		return nil
	})
	return out
}

func TestStepConsistency(t *testing.T) {
	// §4.2: non-leaf page-table writes never change the abstract
	// address space; each leaf write changes exactly one entry.
	f := newFixture(t, 256)
	prev := enumerate(f.pt)
	f.pt.OnStep = func(leaf bool) {
		cur := enumerate(f.pt)
		if !leaf {
			if len(cur) != len(prev) {
				t.Fatalf("non-leaf step changed address space: %d -> %d", len(prev), len(cur))
			}
			for va, e := range prev {
				if cur[va] != e {
					t.Fatalf("non-leaf step changed mapping %#x", va)
				}
			}
		} else {
			diff := 0
			for va, e := range cur {
				if pe, ok := prev[va]; !ok || pe != e {
					diff++
				}
			}
			for va := range prev {
				if _, ok := cur[va]; !ok {
					diff++
				}
			}
			if diff != 1 {
				t.Fatalf("leaf step changed %d entries, want exactly 1", diff)
			}
		}
		prev = cur
	}
	for i := 0; i < 10; i++ {
		va := hw.VirtAddr(uint64(i) << 30 / 2) // spread across L3/L2 boundaries
		va &^= hw.VirtAddr(hw.PageSize4K - 1)
		if err := f.pt.Map4K(va, f.userPage(t), RW); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.pt.Unmap(0); err != nil {
		t.Fatal(err)
	}
}

func TestPageClosureAndDestroy(t *testing.T) {
	f := newFixture(t, 64)
	p := f.userPage(t)
	if err := f.pt.Map4K(0x1000, p, RW); err != nil {
		t.Fatal(err)
	}
	closure := mem.NewPageSet()
	if !f.pt.PageClosureInto(closure) {
		t.Fatal("closure overlaps the empty set")
	}
	if closure.Len() != 4 { // PML4 + PDPT + PD + PT
		t.Fatalf("closure = %d nodes", closure.Len())
	}
	// The table's nodes are the only allocated pages on this machine.
	if !f.alloc.Snapshot().Allocated.Equal(closure) {
		t.Fatal("closure disagrees with allocator ownership")
	}
	if f.pt.PageClosureInto(closure) {
		t.Fatal("closure added twice reports no overlap")
	}
	if err := f.pt.Destroy(); err == nil {
		t.Fatal("destroy with live mapping should fail")
	}
	if _, err := f.pt.Unmap(0x1000); err != nil {
		t.Fatal(err)
	}
	if err := f.pt.Destroy(); err != nil {
		t.Fatal(err)
	}
	if f.alloc.Snapshot().Allocated.Len() != 0 {
		t.Fatal("destroy leaked node pages")
	}
}

func TestMappedFrames(t *testing.T) {
	f := newFixture(t, 64)
	p1, p2 := f.userPage(t), f.userPage(t)
	f.pt.Map4K(0x1000, p1, RW)
	f.pt.Map4K(0x2000, p2, RW)
	frames := f.pt.MappedFrames()
	if !frames.Equal(mem.NewPageSet(p1, p2)) {
		t.Fatalf("mapped frames = %v", frames.Sorted())
	}
}

func TestRandomizedRefinement(t *testing.T) {
	f := newFixture(t, 1024)
	r := hw.NewRand(99)
	live := map[hw.VirtAddr]bool{}
	for step := 0; step < 400; step++ {
		if r.Bool() || len(live) == 0 {
			va := hw.VirtAddr(r.Uint64n(1<<30)) &^ hw.VirtAddr(hw.PageSize4K-1)
			p, err := f.alloc.AllocUserPage4K()
			if err != nil {
				continue
			}
			if err := f.pt.Map4K(va, p, RW); err != nil {
				f.alloc.DecRef(p)
				continue
			}
			live[va] = true
		} else {
			for va := range live {
				e, err := f.pt.Unmap(va)
				if err != nil {
					t.Fatal(err)
				}
				f.alloc.DecRef(e.Phys)
				delete(live, va)
				break
			}
		}
	}
	f.checkAll(t)
	if f.pt.MappedCount() != len(live) {
		t.Fatalf("ghost count %d != model %d", f.pt.MappedCount(), len(live))
	}
}

func TestMapChargesCycles(t *testing.T) {
	f := newFixture(t, 64)
	before := f.clock.Cycles()
	if err := f.pt.Map4K(0x1000, f.userPage(t), RW); err != nil {
		t.Fatal(err)
	}
	if f.clock.Cycles() <= before {
		t.Fatal("map charged no cycles")
	}
}

func TestLookupCoversSuperpages(t *testing.T) {
	f := newFixture(t, 64)
	va := hw.VirtAddr(6 << 21)
	if err := f.pt.Map2M(va, 0x400000, RW); err != nil {
		t.Fatal(err)
	}
	e, ok := f.pt.Lookup(va + 0x12345)
	if !ok || e.Size != hw.Size2M {
		t.Fatalf("lookup inside 2M = %+v ok=%v", e, ok)
	}
	if _, ok := f.pt.Lookup(va - 1); ok {
		t.Fatal("lookup below mapping succeeded")
	}
}

func TestPruneEmpty(t *testing.T) {
	f := newFixture(t, 128)
	// Build mappings in two distinct regions, then unmap one region:
	// its now-empty table chain is prunable, the other must survive.
	vaA := hw.VirtAddr(0x40000000)
	vaB := hw.VirtAddr(1) << 39 // different PML4 entry
	f.pt.Map4K(vaA, f.userPage(t), RW)
	f.pt.Map4K(vaB, f.userPage(t), RW)
	nodesFull := f.pt.NodeCount()
	if _, err := f.pt.Unmap(vaB); err != nil {
		t.Fatal(err)
	}
	freed := f.pt.PruneEmpty()
	if freed != 3 { // B's PDPT+PD+PT chain
		t.Fatalf("pruned %d nodes, want 3", freed)
	}
	if f.pt.NodeCount() != nodesFull-3 {
		t.Fatal("closure not reduced")
	}
	// A's mapping still resolves; structure and refinement intact.
	if _, ok := f.pt.Resolve(vaA); !ok {
		t.Fatal("surviving mapping lost")
	}
	f.checkAll(t)
	// Prune on a table with no empties is a no-op.
	if f.pt.PruneEmpty() != 0 {
		t.Fatal("second prune freed something")
	}
}

func TestPruneEmptyNeverFreesRoot(t *testing.T) {
	f := newFixture(t, 32)
	if f.pt.PruneEmpty() != 0 {
		t.Fatal("empty table pruned its root")
	}
	if f.pt.NodeCount() != 1 {
		t.Fatal("root freed")
	}
}

// TestMapFailureLeavesTableUnchanged refuses each table node a map into
// an empty region needs, in turn: the map must fail with the
// allocator's error and leave the node set, the free list and the
// translations as it found them.
func TestMapFailureLeavesTableUnchanged(t *testing.T) {
	for _, c := range []struct {
		size  hw.PageSize
		nodes int // nodes a map into an empty table installs
	}{{hw.Size4K, 3}, {hw.Size2M, 2}, {hw.Size1G, 1}} {
		for refuse := 1; refuse <= c.nodes; refuse++ {
			f := newFixture(t, 64)
			nodes, free := f.pt.NodeCount(), f.alloc.FreeCount4K()
			n := 0
			f.alloc.SetFaultHook(func() bool { n++; return n == refuse })
			err := f.pt.Map(0, 0, c.size, RW)
			f.alloc.SetFaultHook(nil)
			if !errors.Is(err, mem.ErrOutOfMemory) {
				t.Fatalf("%v, node %d refused: Map returned %v, want out of memory", c.size, refuse, err)
			}
			if f.pt.NodeCount() != nodes || f.alloc.FreeCount4K() != free {
				t.Fatalf("%v, node %d refused: %d nodes and %d free pages, want %d and %d",
					c.size, refuse, f.pt.NodeCount(), f.alloc.FreeCount4K(), nodes, free)
			}
			if _, ok := f.pt.Lookup(0); ok {
				t.Fatalf("%v, node %d refused: the failed map left a mapping", c.size, refuse)
			}
			f.checkAll(t)
		}
	}
}
