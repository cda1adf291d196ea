package mem

import (
	"errors"
	"testing"
	"testing/quick"

	"atmosphere/internal/hw"
)

func newTestAlloc(frames int) *Allocator {
	m := hw.NewPhysMem(frames)
	var clk hw.Clock
	return NewAllocator(m, &clk, 1)
}

func TestAllocFreeRoundTrip(t *testing.T) {
	a := newTestAlloc(16)
	before := a.FreeCount4K()
	p, err := a.AllocPage4K(OwnerProcessMgr)
	if err != nil {
		t.Fatal(err)
	}
	if a.FreeCount4K() != before-1 {
		t.Fatal("free count did not shrink by one")
	}
	meta, _ := a.Meta(p)
	if meta.State != StateAllocated || meta.Owner != OwnerProcessMgr {
		t.Fatalf("meta = %+v", meta)
	}
	if err := a.FreePage(p); err != nil {
		t.Fatal(err)
	}
	if a.FreeCount4K() != before {
		t.Fatal("free count did not return")
	}
}

func TestAllocZeroesPage(t *testing.T) {
	a := newTestAlloc(8)
	p, _ := a.AllocPage4K(OwnerPageTable)
	a.Mem().Write(p, []byte{1, 2, 3})
	a.FreePage(p)
	q, _ := a.AllocPage4K(OwnerPageTable)
	for q != p {
		// drain until we get the same frame back
		var err error
		q, err = a.AllocPage4K(OwnerPageTable)
		if err != nil {
			t.Fatal("never got recycled frame")
		}
	}
	for i, b := range a.Mem().Read(q, 8) {
		if b != 0 {
			t.Fatalf("recycled page byte %d = %d, want 0", i, b)
		}
	}
}

func TestAllocNeverReturnsNull(t *testing.T) {
	a := newTestAlloc(8)
	for {
		p, err := a.AllocPage4K(OwnerProcessMgr)
		if err != nil {
			break
		}
		if p == 0 {
			t.Fatal("allocator returned the null page")
		}
	}
}

func TestOutOfMemory(t *testing.T) {
	a := newTestAlloc(4)
	var got []hw.PhysAddr
	for {
		p, err := a.AllocPage4K(OwnerProcessMgr)
		if err != nil {
			if !errors.Is(err, ErrOutOfMemory) {
				t.Fatalf("wrong error: %v", err)
			}
			break
		}
		got = append(got, p)
	}
	if len(got) != 3 { // 4 frames minus 1 reserved
		t.Fatalf("allocated %d pages from 4-frame machine", len(got))
	}
}

func TestDoubleFreeRejected(t *testing.T) {
	a := newTestAlloc(8)
	p, _ := a.AllocPage4K(OwnerProcessMgr)
	if err := a.FreePage(p); err != nil {
		t.Fatal(err)
	}
	if err := a.FreePage(p); !errors.Is(err, ErrWrongState) {
		t.Fatalf("double free not rejected: %v", err)
	}
}

func TestFreeBootReservedRejected(t *testing.T) {
	a := newTestAlloc(8)
	if err := a.FreePage(0); !errors.Is(err, ErrWrongState) {
		t.Fatalf("freeing boot page not rejected: %v", err)
	}
}

func TestBadPointerRejected(t *testing.T) {
	a := newTestAlloc(8)
	if err := a.FreePage(123); !errors.Is(err, ErrBadPage) {
		t.Fatal("unaligned pointer not rejected")
	}
	if err := a.FreePage(hw.PhysAddr(1 << 40)); !errors.Is(err, ErrBadPage) {
		t.Fatal("out-of-range pointer not rejected")
	}
}

func TestUserPageRefCounting(t *testing.T) {
	a := newTestAlloc(8)
	p, err := a.AllocUserPage4K()
	if err != nil {
		t.Fatal(err)
	}
	if err := a.IncRef(p); err != nil {
		t.Fatal(err)
	}
	if rc, _ := a.RefCount(p); rc != 2 {
		t.Fatalf("refcount = %d", rc)
	}
	freed, err := a.DecRef(p)
	if err != nil || freed {
		t.Fatalf("first decref freed=%v err=%v", freed, err)
	}
	freed, err = a.DecRef(p)
	if err != nil || !freed {
		t.Fatalf("last decref freed=%v err=%v", freed, err)
	}
	meta, _ := a.Meta(p)
	if meta.State != StateFree {
		t.Fatalf("state after final decref = %v", meta.State)
	}
	if _, err := a.DecRef(p); !errors.Is(err, ErrWrongState) {
		t.Fatal("decref of free page not rejected")
	}
}

func TestIncRefOfAllocatedRejected(t *testing.T) {
	a := newTestAlloc(8)
	p, _ := a.AllocPage4K(OwnerProcessMgr)
	if err := a.IncRef(p); !errors.Is(err, ErrWrongState) {
		t.Fatal("incref of kernel page not rejected")
	}
}

func TestMerge2M(t *testing.T) {
	// 2 MiB = 512 frames; give the machine 3 superpages' worth.
	a := newTestAlloc(3 * hw.Pages4KPer2M)
	free4kBefore := a.FreeCount4K()
	p, err := a.Merge2M()
	if err != nil {
		t.Fatal(err)
	}
	if !hw.Aligned2M(uint64(p)) {
		t.Fatalf("merged head %#x not 2M aligned", p)
	}
	if a.FreeCount2M() != 1 {
		t.Fatalf("2M free count = %d", a.FreeCount2M())
	}
	if a.FreeCount4K() != free4kBefore-hw.Pages4KPer2M {
		t.Fatalf("4K free count = %d", a.FreeCount4K())
	}
	head, _ := a.Meta(p)
	if head.State != StateFree || head.Size != Size2M {
		t.Fatalf("head meta = %+v", head)
	}
	tail, _ := a.Meta(p + hw.PageSize4K)
	if tail.State != StateMerged || tail.Head != int32(uint64(p)/hw.PageSize4K) {
		t.Fatalf("tail meta = %+v", tail)
	}
}

func TestMerge2MSkipsBusyRanges(t *testing.T) {
	a := newTestAlloc(2 * hw.Pages4KPer2M)
	// Frame 0 is boot-reserved, so the first 2M range can never merge;
	// the second range must be chosen.
	p, err := a.Merge2M()
	if err != nil {
		t.Fatal(err)
	}
	if p != hw.PhysAddr(hw.PageSize2M) {
		t.Fatalf("merge picked %#x, want second range", p)
	}
	// Now nothing else can merge.
	if _, err := a.Merge2M(); !errors.Is(err, ErrNotMergeable) {
		t.Fatal("second merge should fail")
	}
}

func TestAllocUserSuperpage(t *testing.T) {
	a := newTestAlloc(2 * hw.Pages4KPer2M)
	if _, err := a.AllocUserPage(Size2M); !errors.Is(err, ErrOutOfMemory) {
		t.Fatal("superpage alloc before merge should fail")
	}
	if _, err := a.Merge2M(); err != nil {
		t.Fatal(err)
	}
	p, err := a.AllocUserPage(Size2M)
	if err != nil {
		t.Fatal(err)
	}
	meta, _ := a.Meta(p)
	if meta.State != StateMapped || meta.Size != Size2M || meta.RefCount != 1 {
		t.Fatalf("superpage meta = %+v", meta)
	}
	freed, err := a.DecRef(p)
	if err != nil || !freed {
		t.Fatal("superpage decref failed")
	}
	if a.FreeCount2M() != 1 {
		t.Fatal("superpage did not return to 2M list")
	}
}

func TestSplit(t *testing.T) {
	a := newTestAlloc(2 * hw.Pages4KPer2M)
	p, err := a.Merge2M()
	if err != nil {
		t.Fatal(err)
	}
	before4k := a.FreeCount4K()
	if err := a.Split(p); err != nil {
		t.Fatal(err)
	}
	if a.FreeCount4K() != before4k+hw.Pages4KPer2M {
		t.Fatal("split did not return constituents")
	}
	if a.FreeCount2M() != 0 {
		t.Fatal("split left superpage on list")
	}
	meta, _ := a.Meta(p + hw.PageSize4K)
	if meta.State != StateFree || meta.Size != Size4K {
		t.Fatalf("constituent meta = %+v", meta)
	}
}

func TestSplitOf4KRejected(t *testing.T) {
	a := newTestAlloc(8)
	p, _ := a.AllocPage4K(OwnerProcessMgr)
	a.FreePage(p)
	if err := a.Split(p); !errors.Is(err, ErrWrongState) {
		t.Fatal("split of 4K page not rejected")
	}
}

func TestMerge1GImpossibleOnSmallMachine(t *testing.T) {
	a := newTestAlloc(1024)
	if _, err := a.Merge1G(); !errors.Is(err, ErrNotMergeable) {
		t.Fatal("1G merge on 4MiB machine should fail")
	}
}

// TestLeakFreedomInvariant is the executable form of the paper's leak
// freedom statement: after an arbitrary interleaving of allocator
// operations, the page sets partition physical memory exactly.
func TestLeakFreedomInvariant(t *testing.T) {
	a := newTestAlloc(4 * hw.Pages4KPer2M)
	r := hw.NewRand(1234)
	var kernelPages, userPages, super []hw.PhysAddr
	for step := 0; step < 5000; step++ {
		switch r.Intn(7) {
		case 0, 1:
			if p, err := a.AllocPage4K(OwnerProcessMgr); err == nil {
				kernelPages = append(kernelPages, p)
			}
		case 2:
			if p, err := a.AllocUserPage4K(); err == nil {
				userPages = append(userPages, p)
			}
		case 3:
			if len(kernelPages) > 0 {
				i := r.Intn(len(kernelPages))
				if err := a.FreePage(kernelPages[i]); err != nil {
					t.Fatal(err)
				}
				kernelPages = append(kernelPages[:i], kernelPages[i+1:]...)
			}
		case 4:
			if len(userPages) > 0 {
				i := r.Intn(len(userPages))
				if _, err := a.DecRef(userPages[i]); err != nil {
					t.Fatal(err)
				}
				userPages = append(userPages[:i], userPages[i+1:]...)
			}
		case 5:
			if p, err := a.Merge2M(); err == nil {
				super = append(super, p)
			}
		case 6:
			if len(super) > 0 {
				i := r.Intn(len(super))
				if err := a.Split(super[i]); err != nil {
					t.Fatal(err)
				}
				super = append(super[:i], super[i+1:]...)
			}
		}
	}
	checkPartition(t, a)
}

// checkPartition verifies free ∪ allocated ∪ mapped ∪ merged ∪ boot covers
// every frame exactly once and agrees with the free lists.
func checkPartition(t *testing.T, a *Allocator) {
	t.Helper()
	s := a.Snapshot()
	total := s.Free4K.Len() + s.Free2M.Len() + s.Free1G.Len() +
		s.Allocated.Len() + s.Mapped.Len() + s.Merged.Len() + s.Boot.Len()
	if total != a.Frames() {
		t.Fatalf("partition covers %d of %d frames", total, a.Frames())
	}
	sets := []*PageSet{s.Free4K, s.Free2M, s.Free1G, s.Allocated, s.Mapped, s.Merged, s.Boot}
	for i := range sets {
		for j := i + 1; j < len(sets); j++ {
			if !sets[i].Disjoint(sets[j]) {
				t.Fatalf("page sets %d and %d overlap", i, j)
			}
		}
	}
	if !freeList(t, a, Size4K).Equal(s.Free4K) {
		t.Fatalf("4K free list disagrees with metadata (%d)", s.Free4K.Len())
	}
	if !freeList(t, a, Size2M).Equal(s.Free2M) {
		t.Fatal("2M free list disagrees with metadata")
	}
}

// freeList returns the frames on sc's free list, the 4 KiB list's
// untouched tail included, failing the test if the list repeats a
// frame.
func freeList(t *testing.T, a *Allocator, sc SizeClass) *PageSet {
	t.Helper()
	s := NewPageSet()
	for i := a.head[sc]; i != nilIdx; i = a.pages[i].Next {
		p := a.mem.FrameAddr(int(i))
		if s.Contains(p) {
			t.Fatalf("%v free list repeats %#x", sc, p)
		}
		s.Insert(p)
	}
	if sc == Size4K {
		for i := a.Touched(); i < a.Frames(); i++ {
			s.Insert(a.mem.FrameAddr(i))
		}
	}
	return s
}

func TestFreeListWalkMatchesCount(t *testing.T) {
	a := newTestAlloc(64)
	free := a.Snapshot().Free4K
	if !freeList(t, a, Size4K).Equal(free) || free.Len() != a.FreeCount4K() {
		t.Fatalf("walk of %d free pages != count %d", free.Len(), a.FreeCount4K())
	}
}

func TestPageSetOps(t *testing.T) {
	s := NewPageSet(0x1000, 0x2000)
	u := NewPageSet(0x3000)
	if !s.Disjoint(u) {
		t.Fatal("disjoint sets reported overlapping")
	}
	s.Union(u)
	if s.Len() != 3 || !s.Contains(0x3000) {
		t.Fatal("union failed")
	}
	c := s.Clone()
	c.Remove(0x1000)
	if !s.Contains(0x1000) {
		t.Fatal("clone aliases original")
	}
	if !u.Subset(s) || s.Subset(u) {
		t.Fatal("subset logic wrong")
	}
	if !s.Equal(NewPageSet(0x1000, 0x2000, 0x3000)) {
		t.Fatal("equal failed")
	}
	sorted := s.Sorted()
	for i := 1; i < len(sorted); i++ {
		if sorted[i-1] >= sorted[i] {
			t.Fatal("Sorted not ascending")
		}
	}
}

// Property: alloc then free restores the exact abstract state.
func TestAllocFreeIsIdentityOnAbstractState(t *testing.T) {
	a := newTestAlloc(32)
	f := func(n uint8) bool {
		before := a.Snapshot()
		count := int(n%8) + 1
		var ps []hw.PhysAddr
		for i := 0; i < count; i++ {
			p, err := a.AllocPage4K(OwnerProcessMgr)
			if err != nil {
				break
			}
			ps = append(ps, p)
		}
		for _, p := range ps {
			if err := a.FreePage(p); err != nil {
				return false
			}
		}
		after := a.Snapshot()
		return before.Free4K.Equal(after.Free4K) && before.Allocated.Equal(after.Allocated)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property (Listing 4 postconditions): each alloc removes exactly the
// returned page from the free set and adds exactly it to the allocated set.
func TestAllocPostconditions(t *testing.T) {
	a := newTestAlloc(64)
	for i := 0; i < 20; i++ {
		before := a.Snapshot()
		p, err := a.AllocPage4K(OwnerProcessMgr)
		if err != nil {
			t.Fatal(err)
		}
		after := a.Snapshot()
		if !before.Free4K.Contains(p) {
			t.Fatal("returned page was not previously free")
		}
		want := before.Free4K.Clone()
		want.Remove(p)
		if !after.Free4K.Equal(want) {
			t.Fatal("free set changed by more than the returned page")
		}
		wantAlloc := before.Allocated.Clone()
		wantAlloc.Insert(p)
		if !after.Allocated.Equal(wantAlloc) {
			t.Fatal("allocated set changed by more than the returned page")
		}
	}
}
