package mem

import (
	"fmt"
	"testing"

	"atmosphere/internal/hw"
)

// newDenseAlloc returns the dense reference for the touched-prefix
// layout: an allocator whose prefix is grown over every frame at
// construction, so it keeps metadata for each frame as a page array
// covering all of RAM does, and no pop or merge ever reaches past it.
func newDenseAlloc(frames int) *Allocator {
	a := newTestAlloc(frames)
	a.grow(frames)
	return a
}

// denseEnds returns sc's free-list head and tail as a page array
// covering every frame holds them: the untouched frames are the 4 KiB
// list's ascending tail.
func denseEnds(a *Allocator, sc SizeClass) (head, tail int) {
	head, tail = a.FreeListHead(sc), a.FreeListTail(sc)
	if sc == Size4K && a.Touched() < a.Frames() {
		if head < 0 {
			head = a.Touched()
		}
		tail = a.Frames() - 1
	}
	return head, tail
}

// sameState fails the test unless each allocator's recorded list tails
// end their lists, and sparse and dense agree on every frame's
// metadata, every free list's ends and count, and the Snapshot.
func sameState(t *testing.T, at string, sparse, dense *Allocator) {
	t.Helper()
	for _, a := range []*Allocator{sparse, dense} {
		for _, sc := range []SizeClass{Size4K, Size2M, Size1G} {
			last := nilIdx
			for i := a.head[sc]; i != nilIdx; i = a.pages[i].Next {
				last = i
			}
			if last != a.tail[sc] {
				t.Fatalf("%s: %v list ends at %d, tail records %d", at, sc, last, a.tail[sc])
			}
		}
	}
	for i := 0; i < dense.Frames(); i++ {
		p := dense.mem.FrameAddr(i)
		got, err := sparse.Meta(p)
		if want, _ := dense.Meta(p); err != nil || got != want {
			t.Fatalf("%s: frame %d meta %+v (%v), dense %+v", at, i, got, err, want)
		}
	}
	for _, sc := range []SizeClass{Size4K, Size2M, Size1G} {
		gh, gt := denseEnds(sparse, sc)
		wh, wt := denseEnds(dense, sc)
		if gh != wh || gt != wt || sparse.freeCount[sc] != dense.freeCount[sc] {
			t.Fatalf("%s: %v list ends %d..%d count %d, dense %d..%d count %d",
				at, sc, gh, gt, sparse.freeCount[sc], wh, wt, dense.freeCount[sc])
		}
	}
	gs, ws := sparse.Snapshot(), dense.Snapshot()
	for _, pair := range [][2]*PageSet{{gs.Free4K, ws.Free4K}, {gs.Free2M, ws.Free2M}, {gs.Free1G, ws.Free1G},
		{gs.Allocated, ws.Allocated}, {gs.Mapped, ws.Mapped}, {gs.Merged, ws.Merged}, {gs.Boot, ws.Boot},
		{gs.PCache, ws.PCache}} {
		if !pair[0].Equal(pair[1]) {
			t.Fatalf("%s: snapshot set of %d pages, dense %d", at, pair[0].Len(), pair[1].Len())
		}
	}
}

// denseAllocFrames are the machine sizes an op stream picks from. All
// but the last end in a short step of the prefix, and all but the
// smallest hold a 2 MiB range that a merge can take.
var denseAllocFrames = []int{3*hw.Pages4KPer2M + 200, 2*hw.Pages4KPer2M + 37, 2*hw.PrefixStep + 5, 2 * hw.Pages4KPer2M}

// maxAllocOps bounds one op stream.
const maxAllocOps = 600

// allocByAddr are the transitions that take a page address.
var allocByAddr = []struct {
	name string
	fn   func(*Allocator, hw.PhysAddr) error
}{
	{"IncRef", (*Allocator).IncRef},
	{"DecRef", func(a *Allocator, p hw.PhysAddr) error { _, err := a.DecRef(p); return err }},
	{"FreePage", (*Allocator).FreePage},
	{"CacheToUser", (*Allocator).CacheToUser},
	{"UserToCache", (*Allocator).UserToCache},
	{"CacheToFree", (*Allocator).CacheToFree},
	{"Split", (*Allocator).Split},
	{"RefCount", func(a *Allocator, p hw.PhysAddr) error { _, err := a.RefCount(p); return err }},
}

// allocOps yields an op stream's bytes, then zeros.
type allocOps []byte

func (r *allocOps) byte() byte {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return b
}

// intn returns a number below n, from the next two bytes.
func (r *allocOps) intn(n int) int { return (int(r.byte())<<8 | int(r.byte())) % n }

// runAllocOps drives a touched-prefix allocator and its dense reference
// through the op stream in data, on a machine the stream's first byte
// picks. Each step must return the same page and the same error and
// charge the same cycles, including transitions by address on frames
// never handed out (an untouched frame is a free 4 KiB page, which none
// of them accepts); every frame's Meta, the free lists and the Snapshot
// must agree after every step that grows the prefix, every 25 steps and
// at the end. It returns how often a pop and a merge grew the prefix.
func runAllocOps(t *testing.T, data []byte) (popGrowths, mergeGrowths int) {
	r := allocOps(data)
	frames := denseAllocFrames[int(r.byte())%len(denseAllocFrames)]
	sparse, dense := newTestAlloc(frames), newDenseAlloc(frames)
	var held []hw.PhysAddr // pages handed out at some point
	pick := func() hw.PhysAddr {
		switch n := r.byte() % 10; {
		case n < 6 && len(held) > 0:
			return held[r.intn(len(held))]
		case n < 9:
			return hw.PhysAddr(uint64(r.intn(frames)) * hw.PageSize4K)
		default: // out of range or misaligned
			return hw.PhysAddr(uint64(frames+r.intn(4))*hw.PageSize4K + uint64(r.intn(2)))
		}
	}
	for step := 0; step < maxAllocOps && len(r) > 0; step++ {
		before := sparse.Touched()
		var name string
		var got, want hw.PhysAddr
		var gerr, werr error
		switch op := r.byte() % 17; op {
		case 0, 1, 2:
			owner := []Owner{OwnerProcessMgr, OwnerPageTable, OwnerIOMMU}[r.byte()%3]
			name = fmt.Sprintf("AllocPage4K(%v)", owner)
			got, gerr = sparse.AllocPage4K(owner)
			want, werr = dense.AllocPage4K(owner)
		case 3, 4:
			name = "AllocUserPage4K"
			got, gerr = sparse.AllocUserPage4K()
			want, werr = dense.AllocUserPage4K()
		case 5:
			name = "AllocUserPage(2M)"
			got, gerr = sparse.AllocUserPage(Size2M)
			want, werr = dense.AllocUserPage(Size2M)
		case 6:
			name = "MoveFreeToCache"
			got, gerr = sparse.MoveFreeToCache()
			want, werr = dense.MoveFreeToCache()
		case 7:
			name = "Merge2M"
			got, gerr = sparse.Merge2M()
			want, werr = dense.Merge2M()
			if gerr == nil && int(uint64(got)/hw.PageSize4K) >= before {
				mergeGrowths++
			}
		case 16: // a burst of pops, so a stream crosses many steps of the prefix
			n := 1 + int(r.byte()%64)
			name = fmt.Sprintf("%d×AllocUserPage4K", n)
			for ; n > 0 && got == want && fmt.Sprint(gerr) == fmt.Sprint(werr); n-- {
				if gerr == nil && got != 0 {
					held = append(held, got)
				}
				got, gerr = sparse.AllocUserPage4K()
				want, werr = dense.AllocUserPage4K()
			}
		default:
			do := allocByAddr[op-8]
			got = pick()
			want = got
			name = fmt.Sprintf("%s(%#x)", do.name, got)
			gerr, werr = do.fn(sparse, got), do.fn(dense, got)
		}
		at := fmt.Sprintf("%d frames, step %d %s", frames, step, name)
		if got != want || fmt.Sprint(gerr) != fmt.Sprint(werr) {
			t.Fatalf("%s = %#x, %v; dense %#x, %v", at, got, gerr, want, werr)
		}
		if g, w := sparse.clock.Cycles(), dense.clock.Cycles(); g != w {
			t.Fatalf("%s: charged %d cycles in all, dense %d", at, g, w)
		}
		if gerr == nil && got != 0 {
			held = append(held, got)
		}
		if sparse.Touched() > before && name != "Merge2M" {
			popGrowths++
		}
		if step%25 == 0 || sparse.Touched() > before {
			sameState(t, at, sparse, dense)
		}
	}
	sameState(t, fmt.Sprintf("%d frames, end", frames), sparse, dense)
	return popGrowths, mergeGrowths
}

// allocSeeds returns seeded op streams of the given length.
func allocSeeds(n, length int) [][]byte {
	out := make([][]byte, n)
	for s := range out {
		out[s] = make([]byte, length)
		hw.NewRand(uint64(s) + 1).Bytes(out[s])
	}
	return out
}

// TestUntouchedTailMatchesDense runs seeded op streams through
// runAllocOps. Pops and merges must both have grown the prefix.
func TestUntouchedTailMatchesDense(t *testing.T) {
	var popGrowths, mergeGrowths int
	for _, data := range allocSeeds(24, 4*maxAllocOps) {
		p, m := runAllocOps(t, data)
		popGrowths += p
		mergeGrowths += m
	}
	if popGrowths == 0 || mergeGrowths == 0 {
		t.Fatalf("prefix grew %d times by a pop and %d times by a merge, want both", popGrowths, mergeGrowths)
	}
}

func FuzzAllocatorDense(f *testing.F) {
	for _, data := range allocSeeds(8, 4*maxAllocOps) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) { runAllocOps(t, data) })
}
