package mem

import (
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"atmosphere/internal/hw"
)

// pageModel is the reference a PageSet is checked against.
type pageModel map[hw.PhysAddr]bool

func (m pageModel) sorted() []hw.PhysAddr {
	out := make([]hw.PhysAddr, 0, len(m))
	for p := range m {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (m pageModel) subset(o pageModel) bool {
	for p := range m {
		if !o[p] {
			return false
		}
	}
	return true
}

func (m pageModel) disjoint(o pageModel) bool {
	for p := range m {
		if o[p] {
			return false
		}
	}
	return true
}

// checkAgainstModel asserts every read method of every set agrees with
// its model, pairwise for the binary predicates.
func checkAgainstModel(t *testing.T, step int, sets []*PageSet, models []pageModel, probes []hw.PhysAddr) {
	t.Helper()
	for i, s := range sets {
		m := models[i]
		if s.Len() != len(m) {
			t.Fatalf("step %d set %d: Len %d, model %d", step, i, s.Len(), len(m))
		}
		for _, p := range probes {
			if s.Contains(p) != m[p] {
				t.Fatalf("step %d set %d: Contains(%#x) = %v, model %v", step, i, p, s.Contains(p), m[p])
			}
		}
		got, want := s.Sorted(), m.sorted()
		if len(got) != len(want) {
			t.Fatalf("step %d set %d: Sorted has %d pages, model %d", step, i, len(got), len(want))
		}
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("step %d set %d: Sorted[%d] = %#x, model %#x", step, i, k, got[k], want[k])
			}
		}
	}
	for i, s := range sets {
		m := models[i]
		for j, o := range sets {
			mo := models[j]
			if got, want := s.Subset(o), m.subset(mo); got != want {
				t.Fatalf("step %d: Subset(%d, %d) = %v, model %v", step, i, j, got, want)
			}
			if got, want := s.Equal(o), m.subset(mo) && mo.subset(m); got != want {
				t.Fatalf("step %d: Equal(%d, %d) = %v, model %v", step, i, j, got, want)
			}
			if got, want := s.Disjoint(o), m.disjoint(mo); got != want {
				t.Fatalf("step %d: Disjoint(%d, %d) = %v, model %v", step, i, j, got, want)
			}
		}
	}
}

// Property: PageSet behaves exactly like a map of pages under random
// Insert/Remove/Union/Clone sequences over sets of different bitmap
// lengths, including empty, zero-value and nil sets.
func TestPageSetMatchesMapModel(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		frames := 1 + r.Intn(400)
		page := func() hw.PhysAddr { return hw.PhysAddr(r.Intn(frames)) * hw.PageSize4K }
		// Slot 0 is a nil set and only ever read; the rest start as a
		// zero value, an empty set, a pre-sized set and a populated one.
		sets := []*PageSet{nil, {}, NewPageSet(), newPageSetFrames(frames), NewPageSet(page(), page())}
		models := make([]pageModel, len(sets))
		for i, s := range sets {
			models[i] = pageModel{}
			for _, p := range s.Sorted() {
				models[i][p] = true
			}
		}
		probes := []hw.PhysAddr{
			1, hw.PageSize4K + 8, hw.PageSize4K - 1, // misaligned
			hw.PhysAddr(frames+64) * hw.PageSize4K, 1 << 40, // beyond any bitmap
		}
		for f := 0; f < frames+2; f++ {
			probes = append(probes, hw.PhysAddr(f)*hw.PageSize4K)
		}
		for step := 0; step < 300; step++ {
			i := 1 + r.Intn(len(sets)-1)
			switch op := r.Intn(10); {
			case op < 4:
				p := page()
				sets[i].Insert(p)
				models[i][p] = true
			case op < 7:
				p := page()
				if r.Intn(4) == 0 {
					p += hw.PhysAddr(1 + r.Intn(hw.PageSize4K-1))
				}
				sets[i].Remove(p)
				delete(models[i], p)
			case op < 9:
				j := r.Intn(len(sets))
				if got := sets[i].Union(sets[j]); got != sets[i] {
					t.Fatalf("seed %d step %d: Union did not return its receiver", seed, step)
				}
				for p := range models[j] {
					models[i][p] = true
				}
			default:
				j := r.Intn(len(sets))
				sets[i] = sets[j].Clone()
				m := pageModel{}
				for p := range models[j] {
					m[p] = true
				}
				models[i] = m
			}
			checkAgainstModel(t, step, sets, models, probes)
		}
	}
}

func TestPageSetInsertMisalignedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Insert of a misaligned address did not panic")
		}
	}()
	NewPageSet().Insert(hw.PageSize4K + 1)
}

// snapshotSink keeps the measured snapshots alive.
var snapshotSink Snapshot

// Snapshot allocates the same few objects whatever the frame count: the
// eight page sets share one bitmap slab. Only Free4K covers every frame,
// so with the same frames touched, a snapshot of a machine eight times
// larger costs only Free4K's extra bitmap more. Go rounds each allocation
// up to its size class, by less than a quarter at these sizes.
func TestSnapshotAllocsIndependentOfFrames(t *testing.T) {
	frames := []int{4096, 32768}
	var allocs []float64
	var bytes []uint64
	for _, n := range frames {
		a := newTestAlloc(n)
		if _, err := a.AllocPage4K(OwnerProcessMgr); err != nil {
			t.Fatal(err)
		}
		allocs = append(allocs, testing.AllocsPerRun(20, func() { snapshotSink = a.Snapshot() }))
		var least uint64
		for i := 0; i < 3; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			snapshotSink = a.Snapshot()
			runtime.ReadMemStats(&after)
			if b := after.TotalAlloc - before.TotalAlloc; i == 0 || b < least {
				least = b
			}
		}
		bytes = append(bytes, least)
	}
	if allocs[0] != allocs[1] || allocs[0] > 2 {
		t.Fatalf("Snapshot allocs at 4096/32768 frames = %v/%v, want the same and at most 2", allocs[0], allocs[1])
	}
	extra := uint64(wordsFor(frames[1])-wordsFor(frames[0])) * 8 // 3,584 B
	if bytes[1] < bytes[0] || bytes[1]-bytes[0] > extra+extra/4 {
		t.Fatalf("Snapshot allocated %d bytes at 4096 frames and %d at 32768, want at most %d more (Free4K's extra bitmap)",
			bytes[0], bytes[1], extra)
	}
	t.Logf("Snapshot allocated %d bytes at 4096 frames and %d at 32768", bytes[0], bytes[1])
}
