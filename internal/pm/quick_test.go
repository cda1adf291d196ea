package pm

import (
	"testing"
	"testing/quick"

	"atmosphere/internal/hw"
	"atmosphere/internal/mem"
)

// Property-based tests over the tree and quota machinery.

// TestPropChargeCredit: charging then crediting any amount that fits is
// the identity on UsedPages.
func TestPropChargeCredit(t *testing.T) {
	m := newPM(t, 256, 1)
	f := func(n uint16) bool {
		c := m.Cntr(m.RootContainer)
		amount := uint64(n) % (c.QuotaPages - c.UsedPages + 1)
		before := c.UsedPages
		if err := m.ChargePages(m.RootContainer, amount); err != nil {
			return false
		}
		m.CreditPages(m.RootContainer, amount)
		return m.Cntr(m.RootContainer).UsedPages == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPropTreeGhostsAfterRandomOps: after any sequence of container
// creations and removals, the ghost path/subtree state matches the
// recursive recomputation at every node.
func TestPropTreeGhostsAfterRandomOps(t *testing.T) {
	m := newPM(t, 2048, 1)
	r := hw.NewRand(555)
	var live []Ptr
	for step := 0; step < 300; step++ {
		if r.Bool() || len(live) == 0 {
			parent := m.RootContainer
			if len(live) > 0 && r.Bool() {
				parent = live[r.Intn(len(live))]
			}
			if c, err := m.NewContainer(parent, uint64(2+r.Intn(6)), []int{0}); err == nil {
				live = append(live, c)
			}
		} else {
			i := r.Intn(len(live))
			c := m.Cntr(live[i])
			if len(c.Children) == 0 && len(c.Procs) == 0 {
				if err := m.UnlinkContainer(live[i]); err != nil {
					t.Fatal(err)
				}
				live = append(live[:i], live[i+1:]...)
			}
		}
	}
	for ptr, c := range m.CntrPerms {
		rec := m.ResolvePathRecursive(ptr)
		if len(rec) != len(c.Path) {
			t.Fatalf("path length mismatch at %#x", ptr)
		}
		for i := range rec {
			if rec[i] != c.Path[i] {
				t.Fatalf("path mismatch at %#x[%d]", ptr, i)
			}
		}
		sub := m.SubtreeRecursive(ptr)
		if len(sub) != len(c.Subtree) {
			t.Fatalf("subtree size mismatch at %#x: %d vs %d", ptr, len(sub), len(c.Subtree))
		}
		for s := range sub {
			if _, ok := c.Subtree[s]; !ok {
				t.Fatalf("subtree member mismatch at %#x", ptr)
			}
		}
	}
}

// TestPropSchedulerConservation: any interleaving of dispatch, block,
// wake, and pick never loses or duplicates a thread.
func TestPropSchedulerConservation(t *testing.T) {
	m := newPM(t, 512, 2)
	p, _ := m.NewProcess(m.RootContainer, 0)
	var threads []Ptr
	for i := 0; i < 8; i++ {
		tid, err := m.NewThread(p, i%2)
		if err != nil {
			t.Fatal(err)
		}
		threads = append(threads, tid)
	}
	e, _ := m.NewEndpoint(m.RootContainer, 1)
	_ = e
	r := hw.NewRand(777)
	for step := 0; step < 2000; step++ {
		tid := threads[r.Intn(len(threads))]
		th := m.Thrd(tid)
		switch r.Intn(4) {
		case 0:
			if th.State == ThreadRunnable {
				if err := m.Dispatch(tid); err != nil {
					t.Fatal(err)
				}
			}
		case 1:
			if th.State == ThreadRunning || th.State == ThreadRunnable {
				m.BlockCurrent(tid, ThreadBlockedRecv)
			}
		case 2:
			if th.State == ThreadBlockedRecv {
				m.Wake(tid, nil)
			}
		case 3:
			m.PickNext(r.Intn(2))
		}
		// Conservation: every thread is in exactly one place.
		placed := map[Ptr]int{}
		for core := 0; core < 2; core++ {
			for _, q := range m.Sched().QueueInto(core, nil) {
				placed[q]++
			}
			if cur := m.Sched().Current(core); cur != 0 {
				placed[cur]++
			}
		}
		for _, tid := range threads {
			th := m.Thrd(tid)
			want := 0
			if th.State == ThreadRunnable || th.State == ThreadRunning {
				want = 1
			}
			if placed[tid] != want {
				t.Fatalf("step %d: thread %#x (%v) placed %d times, want %d",
					step, tid, th.State, placed[tid], want)
			}
		}
	}
}

// TestPropObjectPagesMatchPermissions: the allocator's view of
// process-manager pages always equals the union of the permission maps.
func TestPropObjectPagesMatchPermissions(t *testing.T) {
	m := newPM(t, 1024, 1)
	r := hw.NewRand(999)
	var procs, threads []Ptr
	for step := 0; step < 400; step++ {
		switch r.Intn(4) {
		case 0:
			if p, err := m.NewProcess(m.RootContainer, 0); err == nil {
				procs = append(procs, p)
			}
		case 1:
			if len(procs) > 0 {
				if tid, err := m.NewThread(procs[r.Intn(len(procs))], 0); err == nil {
					threads = append(threads, tid)
				}
			}
		case 2:
			if len(threads) > 0 {
				i := r.Intn(len(threads))
				m.MarkExited(threads[i])
				if err := m.FreeThread(threads[i]); err != nil {
					t.Fatal(err)
				}
				threads = append(threads[:i], threads[i+1:]...)
			}
		case 3:
			// Free a childless, threadless process.
			for i, p := range procs {
				pr := m.Proc(p)
				if len(pr.Threads) == 0 && len(pr.Children) == 0 {
					if err := m.FreeProcess(p); err != nil {
						t.Fatal(err)
					}
					procs = append(procs[:i], procs[i+1:]...)
					break
				}
			}
		}
	}
	objPages := mem.NewPageSet()
	for p := range m.CntrPerms {
		objPages.Insert(p)
	}
	for p := range m.ProcPerms {
		objPages.Insert(p)
	}
	for p := range m.ThrdPerms {
		objPages.Insert(p)
	}
	for p := range m.EdptPerms {
		objPages.Insert(p)
	}
	a, owned := m.Alloc(), mem.NewPageSet()
	for i := 0; i < a.Touched(); i++ {
		if pg := a.FrameMeta(i); pg.State == mem.StateAllocated && pg.Owner == mem.OwnerProcessMgr {
			owned.Insert(a.Mem().FrameAddr(i))
		}
	}
	if !owned.Equal(objPages) {
		t.Fatalf("allocator says %d PM pages, permissions say %d", owned.Len(), objPages.Len())
	}
}
