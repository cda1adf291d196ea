package pm

import (
	"errors"
	"testing"

	"atmosphere/internal/hw"
	"atmosphere/internal/mem"
)

func newPM(t *testing.T, frames int, cores int) *ProcessManager {
	t.Helper()
	phys := hw.NewPhysMem(frames)
	clk := &hw.Clock{}
	alloc := mem.NewAllocator(phys, clk, 1)
	m, err := New(alloc, clk, cores, uint64(frames-1))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestRootContainer(t *testing.T) {
	m := newPM(t, 64, 2)
	root := m.Cntr(m.RootContainer)
	if root.Parent != 0 || root.Depth != 0 || len(root.Path) != 0 {
		t.Fatalf("root shape wrong: %+v", root)
	}
	if root.UsedPages != 1 {
		t.Fatalf("root used = %d, want 1 (its own page)", root.UsedPages)
	}
	if len(root.CPUs) != 2 {
		t.Fatalf("root cpus = %v", root.CPUs)
	}
}

func TestNewContainerGhostState(t *testing.T) {
	m := newPM(t, 128, 2)
	a, err := m.NewContainer(m.RootContainer, 20, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.NewContainer(a, 10, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	cb := m.Cntr(b)
	if cb.Depth != 2 || len(cb.Path) != 2 || cb.Path[0] != m.RootContainer || cb.Path[1] != a {
		t.Fatalf("path wrong: %+v", cb)
	}
	root := m.Cntr(m.RootContainer)
	if !root.InSubtree(a) || !root.InSubtree(b) {
		t.Fatal("root subtree missing descendants")
	}
	if !m.Cntr(a).InSubtree(b) || m.Cntr(a).InSubtree(a) {
		t.Fatal("a subtree wrong")
	}
	// Ghost path must agree with the recursive oracle.
	rec := m.ResolvePathRecursive(b)
	if len(rec) != 2 || rec[0] != m.RootContainer || rec[1] != a {
		t.Fatalf("recursive path oracle = %v", rec)
	}
	if got := m.SubtreeRecursive(m.RootContainer); len(got) != len(root.Subtree) {
		t.Fatalf("recursive subtree %d != ghost %d", len(got), len(root.Subtree))
	}
}

func TestQuotaCarving(t *testing.T) {
	m := newPM(t, 128, 1)
	rootUsed := m.Cntr(m.RootContainer).UsedPages
	a, err := m.NewContainer(m.RootContainer, 20, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	root := m.Cntr(m.RootContainer)
	if root.UsedPages != rootUsed+20 {
		t.Fatalf("parent used = %d, want %d", root.UsedPages, rootUsed+20)
	}
	ca := m.Cntr(a)
	if ca.QuotaPages != 20 || ca.UsedPages != 1 {
		t.Fatalf("child accounting: %+v", ca)
	}
	// Exceeding the carved quota from within the child must fail.
	if err := m.ChargePages(a, 20); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("overcharge: %v", err)
	}
	// Child creation beyond the parent quota must fail.
	if _, err := m.NewContainer(m.RootContainer, 1<<40, []int{0}); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatal("huge child quota accepted")
	}
	// Zero-quota child cannot pay for its own page.
	if _, err := m.NewContainer(m.RootContainer, 0, []int{0}); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatal("zero-quota child accepted")
	}
}

func TestCPUSubsetEnforced(t *testing.T) {
	m := newPM(t, 128, 4)
	a, _ := m.NewContainer(m.RootContainer, 30, []int{1, 2})
	if _, err := m.NewContainer(a, 5, []int{3}); !errors.Is(err, ErrBadCPU) {
		t.Fatal("child got a CPU the parent does not reserve")
	}
	if _, err := m.NewContainer(a, 5, []int{2}); err != nil {
		t.Fatal(err)
	}
}

func TestUnlinkContainer(t *testing.T) {
	m := newPM(t, 128, 1)
	rootUsedBefore := m.Cntr(m.RootContainer).UsedPages
	a, _ := m.NewContainer(m.RootContainer, 20, []int{0})
	b, _ := m.NewContainer(a, 5, []int{0})
	if err := m.UnlinkContainer(a); !errors.Is(err, ErrBusy) {
		t.Fatal("unlinked container with children")
	}
	if err := m.UnlinkContainer(b); err != nil {
		t.Fatal(err)
	}
	if m.Cntr(a).InSubtree(b) || m.Cntr(m.RootContainer).InSubtree(b) {
		t.Fatal("subtree ghost not cleaned")
	}
	if err := m.UnlinkContainer(a); err != nil {
		t.Fatal(err)
	}
	if got := m.Cntr(m.RootContainer).UsedPages; got != rootUsedBefore {
		t.Fatalf("quota not returned: %d != %d", got, rootUsedBefore)
	}
	if _, ok := m.TryCntr(a); ok {
		t.Fatal("permission for removed container survived")
	}
}

func TestUnlinkRootRejected(t *testing.T) {
	m := newPM(t, 64, 1)
	if err := m.UnlinkContainer(m.RootContainer); err == nil {
		t.Fatal("root removal accepted")
	}
}

func TestProcessLifecycle(t *testing.T) {
	m := newPM(t, 128, 1)
	usedBefore := m.Cntr(m.RootContainer).UsedPages
	p1, err := m.NewProcess(m.RootContainer, 0)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := m.NewProcess(m.RootContainer, p1)
	if err != nil {
		t.Fatal(err)
	}
	if m.Proc(p2).Parent != p1 || len(m.Proc(p1).Children) != 1 {
		t.Fatal("process tree links wrong")
	}
	// Process page + PML4 page each.
	if got := m.Cntr(m.RootContainer).UsedPages; got != usedBefore+4 {
		t.Fatalf("used = %d, want %d", got, usedBefore+4)
	}
	if err := m.FreeProcess(p1); !errors.Is(err, ErrBusy) {
		t.Fatal("freed process with children")
	}
	if err := m.FreeProcess(p2); err != nil {
		t.Fatal(err)
	}
	if err := m.FreeProcess(p1); err != nil {
		t.Fatal(err)
	}
	if got := m.Cntr(m.RootContainer).UsedPages; got != usedBefore {
		t.Fatalf("quota leaked: %d != %d", got, usedBefore)
	}
}

func TestThreadLifecycle(t *testing.T) {
	m := newPM(t, 128, 2)
	p, _ := m.NewProcess(m.RootContainer, 0)
	tid, err := m.NewThread(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	th := m.Thrd(tid)
	if th.OwningProc != p || th.OwningCntr != m.RootContainer || th.Core != 1 {
		t.Fatalf("thread shape: %+v", th)
	}
	if _, ok := m.Cntr(m.RootContainer).OwnedThreads[tid]; !ok {
		t.Fatal("ghost owned_thrds missing thread")
	}
	if q := m.Sched().QueueInto(1, nil); len(q) != 1 || q[0] != tid {
		t.Fatalf("run queue = %v", q)
	}
	m.MarkExited(tid)
	if err := m.FreeThread(tid); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.TryThrd(tid); ok {
		t.Fatal("thread permission survived free")
	}
	if len(m.Cntr(m.RootContainer).OwnedThreads) != 0 {
		t.Fatal("owned_thrds not cleaned")
	}
}

func TestThreadBadCoreRejected(t *testing.T) {
	m := newPM(t, 128, 4)
	a, _ := m.NewContainer(m.RootContainer, 30, []int{0})
	p, _ := m.NewProcess(a, 0)
	if _, err := m.NewThread(p, 3); !errors.Is(err, ErrBadCPU) {
		t.Fatal("thread on unreserved core accepted")
	}
}

func TestEndpointRefCounting(t *testing.T) {
	m := newPM(t, 128, 1)
	usedBefore := m.Cntr(m.RootContainer).UsedPages
	e, err := m.NewEndpoint(m.RootContainer, 1)
	if err != nil {
		t.Fatal(err)
	}
	m.EndpointIncRef(e, 1)
	if err := m.EndpointDecRef(e); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.TryEdpt(e); !ok {
		t.Fatal("endpoint died with refs outstanding")
	}
	if err := m.EndpointDecRef(e); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.TryEdpt(e); ok {
		t.Fatal("endpoint survived last decref")
	}
	if got := m.Cntr(m.RootContainer).UsedPages; got != usedBefore {
		t.Fatal("endpoint page not credited back")
	}
}

func TestDereferenceWithoutPermissionPanics(t *testing.T) {
	m := newPM(t, 64, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("dangling dereference did not panic")
		}
	}()
	m.Cntr(Ptr(0xdead000))
}

func TestSchedulerRoundRobin(t *testing.T) {
	m := newPM(t, 128, 1)
	p, _ := m.NewProcess(m.RootContainer, 0)
	t1, _ := m.NewThread(p, 0)
	t2, _ := m.NewThread(p, 0)
	t3, _ := m.NewThread(p, 0)
	order := []Ptr{
		m.PickNext(0), m.PickNext(0), m.PickNext(0),
		m.PickNext(0), m.PickNext(0), m.PickNext(0),
	}
	want := []Ptr{t1, t2, t3, t1, t2, t3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("round robin order %v, want %v", order, want)
		}
	}
}

func TestSchedulerBlockWake(t *testing.T) {
	m := newPM(t, 128, 1)
	p, _ := m.NewProcess(m.RootContainer, 0)
	t1, _ := m.NewThread(p, 0)
	t2, _ := m.NewThread(p, 0)
	if m.PickNext(0) != t1 {
		t.Fatal("t1 should run first")
	}
	m.BlockCurrent(t1, ThreadBlockedRecv)
	if m.Thrd(t1).State != ThreadBlockedRecv {
		t.Fatal("block did not transition state")
	}
	if m.PickNext(0) != t2 {
		t.Fatal("t2 should run after t1 blocks")
	}
	m.Wake(t1, nil)
	if m.Thrd(t1).State != ThreadRunnable {
		t.Fatal("wake did not transition state")
	}
	// t2 still running; next pick rotates to t1.
	if m.PickNext(0) != t1 {
		t.Fatal("woken thread should be schedulable")
	}
}

func TestDispatch(t *testing.T) {
	m := newPM(t, 128, 1)
	p, _ := m.NewProcess(m.RootContainer, 0)
	t1, _ := m.NewThread(p, 0)
	t2, _ := m.NewThread(p, 0)
	if err := m.Dispatch(t2); err != nil {
		t.Fatal(err)
	}
	if m.Sched().Current(0) != t2 || m.Thrd(t2).State != ThreadRunning {
		t.Fatal("dispatch failed")
	}
	if m.Thrd(t1).State != ThreadRunnable {
		t.Fatal("t1 state disturbed")
	}
	// Dispatching the running thread is a no-op.
	if err := m.Dispatch(t2); err != nil {
		t.Fatal(err)
	}
	m.BlockCurrent(t2, ThreadBlockedSend)
	if err := m.Dispatch(t2); err == nil {
		t.Fatal("dispatch of blocked thread accepted")
	}
}

func TestIsAncestorAndDomainConstructors(t *testing.T) {
	m := newPM(t, 256, 1)
	a, _ := m.NewContainer(m.RootContainer, 40, []int{0})
	b, _ := m.NewContainer(a, 20, []int{0})
	c, _ := m.NewContainer(b, 5, []int{0})
	if !m.IsAncestor(a, c) || m.IsAncestor(c, a) || m.IsAncestor(b, b) {
		t.Fatal("IsAncestor wrong")
	}
	pa, _ := m.NewProcess(a, 0)
	pb, _ := m.NewProcess(b, 0)
	ta, _ := m.NewThread(pa, 0)
	tb, _ := m.NewThread(pb, 0)
	threads := m.ThreadsOf(a)
	if len(threads) != 2 {
		t.Fatalf("ThreadsOf(a) = %d threads, want 2", len(threads))
	}
	if _, ok := threads[ta]; !ok {
		t.Fatal("direct thread missing")
	}
	if _, ok := threads[tb]; !ok {
		t.Fatal("subtree thread missing")
	}
	procs := m.ProcsOf(b)
	if len(procs) != 1 {
		t.Fatalf("ProcsOf(b) = %d", len(procs))
	}
	subtree := m.SubtreeOf(a)
	if len(subtree) != 3 { // a, b, c
		t.Fatalf("SubtreeOf(a) = %d", len(subtree))
	}
}

func TestFreeThreadDropsEndpointRefs(t *testing.T) {
	m := newPM(t, 128, 1)
	p, _ := m.NewProcess(m.RootContainer, 0)
	tid, _ := m.NewThread(p, 0)
	e, _ := m.NewEndpoint(m.RootContainer, 1)
	m.Thrd(tid).Endpoints[0] = e
	m.MarkExited(tid)
	if err := m.FreeThread(tid); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.TryEdpt(e); ok {
		t.Fatal("endpoint not destroyed when last descriptor died")
	}
}

func TestDeepTreeGhostConsistency(t *testing.T) {
	m := newPM(t, 1024, 1)
	cur := m.RootContainer
	quota := uint64(500)
	var chain []Ptr
	for i := 0; i < 12; i++ {
		child, err := m.NewContainer(cur, quota, []int{0})
		if err != nil {
			t.Fatal(err)
		}
		chain = append(chain, child)
		cur = child
		quota -= 40
	}
	leaf := m.Cntr(chain[len(chain)-1])
	if leaf.Depth != 12 || len(leaf.Path) != 12 {
		t.Fatalf("leaf depth %d path %d", leaf.Depth, len(leaf.Path))
	}
	// The §4.1 path-prefix property: for node n at depth d on c's path,
	// c.path[:d] == n.path.
	for d, n := range leaf.Path {
		np := m.Cntr(n).Path
		if len(np) != d {
			t.Fatalf("path length of ancestor at depth %d is %d", d, len(np))
		}
		for i := range np {
			if np[i] != leaf.Path[i] {
				t.Fatalf("path prefix mismatch at %d/%d", i, d)
			}
		}
	}
	// Ghost subtree equals recursive recomputation at every node.
	for _, c := range append([]Ptr{m.RootContainer}, chain...) {
		rec := m.SubtreeRecursive(c)
		ghost := m.Cntr(c).Subtree
		if len(rec) != len(ghost) {
			t.Fatalf("subtree mismatch at %#x: %d vs %d", c, len(rec), len(ghost))
		}
		for p := range rec {
			if _, ok := ghost[p]; !ok {
				t.Fatalf("subtree missing %#x", p)
			}
		}
	}
}
