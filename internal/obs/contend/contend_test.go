package contend

import (
	"strings"
	"testing"

	"atmosphere/internal/hw"
	"atmosphere/internal/obs"
)

// lock builds an enabled, identified LockSim.
func lock(class, inst string) *hw.LockSim {
	l := &hw.LockSim{}
	l.SetIdentity(class, inst)
	l.Enable()
	return l
}

func TestRegisterIdentities(t *testing.T) {
	o := New()
	a := lock("big", "kernel")
	b := lock("endpoint", "e0")
	anon := &hw.LockSim{}
	anon.Enable()

	ida := o.Register(a)
	idb := o.Register(b)
	idanon := o.Register(anon)
	if ida == idb || ida == idanon {
		t.Fatalf("ids not distinct: %d %d %d", ida, idb, idanon)
	}
	if got := o.Register(a); got != ida {
		t.Fatalf("re-register returned %d, want %d", got, ida)
	}
	locks := o.Locks()
	want := []string{"big/kernel", "endpoint/e0", "lock/2"}
	if len(locks) != len(want) {
		t.Fatalf("Locks() = %v", locks)
	}
	for i := range want {
		if locks[i] != want[i] {
			t.Errorf("lock %d = %q, want %q", i, locks[i], want[i])
		}
	}

	// A second lock with the same identity gets a distinguishing suffix.
	a2 := lock("big", "kernel")
	o.Register(a2)
	if got := o.Locks()[3]; got != "big/kernel#1" {
		t.Errorf("duplicate identity registered as %q, want big/kernel#1", got)
	}
}

func TestWaitAttributionAndQueueDepth(t *testing.T) {
	o := New()
	l := lock("big", "kernel")
	id := o.Register(l)

	// Three cores arrive at t=0; FIFO service, 100 cycles each.
	for core := 0; core < 3; core++ {
		wait := l.Acquire(0)
		o.AttributeWait(id, "call", 7, core, wait)
		l.Release(wait + 100)
	}
	a, c, w := l.Stats()
	if a != 3 || c != 2 || w != 100+200 {
		t.Fatalf("Stats = %d/%d/%d, want 3/2/300", a, c, w)
	}
	st := o.locks[id]
	if st.maxDepth != 2 {
		t.Errorf("maxDepth = %d, want 2 (two arrivals queued ahead of the third)", st.maxDepth)
	}
	if st.waitHist.Count() != 2 || st.waitHist.Sum() != 300 {
		t.Errorf("waitHist = %d/%d, want 2 samples summing 300", st.waitHist.Count(), st.waitHist.Sum())
	}

	var sb strings.Builder
	if err := o.WriteAttribution(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	for _, wantLine := range []string{
		"wait big/kernel sys=call cntr=cntr-7 core=2 count=1 contended=1 waitcycles=200",
		"wait big/kernel sys=call cntr=cntr-7 core=1 count=1 contended=1 waitcycles=100",
		"wait big/kernel sys=call cntr=cntr-7 core=0 count=1 contended=0 waitcycles=0",
	} {
		if !strings.Contains(got, wantLine) {
			t.Errorf("attribution missing %q in:\n%s", wantLine, got)
		}
	}
	// Most wait first.
	if strings.Index(got, "core=2") > strings.Index(got, "core=1") {
		t.Errorf("attribution not sorted by wait desc:\n%s", got)
	}
}

func TestQueueDepthPruning(t *testing.T) {
	o := New()
	l := lock("big", "kernel")
	id := o.Register(l)
	// Serial uncontended acquisitions: queue must stay empty.
	now := uint64(0)
	for i := 0; i < 10; i++ {
		w := l.Acquire(now)
		if w != 0 {
			t.Fatalf("unexpected wait %d", w)
		}
		now += 100
		l.Release(now)
		now += 100 // idle gap: next arrival is after the frontier
	}
	if st := o.locks[id]; st.maxDepth != 0 {
		t.Errorf("maxDepth = %d for serial acquisitions, want 0", st.maxDepth)
	}
	if st := o.locks[id]; len(st.pending) > 1 {
		t.Errorf("pending grew to %d entries, want pruned", len(st.pending))
	}
}

// Occupancy is release point minus acquisition point (arrival plus
// wait), summed over entries per frontier and per class, and shown as
// holdcycles= in both report tables.
func TestHoldCyclesAreOccupancy(t *testing.T) {
	o := New()
	a, b := lock("container", "c1"), lock("container", "c2")
	o.Register(a)
	o.Register(b)
	a.Acquire(100)
	a.Release(400) // held [100, 400)
	if w := a.Acquire(200); w != 200 {
		t.Fatalf("second acquire waited %d, want 200", w)
	}
	a.Release(450) // held [400, 450)
	b.Acquire(0)
	b.Release(25)
	if got := o.Summary()[0]; got.Ident != "container/c1" || got.HoldCycles != 350 {
		t.Errorf("busiest lock = %s holding %d cycles, want container/c1 holding 350", got.Ident, got.HoldCycles)
	}
	if got := o.ByClass()[0].HoldCycles; got != 375 {
		t.Errorf("container class holds %d cycles, want 375", got)
	}
	var locks, classes strings.Builder
	if err := o.WriteLocks(&locks); err != nil {
		t.Fatal(err)
	}
	if err := o.WriteLocksByClass(&classes); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(locks.String(), "lock container/c1 acq=2 contended=1 waitcycles=200 holdcycles=350 ") ||
		!strings.HasPrefix(classes.String(), "class container locks=2 acq=3 contended=1 waitcycles=200 holdcycles=375 ") {
		t.Errorf("report rows lack occupancy:\n%s%s", locks.String(), classes.String())
	}
}

func TestCounterTracks(t *testing.T) {
	o := New()
	tr := obs.NewTracer(1024)
	o.AttachTrace(tr)
	l := lock("big", "kernel")
	o.Register(l)

	l.Acquire(0)
	l.Release(100)
	l.Acquire(0) // contended: wait 100
	l.Release(200)

	var counters int
	var lastWait uint64
	for _, e := range tr.Events() {
		if e.Kind != obs.KindCounter {
			continue
		}
		counters++
		if tr.NameOf(e.Name) == "lock.big.kernel.waitcycles" {
			lastWait = e.Arg
		}
	}
	if counters == 0 {
		t.Fatal("no counter events recorded")
	}
	if lastWait != 100 {
		t.Errorf("cumulative wait counter = %d, want 100", lastWait)
	}
	// Counter events must be on a MachinePID track so per-core trace
	// hashes stay comparable with and without the observatory.
	for _, e := range tr.Events() {
		if e.Kind == obs.KindCounter {
			if pid := tr.Tracks()[e.Track].PID; pid != obs.MachinePID {
				t.Fatalf("counter on pid %d, want MachinePID", pid)
			}
		}
	}
}

func TestRegisterMetrics(t *testing.T) {
	o := New()
	l := lock("big", "kernel")
	id := o.Register(l)
	w := l.Acquire(0)
	l.Release(100)
	o.AttributeWait(id, "call", 0, 0, w)
	o.RunqDelay(0, 3, 500, 1000)

	m := obs.NewRegistry()
	o.RegisterMetrics(m)
	var sb strings.Builder
	if err := m.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	for _, want := range []string{
		"gauge contend.lock.big.kernel.acquisitions 1",
		"gauge contend.order.inversions 0",
		"hist contend.class.big.wait.cycles",
		"hist contend.runq.delay.cycles count=1 sum=500",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("metrics dump missing %q in:\n%s", want, got)
		}
	}
}

func TestReportDeterminism(t *testing.T) {
	build := func() string {
		o := New()
		l := lock("big", "kernel")
		id := o.Register(l)
		for core := 0; core < 4; core++ {
			w := l.Acquire(uint64(core) * 10)
			o.AttributeWait(id, "call", hw.PhysAddr(0x1000*(core%2+1)), core, w)
			l.Release(uint64(core)*10 + w + 80)
		}
		o.NameContainer(0x1000, "root")
		o.RunqDelay(1, 0x1000, 250, 9000)
		o.RunqDelay(0, 0x2000, 750, 9100)
		o.Steal(1, 0, 0x77, 0x1000, 9200)
		o.Blocked(0x77, 0x1000, 0x5000, 9300)
		o.ArmOrder(KernelOrder(), 4)
		var sb strings.Builder
		if err := o.WriteReport(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	a, b := build(), build()
	if a != b {
		t.Fatalf("report not deterministic:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
	for _, want := range []string{
		"== contention: locks ==",
		"lock big/kernel ",
		"runq core0 ",
		"runq cntr=root ",
		"steal core1<-core0 count=1",
		"blocked cntr=root on=0x5000 count=1",
		"order rule big -> container",
		"order inversions=0",
	} {
		if !strings.Contains(a, want) {
			t.Errorf("report missing %q in:\n%s", want, a)
		}
	}
}
