package pm

import (
	"testing"

	"atmosphere/internal/hw"
)

// An idle core steals the tail of the longest queue — deterministically,
// respecting container CPU reservations, and charging CostSchedSteal.
func TestWorkStealing(t *testing.T) {
	m := newPM(t, 128, 4)
	proc, err := m.NewProcess(m.RootContainer, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Three threads affine to core 0; cores 1-3 start empty.
	var ts []Ptr
	for i := 0; i < 3; i++ {
		th, err := m.NewThread(proc, 0)
		if err != nil {
			t.Fatal(err)
		}
		ts = append(ts, th)
	}

	// Without stealing, core 1 idles.
	if got := m.PickNext(1); got != 0 {
		t.Fatalf("core 1 picked %#x with stealing disabled", got)
	}

	m.EnableWorkStealing()
	before := m.Clock().Cycles()
	got := m.PickNext(1)
	if got != ts[2] {
		t.Fatalf("core 1 stole %#x, want tail thread %#x", got, ts[2])
	}
	// The migration itself plus the pick; object-lookup touches may add
	// a few cycles on top.
	if d := m.Clock().Cycles() - before; d < hw.CostSchedPick+hw.CostSchedSteal {
		t.Fatalf("steal charged %d cycles, want >= %d", d, hw.CostSchedPick+hw.CostSchedSteal)
	}
	st := m.Thrd(got)
	if st.Core != 1 || st.State != ThreadRunning {
		t.Fatalf("stolen thread = core %d, %v", st.Core, st.State)
	}
	if m.Steals() != 1 {
		t.Fatalf("steals = %d", m.Steals())
	}
	// Victim queue shrank by exactly the stolen thread.
	q := m.Sched().QueueInto(0, nil)
	if len(q) != 2 || q[0] != ts[0] || q[1] != ts[1] {
		t.Fatalf("victim queue = %v", q)
	}
}

// A thread whose container does not reserve the thief's core cannot be
// migrated.
func TestWorkStealingHonorsCPUReservation(t *testing.T) {
	m := newPM(t, 128, 2)
	// A child container pinned to core 0 only.
	pinned, err := m.NewContainer(m.RootContainer, 20, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	proc, err := m.NewProcess(pinned, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.NewThread(proc, 0); err != nil {
		t.Fatal(err)
	}
	m.EnableWorkStealing()
	if got := m.PickNext(1); got != 0 {
		t.Fatalf("core 1 stole pinned thread %#x", got)
	}
	if m.Steals() != 0 {
		t.Fatalf("steals = %d, want 0", m.Steals())
	}
}
