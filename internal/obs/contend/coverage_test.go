package contend

import (
	"testing"

	"atmosphere/internal/hw"
)

// The coverage check's bookkeeping: touches outside an entry and on a
// held queue pass, an uncovered queue counts once per entry however
// often the entry touches it, the first violation is named at EndEntry,
// and re-arming resets the check.
func TestCoverageCountsUncoveredQueuesPerEntry(t *testing.T) {
	o := New()
	var q0, q1 hw.LockSim
	q0.SetIdentity("runq", "cpu0")
	q1.SetIdentity("runq", "cpu1")
	id0 := o.Register(&q0)
	o.RunqTouched(1) // disarmed
	o.ArmOrder(KernelOrder(), 2)
	o.CoverRunqs([]*hw.LockSim{&q0, &q1})
	o.RunqTouched(1) // outside any entry

	o.Acquired(0, id0, "syscall")
	o.BeginEntry(0)
	o.RunqTouched(0)
	o.RunqTouched(1)
	o.RunqTouched(1)
	o.EndEntry("exit_thread")
	o.Released(0, id0)
	if o.UncoveredCount() != 1 {
		t.Fatalf("UncoveredCount = %d, want 1", o.UncoveredCount())
	}
	want := "run-queue coverage violation on core 0: exit_thread touched run queue 1 holding [runq/cpu0] without runq/cpu1"
	if got := o.Violation(); got == nil || got.Error() != want {
		t.Fatalf("Violation = %v, want %q", got, want)
	}

	o.BeginEntry(1)
	o.RunqTouched(1)
	o.EndEntry("yield")
	if o.UncoveredCount() != 2 || o.FirstUncovered().Syscall != "exit_thread" {
		t.Fatalf("second entry: count %d, first %v", o.UncoveredCount(), o.FirstUncovered())
	}

	o.ArmOrder(KernelOrder(), 2)
	if o.UncoveredCount() != 0 || o.Violation() != nil {
		t.Fatalf("re-arm kept %d violations", o.UncoveredCount())
	}
}
