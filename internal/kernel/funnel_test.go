package kernel

import (
	"testing"

	"atmosphere/internal/hw"
)

// A hold is CostBigLock plus the plan's work: the trampoline runs
// outside it — entry and dispatcher before the plan is requested, exit
// after it is released — as the post-release page-cache work does. So
// core 1's mmap, arriving in the same container when core 0's did,
// waits exactly core 0's mmap time less entry, dispatch, exit and core
// 0's post-release share; a funnel that held its plan through the
// trampoline would make it wait those 370 cycles more.
func TestHoldExcludesTrampoline(t *testing.T) {
	k, th, o := bootShootdown(t)
	alignClocks(k)
	arrival := k.Machine.Core(0).Clock.Cycles()
	mustOK(t, k.SysMmap(0, th[0], warmVA(0), 1, hw.Size4K, ptRW()))
	if k.cur.big {
		t.Fatal("core 0's mmap refilled under the big lock: the test proves nothing")
	}
	took, local := k.Machine.Core(0).Clock.Cycles()-arrival, k.cur.local
	const trampoline = hw.CostSyscallEntry + hw.CostSyscallDispatch + hw.CostSyscallExit
	mustOK(t, k.SysMmap(1, th[1], warmVA(1), 1, hw.Size4K, ptRW()))
	if want := took - trampoline - local; k.cur.wait != want {
		t.Errorf("core 1's mmap waited %d cycles, want %d: core 0's %d-cycle mmap less the %d-cycle trampoline and its %d post-release cycles",
			k.cur.wait, want, took, trampoline, local)
	}
	if err := o.Violation(); err != nil {
		t.Fatal(err)
	}
}

// Lock-plan resolution runs before the entry's kernel clock base is
// read, so a resolver that charged — here through pm's charging Thrd
// accessor instead of TryThrd — would lose those cycles silently. The
// funnel panics instead, naming the core, and leaves the kernel usable.
func TestChargingPlanResolverPanics(t *testing.T) {
	k, init := boot(t)
	got := func() (r any) {
		defer func() { r = recover() }()
		k.enterPlan(1, func() lockPlan {
			k.PM.Thrd(init)
			return planBig()
		})
		return nil
	}()
	if want := "kernel: core 1's lock-plan resolution charged 4 cycles"; got != want {
		t.Errorf("charging resolver: recovered %v, want panic %q", got, want)
	}
	mustOK(t, k.SysYield(0, init))
}
