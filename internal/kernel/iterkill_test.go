package kernel

import (
	"slices"
	"testing"

	"atmosphere/internal/hw"
	"atmosphere/internal/pm"
)

// buildVictim creates a container with nested children, processes,
// threads, mappings, and an endpoint — a subtree with every kind of
// teardown work.
func buildVictim(t *testing.T, k *Kernel, init pm.Ptr) (cntr pm.Ptr, victimThread pm.Ptr) {
	t.Helper()
	r := mustOK(t, k.SysNewContainer(0, init, 300, []int{0}))
	cntr = pm.Ptr(r.Vals[0])
	rp := mustOK(t, k.SysNewProcessIn(0, init, cntr))
	proc := pm.Ptr(rp.Vals[0])
	rt := mustOK(t, k.SysNewThreadIn(0, init, proc, 0))
	victimThread = pm.Ptr(rt.Vals[0])
	mustOK(t, k.SysMmap(0, victimThread, 0x400000, 10, hw.Size4K, ptRW()))
	mustOK(t, k.SysNewEndpoint(0, victimThread, 0))
	mustOK(t, k.SysIommuCreateDomain(0, victimThread))
	mustOK(t, k.SysIommuMap(0, victimThread, 0x400000))
	// A nested child container with its own process.
	rc := mustOK(t, k.SysNewContainer(0, victimThread, 40, []int{0}))
	rcp := mustOK(t, k.SysNewProcessIn(0, victimThread, pm.Ptr(rc.Vals[0])))
	mustOK(t, k.SysNewThreadIn(0, victimThread, pm.Ptr(rcp.Vals[0]), 0))
	return cntr, victimThread
}

func TestIterativeKillCompletes(t *testing.T) {
	k, init := boot(t)
	free := k.Alloc.FreeCount4K()
	rootUsed := k.PM.Cntr(k.PM.RootContainer).UsedPages
	cntr, _ := buildVictim(t, k, init)
	steps := 0
	for {
		r := k.SysKillContainerBounded(0, init, cntr, 3)
		steps++
		if r.Errno == OK {
			break
		}
		if r.Errno != EAGAIN {
			t.Fatalf("bounded kill: %v", r.Errno)
		}
		if steps > 200 {
			t.Fatal("iterative kill does not terminate")
		}
	}
	if steps < 5 {
		t.Fatalf("kill finished in %d steps — budget not bounding", steps)
	}
	if _, alive := k.PM.TryCntr(cntr); alive {
		t.Fatal("container survived")
	}
	if got := k.Alloc.FreeCount4K(); got != free {
		t.Fatalf("pages leaked: %d != %d", got, free)
	}
	if got := k.PM.Cntr(k.PM.RootContainer).UsedPages; got != rootUsed {
		t.Fatalf("quota not harvested: %d != %d", got, rootUsed)
	}
}

func TestIterativeKillFreezesVictims(t *testing.T) {
	k, init := boot(t)
	cntr, victim := buildVictim(t, k, init)
	// One bounded step freezes the subtree.
	if r := k.SysKillContainerBounded(0, init, cntr, 1); r.Errno != EAGAIN {
		t.Fatalf("first step: %v", r.Errno)
	}
	// The frozen thread can no longer issue syscalls.
	if r := k.SysMmap(0, victim, 0x900000, 1, hw.Size4K, ptRW()); r.Errno != EINVAL {
		t.Fatalf("frozen thread syscall: %v", r.Errno)
	}
	if r := k.SysYield(0, victim); r.Errno != EINVAL {
		t.Fatalf("frozen thread yield: %v", r.Errno)
	}
	// Threads outside the subtree are unaffected.
	mustOK(t, k.SysYield(0, init))
}

func TestIterativeKillPermissionChecks(t *testing.T) {
	k, init := boot(t)
	cntr, victim := buildVictim(t, k, init)
	// The victim cannot iteratively kill its own container.
	if r := k.SysKillContainerBounded(0, victim, cntr, 4); r.Errno != EPERM {
		t.Fatalf("self kill: %v", r.Errno)
	}
	if r := k.SysKillContainerBounded(0, init, pm.Ptr(0xabc000), 4); r.Errno != ENOENT {
		t.Fatalf("ghost kill: %v", r.Errno)
	}
	if r := k.SysKillContainerBounded(0, init, cntr, 0); r.Errno != EINVAL {
		t.Fatalf("zero budget: %v", r.Errno)
	}
}

func TestIterativeKillBoundsLockHoldTime(t *testing.T) {
	// The point of the extension (§4.3): per-invocation cycle cost is
	// bounded by the budget, not by the subtree size.
	k, init := boot(t)
	cntrSmall, _ := buildVictim(t, k, init)
	// Measure one bounded step on the small victim.
	before := k.Machine.Core(0).Clock.Cycles()
	if r := k.SysKillContainerBounded(0, init, cntrSmall, 1); r.Errno != EAGAIN {
		t.Fatalf("step: %v", r.Errno)
	}
	stepSmall := k.Machine.Core(0).Clock.Cycles() - before

	// A much larger victim: one bounded step costs the same order.
	r := mustOK(t, k.SysNewContainer(0, init, 900, []int{0}))
	cntrBig := pm.Ptr(r.Vals[0])
	rp := mustOK(t, k.SysNewProcessIn(0, init, cntrBig))
	rt := mustOK(t, k.SysNewThreadIn(0, init, pm.Ptr(rp.Vals[0]), 0))
	big := pm.Ptr(rt.Vals[0])
	mustOK(t, k.SysMmap(0, big, 0x400000, 400, hw.Size4K, ptRW()))
	before = k.Machine.Core(0).Clock.Cycles()
	if r := k.SysKillContainerBounded(0, init, cntrBig, 1); r.Errno != EAGAIN {
		t.Fatalf("big step: %v", r.Errno)
	}
	stepBig := k.Machine.Core(0).Clock.Cycles() - before
	if stepBig > stepSmall*20 {
		t.Fatalf("bounded step scaled with subtree: %d vs %d cycles", stepBig, stepSmall)
	}
}

func TestUnboundedKillClearsStaleFreeze(t *testing.T) {
	k, init := boot(t)
	cntr, _ := buildVictim(t, k, init)
	if r := k.SysKillContainerBounded(0, init, cntr, 2); r.Errno != EAGAIN {
		t.Fatalf("step: %v", r.Errno)
	}
	// Finish with the unbounded kill: freeze entries must be cleaned,
	// so later probes see a plain missing container.
	mustOK(t, k.SysKillContainer(0, init, cntr))
	if r := k.SysKillContainerBounded(0, init, cntr, 1); r.Errno != ENOENT {
		t.Fatalf("post-kill probe: %v", r.Errno)
	}
}

// kill_container and a bounded kill whose budget never runs out run the
// same walk. Over buildVictim's container plus four sibling child
// containers, on 20 fresh boots, both leave the same free list — the
// next eight allocations match across kernels and boots — and their
// cycles differ only by the bounded kill's freeze, one container
// dereference.
func TestKillContainerFreesInFixedOrder(t *testing.T) {
	kills := []func(k *Kernel, init, cntr pm.Ptr) Ret{
		func(k *Kernel, init, cntr pm.Ptr) Ret { return k.SysKillContainer(0, init, cntr) },
		func(k *Kernel, init, cntr pm.Ptr) Ret { return k.SysKillContainerBounded(0, init, cntr, 1<<30) },
	}
	var want []pm.Ptr
	for run := 0; run < 20; run++ {
		var cycles [2]uint64
		for i, kill := range kills {
			k, init := boot(t)
			cntr, victim := buildVictim(t, k, init)
			for j := 0; j < 4; j++ {
				mustOK(t, k.SysNewContainer(0, victim, 4, []int{0}))
			}
			before := k.Machine.Core(0).Clock.Cycles()
			mustOK(t, kill(k, init, cntr))
			cycles[i] = k.Machine.Core(0).Clock.Cycles() - before
			var next []pm.Ptr
			for j := 0; j < 8; j++ {
				next = append(next, pm.Ptr(mustOK(t, k.SysNewContainer(0, init, 1, []int{0})).Vals[0]))
			}
			if want == nil {
				want = next
			} else if !slices.Equal(next, want) {
				t.Fatalf("boot %d, kill %d: next allocations %#x, want %#x", run, i, next, want)
			}
		}
		if cycles[1] != cycles[0]+hw.CostCacheTouch {
			t.Fatalf("boot %d: bounded kill %d cycles, kill_container %d: want a difference of one dereference", run, cycles[1], cycles[0])
		}
	}
}

// A bounded-kill installment does O(1) work however large the victim's
// DMA window: at budget 1, the costliest installment of the kill is the
// same for an 8-page and a 32-page window, in cycles and in pages
// freed.
func TestBoundedKillDMAWindowInUnits(t *testing.T) {
	worst := func(window int) (cycles uint64, freed int) {
		k, init := boot(t)
		cntr := pm.Ptr(mustOK(t, k.SysNewContainer(0, init, 200, []int{0})).Vals[0])
		p := pm.Ptr(mustOK(t, k.SysNewProcessIn(0, init, cntr)).Vals[0])
		th := pm.Ptr(mustOK(t, k.SysNewThreadIn(0, init, p, 0)).Vals[0])
		mustOK(t, k.SysMmap(0, th, 0x400000, window, hw.Size4K, ptRW()))
		mustOK(t, k.SysIommuCreateDomain(0, th))
		for i := 0; i < window; i++ {
			mustOK(t, k.SysIommuMap(0, th, 0x400000+hw.VirtAddr(i)*hw.PageSize4K))
		}
		mustOK(t, k.SysIommuAttach(0, th, 3))
		for {
			free := k.Alloc.FreeCount4K()
			before := k.Machine.Core(0).Clock.Cycles()
			r := k.SysKillContainerBounded(0, init, cntr, 1)
			cycles = max(cycles, k.Machine.Core(0).Clock.Cycles()-before)
			freed = max(freed, k.Alloc.FreeCount4K()-free)
			switch r.Errno {
			case OK:
				return cycles, freed
			case EAGAIN:
			default:
				t.Fatalf("bounded kill: %v", r.Errno)
			}
		}
	}
	c8, f8 := worst(8)
	c32, f32 := worst(32)
	if c8 != c32 || f8 != f32 {
		t.Errorf("largest installment: %d cycles and %d pages freed for an 8-page window, %d and %d for 32 pages", c8, f8, c32, f32)
	}
}

// BenchmarkKillLatency compares the big-lock hold time of the unbounded
// kill against one bounded installment (budget 64) on the same
// 1,000-page victim — the §4.3 timing argument for the iterative
// design, in simulated cycles.
func BenchmarkKillLatency(b *testing.B) {
	victim := func() (*Kernel, pm.Ptr, pm.Ptr) {
		k, init, err := Boot(hw.Config{Frames: 8192, Cores: 1, TLBSlots: 64})
		if err != nil {
			b.Fatal(err)
		}
		r := k.SysNewContainer(0, init, 2000, []int{0})
		cntr := pm.Ptr(r.Vals[0])
		rp := k.SysNewProcessIn(0, init, cntr)
		rt := k.SysNewThreadIn(0, init, pm.Ptr(rp.Vals[0]), 0)
		k.SysMmap(0, pm.Ptr(rt.Vals[0]), 0x400000, 1000, hw.Size4K, ptRW())
		return k, init, cntr
	}
	for i := 0; i < b.N; i++ {
		k, init, cntr := victim()
		before := k.Machine.Core(0).Clock.Cycles()
		k.SysKillContainer(0, init, cntr)
		b.ReportMetric(float64(k.Machine.Core(0).Clock.Cycles()-before), "unbounded-kill-cycles")

		k, init, cntr = victim()
		before = k.Machine.Core(0).Clock.Cycles()
		k.SysKillContainerBounded(0, init, cntr, 64)
		b.ReportMetric(float64(k.Machine.Core(0).Clock.Cycles()-before), "bounded-step-cycles")
	}
}
