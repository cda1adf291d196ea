package kernel_test

import (
	"testing"

	"atmosphere/internal/hw"
	"atmosphere/internal/kernel"
	"atmosphere/internal/pm"
	"atmosphere/internal/pt"
	"atmosphere/internal/verify"
)

// buildVictim creates a container with a process, thread, and a mapped
// page — enough structure that teardown takes several bounded rounds.
func buildVictim(t *testing.T, k *kernel.Kernel, init pm.Ptr) pm.Ptr {
	t.Helper()
	r := k.SysNewContainer(0, init, 64, []int{0})
	if r.Errno != kernel.OK {
		t.Fatalf("container: %v", r.Errno)
	}
	cntr := pm.Ptr(r.Vals[0])
	rp := k.SysNewProcessIn(0, init, cntr)
	if rp.Errno != kernel.OK {
		t.Fatalf("proc: %v", rp.Errno)
	}
	rt := k.SysNewThreadIn(0, init, pm.Ptr(rp.Vals[0]), 0)
	if rt.Errno != kernel.OK {
		t.Fatalf("thread: %v", rt.Errno)
	}
	tid := pm.Ptr(rt.Vals[0])
	if r := k.SysMmap(0, tid, 0x400000000, 2, hw.Size4K, pt.RW); r.Errno != kernel.OK {
		t.Fatalf("mmap: %v", r.Errno)
	}
	return cntr
}

// TestSupervisorRestartsSilentDriver: a watch whose heartbeat stops is
// torn down through bounded kills (well-formed at every step) and
// respawned; a live watch is left alone.
func TestSupervisorRestartsSilentDriver(t *testing.T) {
	k, init, err := kernel.Boot(hw.Config{Frames: 2048, Cores: 2, TLBSlots: 128})
	if err != nil {
		t.Fatal(err)
	}
	victim := buildVictim(t, k, init)

	sup := kernel.NewSupervisor(k, init, 10_000)
	sup.KillBudget = 1 // force multi-round teardown
	steps := 0
	sup.OnStep = func() error {
		steps++
		return verify.TotalWF(k)
	}
	respawned := 0
	sup.Register("drv", victim, func() (pm.Ptr, error) {
		// The wedged container must be fully reclaimed before the new
		// generation is built (the freed pointer may then be reused).
		if _, alive := k.PM.TryCntr(victim); alive {
			t.Error("respawn called with old container still alive")
		}
		respawned++
		return buildVictim(t, k, init), nil
	})

	// Fresh heartbeat: no action.
	sup.Heartbeat("drv")
	if events, err := sup.Check(0); err != nil || len(events) != 0 {
		t.Fatalf("premature action: %v %v", events, err)
	}

	// Silence past the deadline: recovery fires.
	k.Machine.Core(0).Clock.Charge(20_000)
	events, err := sup.Check(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Name != "drv" || events[0].Restarts != 1 {
		t.Fatalf("events %+v", events)
	}
	if respawned != 1 || sup.Restarts("drv") != 1 {
		t.Fatalf("respawned=%d restarts=%d", respawned, sup.Restarts("drv"))
	}
	if steps == 0 {
		t.Fatal("OnStep never ran")
	}
	if sup.Stats.KillRounds < 2 {
		t.Fatalf("teardown was not iterative: %+v", sup.Stats)
	}

	// The new generation beats: no further action.
	sup.Heartbeat("drv")
	if events, err := sup.Check(0); err != nil || len(events) != 0 {
		t.Fatalf("restarted driver killed again: %v %v", events, err)
	}
	if err := verify.TotalWF(k); err != nil {
		t.Fatal(err)
	}
}

// TestSupervisorPauseChargesCore: the pause between bounded-kill rounds
// runs on the supervisor's core, so a recovery advances core 0 by the
// kill syscalls' own cycles plus one context switch per pause. A twin
// kernel replays the same kills to measure them.
func TestSupervisorPauseChargesCore(t *testing.T) {
	cfg := hw.Config{Frames: 2048, Cores: 2, TLBSlots: 128}
	twin, twinInit, err := kernel.Boot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	twinVictim := buildVictim(t, twin, twinInit)
	twinClk := &twin.Machine.Core(0).Clock
	var kills, pauses uint64
	for {
		before := twinClk.Cycles()
		r := twin.SysKillContainerBounded(0, twinInit, twinVictim, 1)
		kills += twinClk.Cycles() - before
		if r.Errno == kernel.OK {
			break
		}
		if r.Errno != kernel.EAGAIN {
			t.Fatalf("twin kill: %v", r.Errno)
		}
		pauses++
	}
	if pauses == 0 {
		t.Fatal("teardown was not iterative")
	}

	k, init, err := kernel.Boot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	victim := buildVictim(t, k, init)
	sup := kernel.NewSupervisor(k, init, 10_000)
	sup.KillBudget = 1
	clk := &k.Machine.Core(0).Clock
	var torndown uint64
	sup.Register("drv", victim, func() (pm.Ptr, error) {
		torndown = clk.Cycles()
		return buildVictim(t, k, init), nil
	})
	clk.Charge(20_000)
	start := clk.Cycles()
	if _, err := sup.Check(0); err != nil {
		t.Fatal(err)
	}
	if got, want := torndown-start, kills+pauses*hw.CostContextSwitch; got != want {
		t.Fatalf("teardown advanced core 0 by %d cycles, want %d (kills %d + %d pauses)", got, want, kills, pauses)
	}
}
