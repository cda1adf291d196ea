package kernel

import (
	"strings"
	"testing"

	"atmosphere/internal/hw"
	"atmosphere/internal/obs/contend"
	"atmosphere/internal/pm"
)

// bootArmed boots the 4-core test machine with a contention observatory
// attached and the lock-order and run-queue coverage checks armed.
func bootArmed(t *testing.T) (*Kernel, pm.Ptr, *contend.Observatory) {
	t.Helper()
	k, init := boot(t)
	o := contend.New()
	k.AttachContention(o)
	k.ArmLockOrder()
	return k, init, o
}

// alignClocks advances every core clock to the latest one, so the next
// syscalls on different cores arrive at the same virtual time.
func alignClocks(k *Kernel) {
	var mx uint64
	for c := 0; c < k.Machine.NumCores(); c++ {
		mx = max(mx, k.Machine.Core(c).Clock.Cycles())
	}
	for c := 0; c < k.Machine.NumCores(); c++ {
		clk := &k.Machine.Core(c).Clock
		clk.Charge(mx - clk.Cycles())
	}
}

// A yield holds its core's run queue, not its container: arriving on
// core 1 at the same virtual time as core 0's mmap in the same
// container, it waits nothing, although the container frontier is
// still held past its arrival (a container-frontier yield would wait
// out the mmap's hold).
func TestYieldDoesNotWaitOnContainerFrontier(t *testing.T) {
	k, init := boot(t)
	peer := pm.Ptr(mustOK(t, k.SysNewThread(0, init, 1)).Vals[0])
	alignClocks(k)
	k.EnableContention()
	mustOK(t, k.SysMmap(0, init, 0x4000_0000, 1, hw.Size4K, ptRW()))
	arrival := k.Machine.Core(1).Clock.Cycles()
	if f := k.cntrShards[k.PM.RootContainer].sim.Frontier(); f <= arrival {
		t.Fatalf("container frontier %d not past core 1's arrival %d: the test proves nothing", f, arrival)
	}
	_, _, before := k.LockStats()
	mustOK(t, k.SysYield(1, peer))
	if _, _, after := k.LockStats(); after != before {
		t.Errorf("yield on core 1 waited %d cycles behind core 0's mmap", after-before)
	}
	if k.cur.wait != 0 {
		t.Errorf("yield entry wait = %d, want 0", k.cur.wait)
	}
}

// The coverage check catches a yield planned on the caller's container
// frontier alone (planCaller) around the pick that rotates core 1's run
// queue. Exactly one violation, named after the syscall, the core and
// the missing frontier, and the same line on every run.
func TestCoverageCatchesContainerYieldPlan(t *testing.T) {
	plant := func() string {
		k, init, o := bootArmed(t)
		peer := pm.Ptr(mustOK(t, k.SysNewThread(0, init, 1)).Vals[0])
		if err := o.Violation(); err != nil {
			t.Fatalf("real plans violated: %v", err)
		}
		leave := k.enterPlan(1, func() lockPlan { return k.planCaller(peer) })
		k.PM.PickNext(1)
		k.post("yield", peer, ok())
		leave()
		if n := o.UncoveredCount(); n != 1 {
			t.Fatalf("coverage violations = %d, want 1", n)
		}
		if o.FirstInversion() != nil {
			t.Fatalf("unexpected inversion: %v", o.FirstInversion())
		}
		return o.FirstUncovered().String()
	}
	first, second := plant(), plant()
	if first != second {
		t.Errorf("coverage report not deterministic:\n%s\n%s", first, second)
	}
	want := "run-queue coverage violation on core 1: yield touched run queue 1 holding [container/root] without runq/cpu1"
	if first != want {
		t.Errorf("coverage report = %q, want %q", first, want)
	}
}

// An exit that leaves its core's queue empty picks by stealing, and the
// steal pops another core's queue. A plan holding only its own queue
// is caught naming the victim's; the real exit plan holds every queue
// and passes.
func TestCoverageCatchesUncoveredSteal(t *testing.T) {
	setup := func() (*Kernel, pm.Ptr, *contend.Observatory) {
		k, init, o := bootArmed(t)
		k.PM.EnableWorkStealing()
		// Core 1's queue is the only non-empty one for core 0 to raid.
		mustOK(t, k.SysNewThread(0, init, 1))
		mustOK(t, k.SysNewThread(0, init, 1))
		return k, init, o
	}

	k, init, o := setup()
	leave := k.enterPlan(0, func() lockPlan {
		p := planBig()
		p.addRunq(0)
		return p
	})
	k.PM.MarkExited(init)
	if err := k.PM.FreeThread(init); err != nil {
		t.Fatal(err)
	}
	k.PM.PickNext(0)
	k.post("exit_thread", init, ok())
	leave()
	if k.PM.Steals() != 1 {
		t.Fatalf("steals = %d, want 1: the exit never reached the stealer", k.PM.Steals())
	}
	want := "run-queue coverage violation on core 0: exit_thread touched run queue 1 holding [big/kernel runq/cpu0] without runq/cpu1"
	if got := o.Violation(); got == nil || got.Error() != want {
		t.Errorf("violation = %v, want %q", got, want)
	}

	k, init, o = setup()
	mustOK(t, k.SysExitThread(0, init))
	if k.PM.Steals() != 1 {
		t.Fatalf("steals = %d, want 1", k.PM.Steals())
	}
	if err := o.Violation(); err != nil {
		t.Errorf("real exit plan: %v", err)
	}
}

// Container and endpoint churn retires their shards: after 2,000
// create-map-kill cycles the shard list holds only the run-queue
// frontiers and the live objects', and LockStats, which perf reads as
// deltas, never went backwards.
func TestShardListDropsDeadObjects(t *testing.T) {
	k, init := boot(t)
	k.EnableContention()
	var acq, contended, wait uint64
	for i := 0; i < 2000; i++ {
		cntr := pm.Ptr(mustOK(t, k.SysNewContainer(0, init, 16, []int{1})).Vals[0])
		proc := pm.Ptr(mustOK(t, k.SysNewProcessIn(0, init, cntr)).Vals[0])
		th := pm.Ptr(mustOK(t, k.SysNewThreadIn(0, init, proc, 1)).Vals[0])
		mustOK(t, k.SysMmap(1, th, 0x4000_0000, 1, hw.Size4K, ptRW()))
		mustOK(t, k.SysKillContainer(0, init, cntr))
		a, c, w := k.LockStats()
		if a < acq || c < contended || w < wait {
			t.Fatalf("cycle %d: LockStats went backwards: (%d,%d,%d) -> (%d,%d,%d)", i, acq, contended, wait, a, c, w)
		}
		acq, contended, wait = a, c, w
	}
	if len(k.cntrShards) != 0 || len(k.edptShards) != 0 {
		t.Fatalf("shard tables hold %d container and %d endpoint entries, want none", len(k.cntrShards), len(k.edptShards))
	}
	if len(k.shards) != len(k.runqs) {
		t.Errorf("shard list holds %d shards, want the %d run-queue frontiers", len(k.shards), len(k.runqs))
	}
	if acq == 0 {
		t.Error("no acquisitions counted: the monotonicity check proved nothing")
	}
}

// Every real plan covers the run queues its syscall touches across the
// scheduler-moving syscalls: blocking and waking IPC, direct switches, a
// yield, a thread exit and a kill that reaps a queued thread.
func TestRealPlansCoverRunQueues(t *testing.T) {
	k, init, o := bootArmed(t)
	srv := pm.Ptr(mustOK(t, k.SysNewThread(0, init, 1)).Vals[0])
	cli := pm.Ptr(mustOK(t, k.SysNewThread(0, init, 1)).Vals[0])
	ep := pm.Ptr(mustOK(t, k.SysNewEndpoint(0, init, 0)).Vals[0])
	for _, th := range []pm.Ptr{srv, cli} {
		k.PM.Thrd(th).Endpoints[0] = ep
		k.PM.EndpointIncRef(ep, 1)
	}
	if r := k.SysRecv(1, srv, 0, RecvArgs{EdptSlot: -1}); r.Errno != EWOULDBLOCK {
		t.Fatalf("park: %v", r.Errno)
	}
	if r := k.SysCall(1, cli, 0, SendArgs{}); r.Errno != EWOULDBLOCK {
		t.Fatalf("call: %v", r.Errno)
	}
	mustOK(t, k.SysReply(1, srv, 0, SendArgs{}))
	// Nobody receives: init blocks on core 0, then core 1's recv wakes it.
	if r := k.SysSend(0, init, 0, SendArgs{}); r.Errno != EWOULDBLOCK {
		t.Fatalf("send: %v", r.Errno)
	}
	mustOK(t, k.SysYield(1, cli))
	mustOK(t, k.SysRecv(1, srv, 0, RecvArgs{EdptSlot: -1}))
	mustOK(t, k.SysExitThread(1, cli))
	proc := pm.Ptr(mustOK(t, k.SysNewProcess(0, init)).Vals[0])
	mustOK(t, k.SysNewThreadIn(0, init, proc, 2))
	mustOK(t, k.SysKillProcess(0, init, proc))
	if err := o.Violation(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(reportOf(t, o), "runq/cpu1") {
		t.Error("no run-queue frontier in the report: the plans never held one")
	}
}

func reportOf(t *testing.T, o *contend.Observatory) string {
	t.Helper()
	var b strings.Builder
	if err := o.WriteReport(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}
