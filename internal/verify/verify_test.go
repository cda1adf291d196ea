package verify

import (
	"fmt"
	"testing"

	"atmosphere/internal/hw"
	"atmosphere/internal/kernel"
	"atmosphere/internal/pm"
	"atmosphere/internal/pt"
)

func cfg() hw.Config { return hw.Config{Frames: 4096, Cores: 4, TLBSlots: 64} }

func newChecker(t *testing.T) (*Checker, pm.Ptr) {
	t.Helper()
	c, init, err := NewChecker(cfg())
	if err != nil {
		t.Fatal(err)
	}
	return c, init
}

// musts returns a closure that fails the test on checker errors or
// unexpected errnos and passes the Ret through (curried so checked
// syscalls' multi-value returns can feed it directly).
func musts(t *testing.T) func(kernel.Ret, error) kernel.Ret {
	return func(r kernel.Ret, err error) kernel.Ret {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if r.Errno != kernel.OK && r.Errno != kernel.EWOULDBLOCK {
			t.Fatalf("syscall failed: %v", r.Errno)
		}
		return r
	}
}

func TestBootIsWellFormed(t *testing.T) {
	c, _ := newChecker(t)
	if err := TotalWF(c.K); err != nil {
		t.Fatal(err)
	}
	if err := ContainerTreeWFRecursive(c.K); err != nil {
		t.Fatal(err)
	}
}

func TestCheckedLifecycleTrace(t *testing.T) {
	c, init := newChecker(t)
	// Containers.
	r := musts(t)(c.NewContainer(0, init, 120, []int{0, 1}))
	a := pm.Ptr(r.Vals[0])
	// Processes and threads.
	r = musts(t)(c.NewProcessIn(0, init, a))
	procA := pm.Ptr(r.Vals[0])
	r = musts(t)(c.NewThreadIn(0, init, procA, 1))
	tidA := pm.Ptr(r.Vals[0])
	// Memory.
	musts(t)(c.Mmap(1, tidA, 0x400000, 6, hw.Size4K, pt.RW))
	musts(t)(c.Munmap(1, tidA, 0x400000, 2, hw.Size4K))
	// Endpoints and IPC.
	musts(t)(c.NewEndpoint(1, tidA, 0))
	// A second thread in the same process to talk to.
	r = musts(t)(c.NewThreadIn(0, init, procA, 0))
	tidB := pm.Ptr(r.Vals[0])
	if err := c.InstallEndpoint(tidB, 0, c.K.PM.Thrd(tidA).Endpoints[0]); err != nil {
		t.Fatal(err)
	}
	r = musts(t)(c.Recv(0, tidB, 0, kernel.RecvArgs{PageVA: 0x9000, EdptSlot: -1}))
	if r.Errno != kernel.EWOULDBLOCK {
		t.Fatalf("recv should block: %v", r.Errno)
	}
	musts(t)(c.Send(1, tidA, 0, kernel.SendArgs{Regs: [4]uint64{1, 2, 3, 4}, SendPage: true, PageVA: 0x402000}))
	// IOMMU.
	musts(t)(c.IommuCreateDomain(1, tidA))
	musts(t)(c.IommuAttach(1, tidA, 3))
	musts(t)(c.IommuMap(1, tidA, 0x403000))
	musts(t)(c.IommuUnmap(1, tidA, 0x403000))
	// Yield and exit.
	musts(t)(c.Yield(0, init))
	musts(t)(c.ExitThread(0, tidB))
	// Kill the container; everything is harvested.
	musts(t)(c.KillContainer(0, init, a))
	if err := TotalWF(c.K); err != nil {
		t.Fatal(err)
	}
	if c.Transitions < 14 {
		t.Fatalf("checked only %d transitions", c.Transitions)
	}
}

func TestCheckedCallReply(t *testing.T) {
	c, init := newChecker(t)
	r := musts(t)(c.NewThreadIn(0, init, c.K.PM.Thrd(init).OwningProc, 0))
	server := pm.Ptr(r.Vals[0])
	musts(t)(c.NewEndpoint(0, init, 0))
	if err := c.InstallEndpoint(server, 0, c.K.PM.Thrd(init).Endpoints[0]); err != nil {
		t.Fatal(err)
	}
	musts(t)(c.Recv(0, server, 0, kernel.RecvArgs{EdptSlot: -1}))
	musts(t)(c.Call(0, init, 0, kernel.SendArgs{Regs: [4]uint64{7}}))
	musts(t)(c.Reply(0, server, 0, kernel.SendArgs{Regs: [4]uint64{8}}))
	if c.K.PM.Thrd(init).IPC.Msg.Regs[0] != 8 {
		t.Fatal("reply not delivered")
	}
}

// TestCheckedRandomTrace drives hundreds of random syscalls through the
// checker — the executable analogue of the ∀-quantified refinement
// theorem. Any spec or invariant violation fails the test.
func TestCheckedRandomTrace(t *testing.T) {
	c, init := newChecker(t)
	r := hw.NewRand(2024)
	type actor struct {
		tid  pm.Ptr
		core int
	}
	actors := []actor{{init, 0}}
	var containers []pm.Ptr
	nextVA := uint64(0x1000000)

	for step := 0; step < 600; step++ {
		a := actors[r.Intn(len(actors))]
		if th, alive := c.K.PM.TryThrd(a.tid); !alive {
			// Replace dead actors to keep the trace going.
			actors = []actor{{init, 0}}
			continue
		} else if th.State == pm.ThreadBlockedSend || th.State == pm.ThreadBlockedRecv {
			// Blocked threads cannot issue syscalls; skip them.
			continue
		}
		switch r.Intn(12) {
		case 0: // mmap
			count := 1 + r.Intn(4)
			va := hw.VirtAddr(nextVA)
			nextVA += uint64(count+1) * hw.PageSize4K
			musts(t)(c.Mmap(a.core, a.tid, va, count, hw.Size4K, pt.RW))
		case 1: // munmap whatever is mapped at a random spot (often fails)
			if _, err := c.Munmap(a.core, a.tid, hw.VirtAddr(0x1000000+uint64(r.Intn(64))*hw.PageSize4K), 1, hw.Size4K); err != nil {
				t.Fatal(err)
			}
		case 2: // new container
			if _, err := c.NewContainer(a.core, a.tid, uint64(5+r.Intn(30)), []int{a.core}); err != nil {
				t.Fatal(err)
			} else if ret, _ := c.K.PM.TryThrd(a.tid); ret != nil {
				// remember last created container via syscall return:
				// re-issue to capture value
			}
		case 3: // new process + thread in own container
			ret, err := c.NewProcess(a.core, a.tid)
			if err != nil {
				t.Fatal(err)
			}
			if ret.Errno == kernel.OK {
				tr, err := c.NewThreadIn(a.core, a.tid, pm.Ptr(ret.Vals[0]), a.core)
				if err != nil {
					t.Fatal(err)
				}
				if tr.Errno == kernel.OK {
					actors = append(actors, actor{pm.Ptr(tr.Vals[0]), a.core})
				}
			}
		case 4: // new endpoint in a free slot
			th := c.K.PM.Thrd(a.tid)
			slot := -1
			for i, e := range th.Endpoints {
				if e == pm.NoEndpoint {
					slot = i
					break
				}
			}
			if slot >= 0 {
				if _, err := c.NewEndpoint(a.core, a.tid, slot); err != nil {
					t.Fatal(err)
				}
			}
		case 5: // send on a random slot
			if _, err := c.Send(a.core, a.tid, r.Intn(pm.MaxEndpoints),
				kernel.SendArgs{Regs: [4]uint64{r.Uint64()}}); err != nil {
				t.Fatal(err)
			}
		case 6: // recv on a random slot
			if _, err := c.Recv(a.core, a.tid, r.Intn(pm.MaxEndpoints),
				kernel.RecvArgs{EdptSlot: -1}); err != nil {
				t.Fatal(err)
			}
		case 7: // yield
			if _, err := c.Yield(a.core, a.tid); err != nil {
				t.Fatal(err)
			}
		case 8: // iommu ops
			if _, err := c.IommuCreateDomain(a.core, a.tid); err != nil {
				t.Fatal(err)
			}
		case 9: // track containers for later kill
			ret, err := c.NewContainer(a.core, a.tid, uint64(10+r.Intn(20)), []int{a.core})
			if err != nil {
				t.Fatal(err)
			}
			if ret.Errno == kernel.OK {
				containers = append(containers, pm.Ptr(ret.Vals[0]))
			}
		case 10: // kill a tracked container
			if len(containers) > 0 {
				i := r.Intn(len(containers))
				if _, err := c.KillContainer(0, init, containers[i]); err != nil {
					t.Fatal(err)
				}
				containers = append(containers[:i], containers[i+1:]...)
			}
		case 11: // exit a non-init actor
			if len(actors) > 1 {
				i := 1 + r.Intn(len(actors)-1)
				victim := actors[i]
				if th, alive := c.K.PM.TryThrd(victim.tid); alive &&
					(th.State == pm.ThreadRunnable || th.State == pm.ThreadRunning) {
					if _, err := c.ExitThread(victim.core, victim.tid); err != nil {
						t.Fatal(err)
					}
					actors = append(actors[:i], actors[i+1:]...)
				}
			}
		}
	}
	if c.Transitions < 300 {
		t.Fatalf("trace too short: %d transitions", c.Transitions)
	}
}

func TestRecursiveAgreesWithFlat(t *testing.T) {
	c, init := newChecker(t)
	r := musts(t)(c.NewContainer(0, init, 100, []int{0}))
	a := pm.Ptr(r.Vals[0])
	rp := musts(t)(c.NewProcessIn(0, init, a))
	rt := musts(t)(c.NewThreadIn(0, init, pm.Ptr(rp.Vals[0]), 0))
	tidA := pm.Ptr(rt.Vals[0])
	rb := musts(t)(c.NewContainer(0, tidA, 30, []int{0}))
	b := pm.Ptr(rb.Vals[0])
	rp2 := musts(t)(c.NewProcessIn(0, tidA, b))
	musts(t)(c.NewThreadIn(0, tidA, pm.Ptr(rp2.Vals[0]), 0))

	if err := ContainerTreeWF(c.K); err != nil {
		t.Fatal(err)
	}
	if err := ContainerTreeWFRecursive(c.K); err != nil {
		t.Fatal(err)
	}
	flat := c.K.PM.ThreadsOf(a)
	rec := DomainThreadsRecursive(c.K, a)
	if len(flat) != len(rec) {
		t.Fatalf("flat %d threads, recursive %d", len(flat), len(rec))
	}
	for th := range flat {
		if _, ok := rec[th]; !ok {
			t.Fatalf("recursive domain missing %#x", th)
		}
	}
	// PT refinement both ways.
	musts(t)(c.Mmap(0, tidA, 0x500000, 4, hw.Size4K, pt.RW))
	proc := c.K.PM.Proc(c.K.PM.Thrd(tidA).OwningProc)
	if err := proc.PageTable.CheckRefinement(c.K.Machine.MMU); err != nil {
		t.Fatal(err)
	}
	if err := PTRefinementRecursive(proc.PageTable, c.K.Machine.MMU); err != nil {
		t.Fatal(err)
	}
}

// Mutation tests: corrupt the kernel state directly and confirm the
// invariant suite catches it (the checks are not vacuous).

func TestMutationSubtreeGhostCaught(t *testing.T) {
	c, init := newChecker(t)
	r := musts(t)(c.NewContainer(0, init, 20, []int{0}))
	a := pm.Ptr(r.Vals[0])
	delete(c.K.PM.Cntr(c.K.PM.RootContainer).Subtree, a)
	if err := ContainerTreeWF(c.K); err == nil {
		t.Fatal("corrupted subtree ghost not caught by flat check")
	}
	if err := ContainerTreeWFRecursive(c.K); err == nil {
		t.Fatal("corrupted subtree ghost not caught by recursive check")
	}
}

func TestMutationPathGhostCaught(t *testing.T) {
	c, init := newChecker(t)
	r := musts(t)(c.NewContainer(0, init, 20, []int{0}))
	a := pm.Ptr(r.Vals[0])
	rb := musts(t)(c.NewContainer(0, init, 20, []int{0}))
	b := pm.Ptr(rb.Vals[0])
	c.K.PM.Cntr(a).Path = []pm.Ptr{b} // wrong parent on path
	if err := ContainerTreeWF(c.K); err == nil {
		t.Fatal("corrupted path not caught")
	}
}

func TestMutationEndpointRefCountCaught(t *testing.T) {
	c, init := newChecker(t)
	musts(t)(c.NewEndpoint(0, init, 0))
	ep := c.K.PM.Thrd(init).Endpoints[0]
	c.K.PM.Edpt(ep).RefCount = 5
	if err := EndpointsWF(c.K); err == nil {
		t.Fatal("corrupted refcount not caught")
	}
}

func TestMutationQuotaCaught(t *testing.T) {
	c, _ := newChecker(t)
	c.K.PM.Cntr(c.K.PM.RootContainer).UsedPages += 3
	if err := QuotaWF(c.K); err == nil {
		t.Fatal("corrupted quota not caught")
	}
}

func TestMutationDanglingThreadCaught(t *testing.T) {
	c, init := newChecker(t)
	r := musts(t)(c.NewThreadIn(0, init, c.K.PM.Thrd(init).OwningProc, 0))
	tid := pm.Ptr(r.Vals[0])
	// Remove the permission but leave the process's thread list intact.
	delete(c.K.PM.ThrdPerms, tid)
	if err := ProcessesWF(c.K); err == nil {
		t.Fatal("dangling thread pointer not caught")
	}
}

func TestMutationPageTableCaught(t *testing.T) {
	c, init := newChecker(t)
	musts(t)(c.Mmap(0, init, 0x600000, 1, hw.Size4K, pt.RW))
	proc := c.K.PM.Proc(c.K.PM.Thrd(init).OwningProc)
	// Flip a bit in the leaf entry behind the ghost state's back: the
	// MMU now resolves differently than the abstract map.
	e, _ := proc.PageTable.Lookup(0x600000)
	tr, _ := c.K.Machine.MMU.Walk(proc.PageTable.CR3(), 0x600000)
	_ = e
	// Locate the leaf slot by walking manually and corrupt it.
	cr3 := proc.PageTable.CR3()
	m := c.K.Machine.Mem
	l4e := m.ReadU64(cr3 + hw.PhysAddr(hw.L4Index(0x600000)*8))
	l3 := hw.PhysAddr(l4e & hw.PteAddrMask)
	l3e := m.ReadU64(l3 + hw.PhysAddr(hw.L3Index(0x600000)*8))
	l2 := hw.PhysAddr(l3e & hw.PteAddrMask)
	l2e := m.ReadU64(l2 + hw.PhysAddr(hw.L2Index(0x600000)*8))
	l1 := hw.PhysAddr(l2e & hw.PteAddrMask)
	slot := l1 + hw.PhysAddr(hw.L1Index(0x600000)*8)
	m.WriteU64(slot, m.ReadU64(slot)^(1<<13)) // flip an address bit
	_ = tr
	if err := MemoryWF(c.K); err == nil {
		t.Fatal("page-table corruption not caught by refinement check")
	}
}

func TestCheckedIterativeKill(t *testing.T) {
	c, init := newChecker(t)
	r := musts(t)(c.NewContainer(0, init, 200, []int{0}))
	cntr := pm.Ptr(r.Vals[0])
	rp := musts(t)(c.NewProcessIn(0, init, cntr))
	rt := musts(t)(c.NewThreadIn(0, init, pm.Ptr(rp.Vals[0]), 0))
	victim := pm.Ptr(rt.Vals[0])
	musts(t)(c.Mmap(0, victim, 0x400000, 12, hw.Size4K, pt.RW))
	musts(t)(c.NewEndpoint(0, victim, 0))
	// Every bounded invocation is checked: WF must hold at every
	// intermediate teardown state.
	steps := 0
	for {
		r, err := c.KillContainerBounded(0, init, cntr, 2)
		if err != nil {
			t.Fatal(err)
		}
		steps++
		if r.Errno == kernel.OK {
			break
		}
		if r.Errno != kernel.EAGAIN {
			t.Fatalf("bounded kill: %v", r.Errno)
		}
		if steps > 100 {
			t.Fatal("no termination")
		}
	}
	if steps < 5 {
		t.Fatalf("finished in %d steps; budget not binding", steps)
	}
	if err := TotalWF(c.K); err != nil {
		t.Fatal(err)
	}
}

// Every installment of a bounded kill stays well-formed, at budgets 1
// and 2, when a dying thread is blocked on a dying endpoint: the walk
// reaps threads before it destroys endpoints, so no thread is left
// waiting on a dead one.
func TestCheckedIterativeKillBlockedWaiter(t *testing.T) {
	for _, budget := range []int{1, 2} {
		c, init := newChecker(t)
		m := musts(t)
		cntr := pm.Ptr(m(c.NewContainer(0, init, 200, []int{0})).Vals[0])
		proc := pm.Ptr(m(c.NewProcessIn(0, init, cntr)).Vals[0])
		victim := pm.Ptr(m(c.NewThreadIn(0, init, proc, 0)).Vals[0])
		m(c.Mmap(0, victim, 0x400000, 12, hw.Size4K, pt.RW))
		m(c.NewEndpoint(0, victim, 0))
		ep := c.K.PM.Thrd(victim).Endpoints[0]
		waiter := pm.Ptr(m(c.NewThreadIn(0, init, proc, 0)).Vals[0])
		if err := c.InstallEndpoint(waiter, 0, ep); err != nil {
			t.Fatal(err)
		}
		if r := m(c.Recv(0, waiter, 0, kernel.RecvArgs{EdptSlot: -1})); r.Errno != kernel.EWOULDBLOCK {
			t.Fatalf("recv: %v", r.Errno)
		}
		for steps := 1; ; steps++ {
			r, err := c.KillContainerBounded(0, init, cntr, budget)
			if err != nil {
				t.Fatalf("budget %d, installment %d: %v", budget, steps, err)
			}
			if r.Errno == kernel.OK {
				break
			}
			if r.Errno != kernel.EAGAIN || steps > 100 {
				t.Fatalf("budget %d, installment %d: %v", budget, steps, r.Errno)
			}
		}
	}
}

func TestCheckedIrqFlow(t *testing.T) {
	c, init := newChecker(t)
	musts(t)(c.NewEndpoint(0, init, 0))
	musts(t)(c.IrqRegister(0, init, 11, 0))
	// Pend interrupts while the handler is busy, then consume.
	for i := 0; i < 2; i++ {
		if err := c.RaiseIRQ(0, 11); err != nil {
			t.Fatal(err)
		}
	}
	r := musts(t)(c.IrqWait(0, init, 11))
	if r.Errno != kernel.OK || r.Vals[1] != 2 {
		t.Fatalf("irq_wait = %v %v", r.Errno, r.Vals)
	}
	// Close the descriptor: the binding keeps the endpoint alive and
	// the invariants keep holding.
	musts(t)(c.CloseEndpoint(0, init, 0))
	if err := TotalWF(c.K); err != nil {
		t.Fatal(err)
	}
}

func TestCheckedReplyRecvLoop(t *testing.T) {
	c, init := newChecker(t)
	r := musts(t)(c.NewThreadIn(0, init, c.K.PM.Thrd(init).OwningProc, 0))
	server := pm.Ptr(r.Vals[0])
	musts(t)(c.NewEndpoint(0, init, 0))
	if err := c.InstallEndpoint(server, 0, c.K.PM.Thrd(init).Endpoints[0]); err != nil {
		t.Fatal(err)
	}
	musts(t)(c.Recv(0, server, 0, kernel.RecvArgs{EdptSlot: -1}))
	for i := 0; i < 5; i++ {
		musts(t)(c.Call(0, init, 0, kernel.SendArgs{Regs: [4]uint64{uint64(i)}}))
		musts(t)(c.ReplyRecv(0, server, 0, kernel.SendArgs{Regs: [4]uint64{uint64(i) + 100}}, kernel.RecvArgs{EdptSlot: -1}))
		if c.K.PM.Thrd(init).IPC.Msg.Regs[0] != uint64(i)+100 {
			t.Fatalf("round %d reply lost", i)
		}
	}
}

func TestMutationCPUReservationCaught(t *testing.T) {
	c, init := newChecker(t)
	r := musts(t)(c.NewContainer(0, init, 20, []int{0}))
	// Corrupt: the child suddenly claims a core its parent never held.
	c.K.PM.Cntr(pm.Ptr(r.Vals[0])).CPUs = []int{99}
	if err := CPUReservationWF(c.K); err == nil {
		t.Fatal("bogus CPU reservation not caught")
	}
}

func TestMutationQueueDirectionCaught(t *testing.T) {
	c, init := newChecker(t)
	r := musts(t)(c.NewThreadIn(0, init, c.K.PM.Thrd(init).OwningProc, 0))
	other := pm.Ptr(r.Vals[0])
	musts(t)(c.NewEndpoint(0, init, 0))
	ep := c.K.PM.Thrd(init).Endpoints[0]
	if err := c.InstallEndpoint(other, 0, ep); err != nil {
		t.Fatal(err)
	}
	musts(t)(c.Recv(0, other, 0, kernel.RecvArgs{EdptSlot: -1}))
	// Corrupt: flip the queue direction behind the kernel's back.
	c.K.PM.Edpt(ep).QueuedRecv = false
	err1 := ThreadsWF(c.K)
	err2 := EndpointsWF(c.K)
	if err1 == nil && err2 == nil {
		t.Fatal("queue direction corruption not caught")
	}
}

func TestMutationSchedulerLostThreadCaught(t *testing.T) {
	c, init := newChecker(t)
	r := musts(t)(c.NewThreadIn(0, init, c.K.PM.Thrd(init).OwningProc, 0))
	tid := pm.Ptr(r.Vals[0])
	// Corrupt: mark runnable without a queue entry by reaching into the
	// thread after removing it from the scheduler.
	th := c.K.PM.Thrd(tid)
	c.K.PM.BlockCurrent(tid, pm.ThreadBlockedRecv) // removes from queue
	th.State = pm.ThreadRunnable                   // but never re-enqueued
	th.IPC.WaitingOn = 0
	if err := SchedulerWF(c.K); err == nil {
		t.Fatal("lost runnable thread not caught")
	}
}

// With several mapped pages' refcounts wrong, MemoryWF names the lowest
// one, identically on every run (the mapped set is walked ascending).
func TestMemoryWFReportsLowestRefcountMismatch(t *testing.T) {
	var first string
	for run := 0; run < 20; run++ {
		c, init := newChecker(t)
		musts(t)(c.Mmap(0, init, 0x600000, 8, hw.Size4K, pt.RW))
		proc := c.K.PM.Proc(c.K.PM.Thrd(init).OwningProc)
		var lo, hi hw.PhysAddr
		for _, e := range proc.PageTable.AddressSpace() {
			if lo == 0 || e.Phys < lo {
				lo = e.Phys
			}
			if e.Phys > hi {
				hi = e.Phys
			}
		}
		// Plant the higher mismatch first so insertion order cannot
		// explain the report.
		for _, p := range []hw.PhysAddr{hi, lo} {
			if err := c.K.Alloc.IncRef(p); err != nil {
				t.Fatal(err)
			}
		}
		err := MemoryWF(c.K)
		if err == nil {
			t.Fatal("refcount mismatches not caught")
		}
		want := fmt.Sprintf("mapped page %#x refcount 2, references 1", lo)
		if err.Error() != want {
			t.Fatalf("run %d: MemoryWF = %q, want %q", run, err, want)
		}
		if run == 0 {
			first = err.Error()
		} else if err.Error() != first {
			t.Fatalf("run %d: report %q differs from run 0's %q", run, err, first)
		}
	}
}

// TestEndpointsWFPendingTransferOfKilledEndpoint parks a sender on a
// surviving endpoint with a message transferring a child container's
// endpoint, then kills the child. The kill scrubs the dead endpoint from
// the pending message, so TotalWF holds; put back, the dangling
// transfer fails EndpointsWF.
func TestEndpointsWFPendingTransferOfKilledEndpoint(t *testing.T) {
	k, init, err := kernel.Boot(cfg())
	if err != nil {
		t.Fatal(err)
	}
	must := func(r kernel.Ret) kernel.Ret {
		t.Helper()
		if r.Errno != kernel.OK {
			t.Fatalf("setup syscall failed: %v", r.Errno)
		}
		return r
	}
	recv := pm.Ptr(must(k.SysNewThread(0, init, 0)).Vals[0])
	ep := pm.Ptr(must(k.SysNewEndpoint(0, init, 0)).Vals[0])
	k.PM.Thrd(recv).Endpoints[0] = ep
	k.PM.EndpointIncRef(ep, 1)
	cntr := pm.Ptr(must(k.SysNewContainer(0, init, 60, []int{0})).Vals[0])
	proc := pm.Ptr(must(k.SysNewProcessIn(0, init, cntr)).Vals[0])
	owner := pm.Ptr(must(k.SysNewThreadIn(0, init, proc, 0)).Vals[0])
	doomed := pm.Ptr(must(k.SysNewEndpoint(0, owner, 0)).Vals[0])
	k.PM.Thrd(init).Endpoints[1] = doomed
	k.PM.EndpointIncRef(doomed, 1)
	if r := k.SysSend(0, init, 0, kernel.SendArgs{SendEdpt: true, EdptSlot: 1}); r.Errno != kernel.EWOULDBLOCK {
		t.Fatalf("send: %v", r.Errno)
	}
	must(k.SysKillContainer(0, recv, cntr))
	if err := TotalWF(k); err != nil {
		t.Fatalf("after the kill: %v", err)
	}
	msg := &k.PM.Thrd(init).IPC.Msg
	msg.HasEndpoint, msg.Endpoint = true, doomed
	want := fmt.Sprintf("thread %#x pending message carries dead endpoint %#x", init, doomed)
	if err := EndpointsWF(k); err == nil || err.Error() != want {
		t.Fatalf("EndpointsWF = %v, want %q", err, want)
	}
}
