package kernel

import (
	"testing"

	"atmosphere/internal/hw"
	"atmosphere/internal/mem"
	"atmosphere/internal/obs/contend"
	"atmosphere/internal/pm"
)

// remoteFlush is what one 4 KiB shootdown costs its initiator on an
// 8-core machine: an IPI round trip to each of the 7 other cores.
const remoteFlush = 7 * (hw.CostInterruptDispatch/2 + hw.CostInvlpg)

// bootShootdown boots 8 cores in one container with per-core caches
// (batch 4), contention on and the lock-order checks armed. th[c] is a
// thread of init's process on core c (th[0] is init), and each core's
// cache is warm: a 1-page mmap there hits the cache.
func bootShootdown(t *testing.T) (*Kernel, []pm.Ptr, *contend.Observatory) {
	t.Helper()
	k, init, err := Boot(hw.Config{Frames: 4096, Cores: 8, TLBSlots: 64})
	if err != nil {
		t.Fatal(err)
	}
	k.EnableCoreCaches(4)
	o := contend.New()
	k.AttachContention(o)
	k.ArmLockOrder()
	th := []pm.Ptr{init}
	for c := 1; c < 8; c++ {
		th = append(th, pm.Ptr(mustOK(t, k.SysNewThread(0, init, c)).Vals[0]))
	}
	k.EnableContention()
	for c, tid := range th {
		va := warmVA(c)
		mustOK(t, k.SysMmap(c, tid, va, 1, hw.Size4K, ptRW()))
		mustOK(t, k.SysMunmap(c, tid, va, 1, hw.Size4K))
	}
	return k, th, o
}

// warmVA is core c's own mapping window in the shared address space.
func warmVA(c int) hw.VirtAddr { return hw.VirtAddr(0x4000_0000 + c<<24) }

// frontierGap is how far lock frontier l sits before core's clock.
func frontierGap(k *Kernel, l *hw.LockSim, core int) uint64 {
	return k.Machine.Core(core).Clock.Cycles() - l.Frontier()
}

// A munmap of a private frame counts its shootdown after release: the
// container frontier sits exactly the post-release share (the 7 remote
// round trips and the cache park) plus the exit trampoline before core
// 0's clock, and core 1's mmap, arriving when the munmap did, waits the
// munmap's time less its own entry and dispatch and that gap.
func TestMunmapShootdownAfterRelease(t *testing.T) {
	k, th, o := bootShootdown(t)
	va := warmVA(0)
	mustOK(t, k.SysMmap(0, th[0], va, 1, hw.Size4K, ptRW()))
	alignClocks(k)
	arrival := k.Machine.Core(1).Clock.Cycles()
	mustOK(t, k.SysMunmap(0, th[0], va, 1, hw.Size4K))
	if k.cur.big {
		t.Fatal("the munmap's plan holds the big lock: the test proves nothing")
	}
	if k.cur.local < remoteFlush {
		t.Fatalf("post-release share = %d cycles, want at least the %d-cycle shootdown", k.cur.local, remoteFlush)
	}
	gap := frontierGap(k, &k.cntrShards[k.PM.RootContainer].sim, 0)
	if want := k.cur.local + hw.CostSyscallExit; gap != want {
		t.Errorf("container/root frontier sits %d cycles before core 0's clock, want %d: the post-release share plus exit", gap, want)
	}
	took := k.Machine.Core(0).Clock.Cycles() - arrival
	mustOK(t, k.SysMmap(1, th[1], warmVA(1), 1, hw.Size4K, ptRW()))
	if want := took - (hw.CostSyscallEntry + hw.CostSyscallDispatch) - gap; k.cur.wait != want {
		t.Errorf("core 1's mmap waited %d of the munmap's %d cycles, want %d", k.cur.wait, took, want)
	}
	if err := o.Violation(); err != nil {
		t.Fatal(err)
	}
	if n := o.CheckedFlushes(); n != 9 {
		t.Errorf("post-release flushes = %d, want 9 (8 warm-up munmaps and this one)", n)
	}
}

// Every shootdown whose frame can leave the invoking core before the
// flush ends stays inside the hold: the frontier the next taker waits
// on covers it.
func TestMunmapShootdownStaysInHold(t *testing.T) {
	t.Run("draining munmap", func(t *testing.T) {
		k, th, o := bootShootdown(t)
		va := warmVA(0)
		mustOK(t, k.SysMmap(0, th[0], va, 9, hw.Size4K, ptRW()))
		// Fill the cache to its drain threshold one page at a time;
		// the next page's munmap drains it.
		next := va
		for k.caches.Len(0)+1 <= 2*k.caches.Batch() {
			mustOK(t, k.SysMunmap(0, th[0], next, 1, hw.Size4K))
			next += hw.PageSize4K
		}
		e, _ := k.PM.Proc(k.PM.Thrd(th[0]).OwningProc).PageTable.Lookup(next)
		_, _, _, drains := k.caches.Stats()
		mustOK(t, k.SysMunmap(0, th[0], next, 1, hw.Size4K))
		if err := o.Violation(); err != nil {
			t.Fatal(err)
		}
		if _, _, _, d := k.caches.Stats(); d != drains+1 || !k.cur.big {
			t.Fatalf("munmap drained %d times holding big=%v, want one drain under the big lock", d-drains, k.cur.big)
		}
		if m, _ := k.Alloc.Meta(e.Phys); m.State != mem.StateFree {
			t.Fatalf("unmapped frame is %v, want it drained to the free list", m.State)
		}
		for _, l := range []*hw.LockSim{&k.lock, &k.cntrShards[k.PM.RootContainer].sim} {
			if gap := frontierGap(k, l, 0); gap >= remoteFlush {
				t.Errorf("%s/%s frontier sits %d cycles before core 0's clock: the %d-cycle shootdown left the hold",
					l.Class(), l.Instance(), gap, remoteFlush)
			}
		}
	})

	// sendPage has th[1] receive the page th[0] maps at va, over a
	// fresh endpoint in both threads' slot 0; it returns the endpoint.
	sendPage := func(t *testing.T, k *Kernel, th []pm.Ptr, va hw.VirtAddr, grant bool) pm.Ptr {
		t.Helper()
		ep := pm.Ptr(mustOK(t, k.SysNewEndpoint(0, th[0], 0)).Vals[0])
		k.PM.Thrd(th[1]).Endpoints[0] = ep
		k.PM.EndpointIncRef(ep, 1)
		mustOK(t, k.SysMmap(0, th[0], va, 1, hw.Size4K, ptRW()))
		if r := k.SysRecv(1, th[1], 0, RecvArgs{PageVA: warmVA(1), EdptSlot: -1}); r.Errno != EWOULDBLOCK {
			t.Fatalf("recv: %v", r.Errno)
		}
		mustOK(t, k.SysSend(0, th[0], 0, SendArgs{SendPage: !grant, GrantPage: grant, PageVA: va}))
		return ep
	}

	t.Run("shared frame", func(t *testing.T) {
		k, th, o := bootShootdown(t)
		va := warmVA(0)
		sendPage(t, k, th, va, false)
		e, _ := k.PM.Proc(k.PM.Thrd(th[0]).OwningProc).PageTable.Lookup(va)
		if rc, _ := k.Alloc.RefCount(e.Phys); rc != 2 {
			t.Fatalf("refcount = %d, want 2", rc)
		}
		mustOK(t, k.SysMunmap(0, th[0], va, 1, hw.Size4K))
		if err := o.Violation(); err != nil {
			t.Fatal(err)
		}
		if k.cur.big {
			t.Fatal("the munmap's plan holds the big lock: the test proves nothing")
		}
		if gap := frontierGap(k, &k.cntrShards[k.PM.RootContainer].sim, 0); gap >= remoteFlush {
			t.Errorf("container/root frontier sits %d cycles before core 0's clock: the shared frame's shootdown left the hold", gap)
		}
	})

	t.Run("grant", func(t *testing.T) {
		k, th, o := bootShootdown(t)
		ep := sendPage(t, k, th, warmVA(0), true)
		if err := o.Violation(); err != nil {
			t.Fatal(err)
		}
		if _, covered := k.PM.Proc(k.PM.Thrd(th[0]).OwningProc).PageTable.Lookup(warmVA(0)); covered {
			t.Fatal("the grant left the sender's mapping: the test proves nothing")
		}
		if gap := frontierGap(k, &k.edptShards[ep].sim, 0); gap >= remoteFlush {
			t.Errorf("endpoint frontier sits %d cycles before core 0's clock: the grant's shootdown left the hold", gap)
		}
	})
}

// reservedSpace is a 4-core boot with container cntr reserving cores 1
// and 2 and holding process proc, whose thread th on core 1 maps one
// 4 KiB page at reservedVA.
type reservedSpace struct {
	k        *Kernel
	init, th pm.Ptr
	cntr     pm.Ptr
	proc     *pm.Process
}

const reservedVA = hw.VirtAddr(0x40_0000)

func bootReserved(t *testing.T) *reservedSpace {
	t.Helper()
	k, init := boot(t)
	s := &reservedSpace{k: k, init: init}
	s.cntr = pm.Ptr(mustOK(t, k.SysNewContainer(0, init, 64, []int{1, 2})).Vals[0])
	p := pm.Ptr(mustOK(t, k.SysNewProcessIn(0, init, s.cntr)).Vals[0])
	s.proc = k.PM.Proc(p)
	s.th = pm.Ptr(mustOK(t, k.SysNewThreadIn(0, init, p, 1)).Vals[0])
	mustOK(t, k.SysMmap(1, s.th, reservedVA, 1, hw.Size4K, ptRW()))
	return s
}

// warm caches the page at va on each core, as threads running there
// would.
func (s *reservedSpace) warm(t *testing.T, cr3 hw.PhysAddr, va hw.VirtAddr, cores ...int) {
	t.Helper()
	tr, ok := s.k.Machine.MMU.Walk(cr3, va)
	if !ok {
		t.Fatalf("walk of %#x failed", va)
	}
	for _, c := range cores {
		s.k.Machine.Core(c).TLB.Insert(cr3, va, tr)
	}
}

// Every unmap site shoots down only the cores the address space's
// container reserves, charging one IPI round trip per reserved core
// but the initiator (a teardown: one flush IPI per reserved core), and
// leaves every other core's TLB alone. Each row's cycles are the
// initiating core's: the work besides the shootdown, plus the IPIs.
func TestShootdownScopedToReservation(t *testing.T) {
	const ipi, flush = hw.CostInterruptDispatch/2 + hw.CostInvlpg, hw.CostInterruptDispatch / 2
	for _, tc := range []struct {
		name  string
		core  int    // initiating core
		want  uint64 // its cycles for the op
		errno Errno
		op    func(s *reservedSpace) Ret
	}{
		{"munmap", 1, 620 + ipi, OK, func(s *reservedSpace) Ret {
			return s.k.SysMunmap(1, s.th, reservedVA, 1, hw.Size4K)
		}},
		{"grant", 1, 5364 + ipi, OK, func(s *reservedSpace) Ret {
			return s.k.SysSend(1, s.th, 0, SendArgs{GrantPage: true, PageVA: reservedVA})
		}},
		// Core 0 is outside the reservation: both reserved cores are
		// remote. The first unit reaps the thread, the second flushes
		// and unmaps the page.
		{"kill installment", 0, 704 + 2*flush, EAGAIN, func(s *reservedSpace) Ret {
			return s.k.SysKillContainerBounded(0, s.init, s.cntr, 2)
		}},
		{"kill_container", 0, 952 + 2*flush, OK, func(s *reservedSpace) Ret {
			return s.k.SysKillContainer(0, s.init, s.cntr)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := bootReserved(t)
			k := s.k
			if tc.name == "grant" {
				// A receiver in a second process of the container,
				// parked on core 2.
				q := pm.Ptr(mustOK(t, k.SysNewProcessIn(0, s.init, s.cntr)).Vals[0])
				rcv := pm.Ptr(mustOK(t, k.SysNewThreadIn(0, s.init, q, 2)).Vals[0])
				ep := pm.Ptr(mustOK(t, k.SysNewEndpoint(1, s.th, 0)).Vals[0])
				k.PM.Thrd(rcv).Endpoints[0] = ep
				k.PM.EndpointIncRef(ep, 1)
				if r := k.SysRecv(2, rcv, 0, RecvArgs{PageVA: reservedVA, EdptSlot: -1}); r.Errno != EWOULDBLOCK {
					t.Fatalf("recv: %v", r.Errno)
				}
			}
			cr3 := s.proc.PageTable.CR3()
			s.warm(t, cr3, reservedVA, 1, 2)
			// Core 3 holds another address space's translation.
			mustOK(t, k.SysMmap(0, s.init, reservedVA, 1, hw.Size4K, ptRW()))
			initCR3 := k.PM.Proc(k.PM.Thrd(s.init).OwningProc).PageTable.CR3()
			s.warm(t, initCR3, reservedVA, 3)

			before := k.Machine.Core(tc.core).Clock.Cycles()
			if r := tc.op(s); r.Errno != tc.errno {
				t.Fatalf("%s: %v, want %v", tc.name, r.Errno, tc.errno)
			}
			if got := k.Machine.Core(tc.core).Clock.Cycles() - before; got != tc.want {
				t.Errorf("core %d charged %d cycles, want %d", tc.core, got, tc.want)
			}
			for _, c := range []int{1, 2} {
				if _, hit := k.Machine.Core(c).TLB.Lookup(cr3, reservedVA); hit {
					t.Errorf("reserved core %d still translates the unmapped page", c)
				}
			}
			if _, hit := k.Machine.Core(3).TLB.Lookup(initCR3, reservedVA); !hit {
				t.Error("core 3, outside the reservation, lost another address space's entry")
			}
		})
	}
}

// A 2 MiB unmap drops every 4 KiB key the superpage's translations were
// cached under, not only those of its first 64 KiB.
func TestSuperpageShootdownCoversWholePage(t *testing.T) {
	k, init := boot(t)
	const va = hw.VirtAddr(0x4000_0000)
	mustOK(t, k.SysMmap(0, init, va, 1, hw.Size2M, ptRW()))
	cr3 := k.PM.Proc(k.PM.Thrd(init).OwningProc).PageTable.CR3()
	tr, ok := k.Machine.MMU.Walk(cr3, va+0x10_0000)
	if !ok {
		t.Fatal("walk of the superpage's middle failed")
	}
	k.Machine.Core(1).TLB.Insert(cr3, va+0x10_0000, tr)
	mustOK(t, k.SysMunmap(0, init, va, 1, hw.Size2M))
	if _, hit := k.Machine.Core(1).TLB.Lookup(cr3, va+0x10_0000); hit {
		t.Fatal("core 1 still translates 0x40100000 after the 2 MiB munmap")
	}
}

// A syscall traps only on a core its caller's container reserves: a
// thread of a container pinned to core 1 that calls munmap, or rings a
// doorbell, on core 2 gets EINVAL and its mapping stays.
func TestSyscallOffReservationRejected(t *testing.T) {
	k, init := boot(t)
	cntr := pm.Ptr(mustOK(t, k.SysNewContainer(0, init, 16, []int{1})).Vals[0])
	p := pm.Ptr(mustOK(t, k.SysNewProcessIn(0, init, cntr)).Vals[0])
	th := pm.Ptr(mustOK(t, k.SysNewThreadIn(0, init, p, 1)).Vals[0])
	mustOK(t, k.SysMmap(1, th, reservedVA, 3, hw.Size4K, ptRW()))
	if r := k.SysMunmap(2, th, reservedVA, 1, hw.Size4K); r.Errno != EINVAL {
		t.Fatalf("munmap on core 2 = %v, want EINVAL", r.Errno)
	}
	if _, covered := k.PM.Proc(p).PageTable.Lookup(reservedVA); !covered {
		t.Fatal("the refused munmap removed the mapping")
	}
	sq, cq := reservedVA+hw.PageSize4K, reservedVA+2*hw.PageSize4K
	if r := k.SysBatch(2, th, sq, cq, 0); r.Errno != EINVAL {
		t.Fatalf("doorbell on core 2 = %v, want EINVAL", r.Errno)
	}
	mustOK(t, k.SysBatch(1, th, sq, cq, 0))
	mustOK(t, k.SysMunmap(1, th, reservedVA, 1, hw.Size4K))
}
