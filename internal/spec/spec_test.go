package spec

import (
	"strings"
	"testing"

	"atmosphere/internal/hw"
	"atmosphere/internal/kernel"
	"atmosphere/internal/pm"
	"atmosphere/internal/pt"
)

func boot(t *testing.T) (*kernel.Kernel, pm.Ptr) {
	t.Helper()
	k, init, err := kernel.Boot(hw.Config{Frames: 2048, Cores: 2, TLBSlots: 64})
	if err != nil {
		t.Fatal(err)
	}
	return k, init
}

func abs(k *kernel.Kernel) (st State) {
	st.LoadObjects(k.PM, k.IOMMU)
	return st
}

// agree fails the test unless step accepted the kernel's transition and
// the kernel still matches Ψ′.
func agree(t *testing.T, ip *Interp, step error) {
	t.Helper()
	if step == nil {
		step = ip.Diff()
	}
	if step != nil {
		t.Fatal(step)
	}
}

// diverges fails the test unless Diff reports a divergence containing
// want.
func diverges(t *testing.T, ip *Interp, want string) {
	t.Helper()
	if err := ip.Diff(); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Diff = %v, want a divergence naming %q", err, want)
	}
}

func TestAbstractionIsDeepCopy(t *testing.T) {
	k, init := boot(t)
	st := abs(k)
	// Mutating the kernel afterwards must not change the snapshot.
	before := st.Containers[k.PM.RootContainer].UsedPages
	if r := k.SysMmap(0, init, 0x1000, 1, hw.Size4K, pt.RW); r.Errno != kernel.OK {
		t.Fatal(r.Errno)
	}
	if st.Containers[k.PM.RootContainer].UsedPages != before {
		t.Fatal("snapshot aliases live state")
	}
	if len(st.AddressSpaces[k.PM.Thrd(init).OwningProc]) != 0 {
		t.Fatal("snapshot address space grew")
	}
}

func TestAbstractionCoversAllObjects(t *testing.T) {
	k, init := boot(t)
	r := k.SysNewContainer(0, init, 50, []int{0})
	if r.Errno != kernel.OK {
		t.Fatal(r.Errno)
	}
	k.SysNewEndpoint(0, init, 3)
	st := abs(k)
	if len(st.Containers) != len(k.PM.CntrPerms) ||
		len(st.Threads) != len(k.PM.ThrdPerms) ||
		len(st.Endpoints) != len(k.PM.EdptPerms) ||
		len(st.Procs) != len(k.PM.ProcPerms) {
		t.Fatal("abstraction dropped objects")
	}
	if st.RootContainer != k.PM.RootContainer {
		t.Fatal("root pointer wrong")
	}
}

// A yield leaves Ψ as it was; an mmap the spec did not step does not.
func TestUnchangedDetectsYield(t *testing.T) {
	k, init := boot(t)
	ip := NewInterp(k)
	agree(t, ip, ip.Yield(0, init, k.SysYield(0, init)))
	if r := k.SysMmap(0, init, 0x1000, 1, hw.Size4K, pt.RW); r.Errno != kernel.OK {
		t.Fatal(r.Errno)
	}
	diverges(t, ip, "used_pages")
}

// The mmap step accepts the kernel's transition, its frames included,
// and a step applied with the wrong count or a Ψ′ with the wrong quota
// diverges.
func TestMmapSpecAcceptsAndRejects(t *testing.T) {
	k, init := boot(t)
	ip := NewInterp(k)
	ret := k.SysMmap(0, init, 0x400000, 3, hw.Size4K, pt.RW)
	agree(t, ip, ip.Mmap(0, init, 0x400000, 3, hw.Size4K, pt.RW, ret))
	proc := k.PM.Thrd(init).OwningProc
	for va, e := range ip.St.AddressSpaces[proc] {
		if ke, _ := k.PM.Proc(proc).PageTable.Mapping(va); e.Phys == 0 || e != ke {
			t.Fatalf("va %#x: spec %+v, kernel %+v", va, e, ke)
		}
	}

	short := NewInterp(k)
	ret = k.SysMmap(0, init, 0x800000, 3, hw.Size4K, pt.RW)
	if err := short.Mmap(0, init, 0x800000, 2, hw.Size4K, pt.RW, ret); err != nil {
		t.Fatal(err)
	}
	diverges(t, short, "used_pages")

	c := ip.St.Containers[k.PM.RootContainer]
	c.UsedPages--
	ip.St.Containers[k.PM.RootContainer] = c
	diverges(t, ip, "used_pages")
}

// Mmap and munmap at each granularity: the step removes exactly the
// range and a surviving mapping on another frame diverges.
func TestMunmapSpecFrameCondition(t *testing.T) {
	k, init := boot(t)
	ip := NewInterp(k)
	for i, size := range []hw.PageSize{hw.Size4K, hw.Size2M} {
		va := hw.VirtAddr(i+1) << 30
		agree(t, ip, ip.Mmap(0, init, va, 2, size, pt.RW, k.SysMmap(0, init, va, 2, size, pt.RW)))
		agree(t, ip, ip.Munmap(0, init, va, 1, size, k.SysMunmap(0, init, va, 1, size)))
		left := va + hw.VirtAddr(size.Bytes())
		proc := k.PM.Thrd(init).OwningProc
		e := ip.St.AddressSpaces[proc][left]
		e.Phys += hw.PageSize4K
		ip.St.AddressSpaces[proc][left] = e
		diverges(t, ip, "frame kernel=")
		e.Phys -= hw.PageSize4K
		ip.St.AddressSpaces[proc][left] = e
		agree(t, ip, ip.Munmap(0, init, left, 1, size, k.SysMunmap(0, init, left, 1, size)))
	}
	// A 1 GiB page needs a free 1 GiB region; a 2 GiB machine's upper
	// half is one.
	k, init, err := kernel.Boot(hw.Config{Frames: 2 * hw.Pages4KPer1G, Cores: 2, TLBSlots: 64})
	if err != nil {
		t.Fatal(err)
	}
	ip = NewInterp(k)
	const va = hw.VirtAddr(hw.PageSize1G)
	ret := k.SysMmap(0, init, va, 1, hw.Size1G, pt.RW)
	if ret.Errno != kernel.OK {
		t.Fatalf("1 GiB mmap: %v", ret.Errno)
	}
	agree(t, ip, ip.Mmap(0, init, va, 1, hw.Size1G, pt.RW, ret))
	agree(t, ip, ip.Munmap(0, init, va, 1, hw.Size1G, k.SysMunmap(0, init, va, 1, hw.Size1G)))
}

// new_container extends exactly the ancestors' subtrees.
func TestNewContainerSpecSubtreeExactness(t *testing.T) {
	k, init := boot(t)
	ip := NewInterp(k)
	agree(t, ip, ip.NewContainer(0, init, 30, []int{0}, k.SysNewContainer(0, init, 30, []int{0})))
	ip.St.Containers[k.PM.RootContainer].Subtree[Ptr(0xdead000)] = true
	diverges(t, ip, "subtree")
}

// A blocking recv and the send that completes it, then a receiver the
// step forgot to dequeue.
func TestSendRecvSpecs(t *testing.T) {
	k, init := boot(t)
	ip := NewInterp(k)
	ret := k.SysNewThread(0, init, 0)
	agree(t, ip, ip.NewThread(0, init, 0, ret))
	other := Ptr(ret.Vals[0])
	ret = k.SysNewEndpoint(0, init, 0)
	agree(t, ip, ip.NewEndpoint(0, init, 0, ret))
	ep := Ptr(ret.Vals[0])
	k.PM.Thrd(other).Endpoints[0] = ep
	k.PM.EndpointIncRef(ep, 1)
	if !ip.Install(other, 0, ep) {
		t.Fatal("install refused")
	}
	recv := kernel.RecvArgs{EdptSlot: -1}
	agree(t, ip, ip.Recv(0, other, 0, recv, k.SysRecv(0, other, 0, recv)))
	send := kernel.SendArgs{Regs: [4]uint64{5}}
	agree(t, ip, ip.Send(0, init, 0, send, k.SysSend(0, init, 0, send)))
	e := ip.St.Endpoints[ep]
	e.Queue = append(e.Queue, other)
	ip.St.Endpoints[ep] = e
	diverges(t, ip, "queue")
}

// exit_thread drops the thread; a Ψ′ still holding it diverges.
func TestExitThreadSpec(t *testing.T) {
	k, init := boot(t)
	ip := NewInterp(k)
	ret := k.SysNewThread(0, init, 0)
	agree(t, ip, ip.NewThread(0, init, 0, ret))
	tid := Ptr(ret.Vals[0])
	th := ip.St.Threads[tid]
	agree(t, ip, ip.ExitThread(0, tid, k.SysExitThread(0, tid)))
	ip.St.Threads[tid] = th
	diverges(t, ip, "missing in kernel")
}

// kill_container harvests the subtree; a surviving container diverges.
func TestKillContainerSpec(t *testing.T) {
	k, init := boot(t)
	ip := NewInterp(k)
	r := k.SysNewContainer(0, init, 60, []int{0})
	agree(t, ip, ip.NewContainer(0, init, 60, []int{0}, r))
	cntr := Ptr(r.Vals[0])
	rp := k.SysNewProcessIn(0, init, cntr)
	agree(t, ip, ip.NewProcessIn(0, init, cntr, rp))
	proc := Ptr(rp.Vals[0])
	agree(t, ip, ip.NewThreadIn(0, init, proc, 0, k.SysNewThreadIn(0, init, proc, 0)))
	survivor := ip.St.Containers[cntr]
	agree(t, ip, ip.KillContainer(0, init, cntr, k.SysKillContainer(0, init, cntr)))
	ip.St.Containers[cntr] = survivor
	diverges(t, ip, "missing in kernel")
}

func TestSortedPtrs(t *testing.T) {
	s := map[Ptr]bool{3: true, 1: true, 2: true}
	out := SortedPtrs(s)
	if len(out) != 3 || out[0] != 1 || out[1] != 2 || out[2] != 3 {
		t.Fatalf("sorted = %v", out)
	}
}

// The IOMMU steps: a fresh empty domain, a DMA mapping on the frame the
// address space maps (any other frame diverges), and its removal.
func TestIommuSpecs(t *testing.T) {
	k, init := boot(t)
	ip := NewInterp(k)
	ret := k.SysIommuCreateDomain(0, init)
	agree(t, ip, ip.IommuCreate(0, init, ret))
	agree(t, ip, ip.Mmap(0, init, 0x70000, 1, hw.Size4K, pt.RW, k.SysMmap(0, init, 0x70000, 1, hw.Size4K, pt.RW)))
	agree(t, ip, ip.IommuMap(0, init, 0x70000, k.SysIommuMap(0, init, 0x70000)))
	dom := ip.St.Procs[k.PM.Thrd(init).OwningProc].IOMMUDomain
	e := ip.St.DMASpaces[dom][0x70000]
	if e.Phys != ip.St.AddressSpaces[k.PM.Thrd(init).OwningProc][0x70000].Phys {
		t.Fatalf("DMA mapping %+v is not on the address space's frame", e)
	}
	e.Phys += hw.PageSize4K
	ip.St.DMASpaces[dom][0x70000] = e
	diverges(t, ip, "frame kernel=")
	e.Phys -= hw.PageSize4K
	ip.St.DMASpaces[dom][0x70000] = e
	agree(t, ip, ip.IommuUnmap(0, init, 0x70000, k.SysIommuUnmap(0, init, 0x70000)))
	ip.St.DMASpaces[dom][0x70000] = e
	diverges(t, ip, "mapped in spec, not in kernel")
}

// rangeCovered agrees with a Lookup of every page base in the range,
// whichever side it walks.
func TestRangeCoveredMatchesPerPage(t *testing.T) {
	r := hw.NewRand(7)
	sizes := []hw.PageSize{hw.Size4K, hw.Size2M, hw.Size1G}
	hits := 0
	for trial := 0; trial < 2000; trial++ {
		as := map[hw.VirtAddr]pt.MapEntry{}
		for i := r.Intn(6); i > 0; i-- {
			size := sizes[r.Intn(3)]
			base := hw.VirtAddr(r.Intn(1<<14)) << 12 &^ hw.VirtAddr(size.Bytes()-1)
			as[base] = pt.MapEntry{Size: size}
		}
		size := sizes[r.Intn(2)]
		step := hw.VirtAddr(size.Bytes())
		va := hw.VirtAddr(r.Intn(1<<14)) << 12 &^ (step - 1)
		count := 1 + r.Intn(12)
		want := false
		for i := 0; i < count; i++ {
			want = want || spaceCovers(as, va+hw.VirtAddr(i)*step)
		}
		if got := rangeCovered(as, va, count, step); got != want {
			t.Fatalf("space %v, %d pages of %v from %#x: covered %v, per page %v", as, count, size, uint64(va), got, want)
		}
		if want {
			hits++
		}
	}
	if hits < 200 || hits > 1800 {
		t.Fatalf("%d of 2000 ranges covered: the trials do not exercise both answers", hits)
	}
}
