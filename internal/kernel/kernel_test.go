package kernel

import (
	"fmt"
	"runtime"
	"testing"

	"atmosphere/internal/hw"
	"atmosphere/internal/pm"
	"atmosphere/internal/pt"
)

func boot(t *testing.T) (*Kernel, pm.Ptr) {
	t.Helper()
	k, init, err := Boot(hw.Config{Frames: 4096, Cores: 4, TLBSlots: 64})
	if err != nil {
		t.Fatal(err)
	}
	return k, init
}

func mustOK(t *testing.T, r Ret) Ret {
	t.Helper()
	if r.Errno != OK {
		t.Fatalf("syscall failed: %v", r.Errno)
	}
	return r
}

func TestBoot(t *testing.T) {
	k, init := boot(t)
	th := k.PM.Thrd(init)
	if th.State != pm.ThreadRunning {
		t.Fatalf("init thread state = %v", th.State)
	}
	root := k.PM.Cntr(k.PM.RootContainer)
	if root.UsedPages > root.QuotaPages {
		t.Fatalf("boot overcommitted: used %d quota %d", root.UsedPages, root.QuotaPages)
	}
}

// TestBootHostMemory pins the host memory a boot costs. Simulated RAM is
// sparse, so booting a 128 MiB machine allocates only the frame table
// and the frames the kernel writes, not the configured RAM.
func TestBootHostMemory(t *testing.T) {
	const limit = 4 << 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, _, err := Boot(hw.Config{Frames: 32768, Cores: 8, TLBSlots: 1536}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n >= limit {
		t.Fatalf("Boot of a 32,768-frame machine allocated %d bytes, want under %d", n, limit)
	}
}

func TestMmapMunmap(t *testing.T) {
	k, init := boot(t)
	usedBefore := k.PM.Cntr(k.PM.RootContainer).UsedPages
	r := mustOK(t, k.SysMmap(0, init, 0x400000, 8, hw.Size4K, pt.RW))
	if r.Vals[0] != 0x400000 {
		t.Fatalf("mmap returned %#x", r.Vals[0])
	}
	proc := k.PM.Proc(k.PM.Thrd(init).OwningProc)
	if got := len(proc.PageTable.AddressSpace()); got != 8 {
		t.Fatalf("address space has %d mappings", got)
	}
	// Write through the MMU to prove the mappings are real.
	if !k.Machine.MMU.Store(proc.PageTable.CR3(), 0x400000, []byte("hello")) {
		t.Fatal("store through new mapping failed")
	}
	mustOK(t, k.SysMunmap(0, init, 0x400000, 8, hw.Size4K))
	if got := len(proc.PageTable.AddressSpace()); got != 0 {
		t.Fatalf("address space has %d mappings after munmap", got)
	}
	// Quota: the page-table nodes stay charged, user pages credited.
	usedAfter := k.PM.Cntr(k.PM.RootContainer).UsedPages
	if usedAfter != usedBefore+3 { // PDPT+PD+PT nodes created by the map
		t.Fatalf("used after = %d, want %d+3", usedAfter, usedBefore)
	}
}

// A warm single-page mmap/munmap pair allocates a fixed, small number of
// host objects however many table nodes the address space has: the
// quota paths count nodes without copying the node set.
func TestMmapMunmapAllocs(t *testing.T) {
	k, init := boot(t)
	// Nineteen table nodes, too many for a copy of the node set to stay
	// on the stack.
	for i := 0; i < 16; i++ {
		mustOK(t, k.SysMmap(0, init, hw.VirtAddr(0x40000000+i*hw.PageSize2M), 1, hw.Size4K, pt.RW))
	}
	pair := func() {
		mustOK(t, k.SysMmap(0, init, 0x400000, 1, hw.Size4K, pt.RW))
		mustOK(t, k.SysMunmap(0, init, 0x400000, 1, hw.Size4K))
	}
	pair() // create the table nodes for 0x400000
	if got := testing.AllocsPerRun(100, pair); got > 1 {
		t.Fatalf("warm mmap/munmap pair allocates %v objects, want at most 1", got)
	}
}

func TestMmapDoubleMapRejected(t *testing.T) {
	k, init := boot(t)
	mustOK(t, k.SysMmap(0, init, 0x1000, 1, hw.Size4K, pt.RW))
	if r := k.SysMmap(0, init, 0x1000, 1, hw.Size4K, pt.RW); r.Errno != EALREADY {
		t.Fatalf("double mmap: %v", r.Errno)
	}
	// Overlapping range: second page collides.
	if r := k.SysMmap(0, init, 0, 2, hw.Size4K, pt.RW); r.Errno != EALREADY {
		t.Fatalf("overlapping mmap: %v", r.Errno)
	}
}

func TestMmapQuotaRollback(t *testing.T) {
	k, init := boot(t)
	// A child container with a tiny quota.
	r := mustOK(t, k.SysNewContainer(0, init, 12, []int{0}))
	child := pm.Ptr(r.Vals[0])
	rp := mustOK(t, k.SysNewProcessIn(0, init, child))
	proc := pm.Ptr(rp.Vals[0])
	rt := mustOK(t, k.SysNewThreadIn(0, init, proc, 0))
	tid := pm.Ptr(rt.Vals[0])
	usedBefore := k.PM.Cntr(child).UsedPages
	nodesBefore := k.PM.Proc(proc).PageTable.NodeCount()
	// 12-page quota minus (container 1 + proc 1 + PML4 1 + thread 1) = 8
	// left; 16 user pages plus 3 table nodes cannot fit.
	if r := k.SysMmap(0, tid, 0x400000, 16, hw.Size4K, pt.RW); r.Errno != EQUOTA {
		t.Fatalf("over-quota mmap: %v", r.Errno)
	}
	if got := k.PM.Cntr(child).UsedPages; got != usedBefore {
		t.Fatalf("rollback leaked quota: %d != %d", got, usedBefore)
	}
	if got := k.PM.Proc(proc).PageTable.NodeCount(); got != nodesBefore {
		t.Fatalf("rollback leaked table nodes: %d != %d", got, nodesBefore)
	}
	if got := len(k.PM.Proc(proc).PageTable.AddressSpace()); got != 0 {
		t.Fatalf("rollback left %d mappings", got)
	}
}

func TestMunmapWrongGranularity(t *testing.T) {
	k, init := boot(t)
	mustOK(t, k.SysMmap(0, init, 0x1000, 1, hw.Size4K, pt.RW))
	if r := k.SysMunmap(0, init, 0x1000, 1, hw.Size2M); r.Errno != ENOENT {
		t.Fatalf("wrong-size munmap: %v", r.Errno)
	}
	if r := k.SysMunmap(0, init, 0x8000, 1, hw.Size4K); r.Errno != ENOENT {
		t.Fatalf("unmapped munmap: %v", r.Errno)
	}
}

func TestContainerLifecycleSyscalls(t *testing.T) {
	k, init := boot(t)
	r := mustOK(t, k.SysNewContainer(0, init, 50, []int{0, 1}))
	child := pm.Ptr(r.Vals[0])
	if !k.PM.IsAncestor(k.PM.RootContainer, child) {
		t.Fatal("child not in root subtree")
	}
	rp := mustOK(t, k.SysNewProcessIn(0, init, child))
	proc := pm.Ptr(rp.Vals[0])
	rt := mustOK(t, k.SysNewThreadIn(0, init, proc, 1))
	tid := pm.Ptr(rt.Vals[0])
	// The child's thread maps some memory.
	mustOK(t, k.SysMmap(1, tid, 0x10000, 4, hw.Size4K, pt.RW))
	rootUsed := k.PM.Cntr(k.PM.RootContainer).UsedPages
	free := k.Alloc.FreeCount4K()
	mustOK(t, k.SysKillContainer(0, init, child))
	if _, ok := k.PM.TryCntr(child); ok {
		t.Fatal("killed container survived")
	}
	if _, ok := k.PM.TryThrd(tid); ok {
		t.Fatal("killed thread survived")
	}
	if got := k.PM.Cntr(k.PM.RootContainer).UsedPages; got != rootUsed-50 {
		t.Fatalf("quota not harvested: %d, want %d", got, rootUsed-50)
	}
	// Everything the subtree consumed returns to the free list:
	// container + proc + PML4 + 3 table nodes + thread + 4 user pages.
	if got := k.Alloc.FreeCount4K(); got != free+11 {
		t.Fatalf("pages not harvested: %d, want %d", got, free+11)
	}
}

func TestKillContainerRequiresAncestry(t *testing.T) {
	k, init := boot(t)
	rA := mustOK(t, k.SysNewContainer(0, init, 30, []int{0}))
	rB := mustOK(t, k.SysNewContainer(0, init, 30, []int{0}))
	a, b := pm.Ptr(rA.Vals[0]), pm.Ptr(rB.Vals[0])
	// A thread inside A tries to kill B (a sibling): denied.
	rp := mustOK(t, k.SysNewProcessIn(0, init, a))
	rt := mustOK(t, k.SysNewThreadIn(0, init, pm.Ptr(rp.Vals[0]), 0))
	tidA := pm.Ptr(rt.Vals[0])
	if r := k.SysKillContainer(0, tidA, b); r.Errno != EPERM {
		t.Fatalf("sibling kill: %v", r.Errno)
	}
	// A container cannot kill itself (not a strict descendant).
	if r := k.SysKillContainer(0, tidA, a); r.Errno != EPERM {
		t.Fatalf("self kill: %v", r.Errno)
	}
	// Killing a nonexistent container reports ENOENT.
	if r := k.SysKillContainer(0, init, pm.Ptr(0xabc000)); r.Errno != ENOENT {
		t.Fatalf("ghost kill: %v", r.Errno)
	}
}

func TestNestedContainerKill(t *testing.T) {
	k, init := boot(t)
	rA := mustOK(t, k.SysNewContainer(0, init, 200, []int{0}))
	a := pm.Ptr(rA.Vals[0])
	rp := mustOK(t, k.SysNewProcessIn(0, init, a))
	rt := mustOK(t, k.SysNewThreadIn(0, init, pm.Ptr(rp.Vals[0]), 0))
	tidA := pm.Ptr(rt.Vals[0])
	// A creates two nested children with processes.
	rB := mustOK(t, k.SysNewContainer(0, tidA, 40, []int{0}))
	b := pm.Ptr(rB.Vals[0])
	rC := mustOK(t, k.SysNewContainer(0, tidA, 40, []int{0}))
	c := pm.Ptr(rC.Vals[0])
	for _, cn := range []pm.Ptr{b, c} {
		rp := mustOK(t, k.SysNewProcessIn(0, tidA, cn))
		mustOK(t, k.SysNewThreadIn(0, tidA, pm.Ptr(rp.Vals[0]), 0))
	}
	mustOK(t, k.SysKillContainer(0, init, a))
	for _, cn := range []pm.Ptr{a, b, c} {
		if _, ok := k.PM.TryCntr(cn); ok {
			t.Fatalf("container %#x survived subtree kill", cn)
		}
	}
	if len(k.PM.CntrPerms) != 1 {
		t.Fatalf("%d containers left, want 1 (root)", len(k.PM.CntrPerms))
	}
}

func TestProcessSyscalls(t *testing.T) {
	k, init := boot(t)
	r := mustOK(t, k.SysNewProcess(0, init))
	child := pm.Ptr(r.Vals[0])
	rt := mustOK(t, k.SysNewThreadIn(0, init, child, 2))
	tid := pm.Ptr(rt.Vals[0])
	mustOK(t, k.SysMmap(2, tid, 0x20000, 2, hw.Size4K, pt.RW))
	free := k.Alloc.FreeCount4K()
	mustOK(t, k.SysKillProcess(0, init, child))
	if _, ok := k.PM.TryProc(child); ok {
		t.Fatal("killed process survived")
	}
	if _, ok := k.PM.TryThrd(tid); ok {
		t.Fatal("killed process's thread survived")
	}
	// proc page + PML4 + 3 nodes + thread + 2 user pages = 8
	if got := k.Alloc.FreeCount4K(); got != free+8 {
		t.Fatalf("pages not reclaimed: %d, want %d", got, free+8)
	}
	// A process cannot kill itself via this path.
	if r := k.SysKillProcess(0, init, k.PM.Thrd(init).OwningProc); r.Errno != EPERM {
		t.Fatalf("self kill-process: %v", r.Errno)
	}
}

func TestKillProcessSubtree(t *testing.T) {
	k, init := boot(t)
	r1 := mustOK(t, k.SysNewProcess(0, init))
	p1 := pm.Ptr(r1.Vals[0])
	rt := mustOK(t, k.SysNewThreadIn(0, init, p1, 0))
	t1 := pm.Ptr(rt.Vals[0])
	// p1's thread spawns a grandchild process.
	r2 := mustOK(t, k.SysNewProcess(0, t1))
	p2 := pm.Ptr(r2.Vals[0])
	mustOK(t, k.SysKillProcess(0, init, p1))
	if _, ok := k.PM.TryProc(p2); ok {
		t.Fatal("grandchild process survived subtree kill")
	}
}

func TestExitThread(t *testing.T) {
	k, init := boot(t)
	r := mustOK(t, k.SysNewThread(0, init, 0))
	tid := pm.Ptr(r.Vals[0])
	mustOK(t, k.SysExitThread(0, tid))
	if _, ok := k.PM.TryThrd(tid); ok {
		t.Fatal("exited thread survived")
	}
	// Exiting again is EINVAL (dangling pointer).
	if r := k.SysExitThread(0, tid); r.Errno != EINVAL {
		t.Fatalf("double exit: %v", r.Errno)
	}
}

// ipcPair boots a kernel with two threads sharing an endpoint in slot 0.
func ipcPair(t *testing.T) (k *Kernel, a, b pm.Ptr) {
	t.Helper()
	k, init := boot(t)
	a = init
	r := mustOK(t, k.SysNewThread(0, init, 0))
	b = pm.Ptr(r.Vals[0])
	re := mustOK(t, k.SysNewEndpoint(0, a, 0))
	ep := pm.Ptr(re.Vals[0])
	// Share the endpoint with b by direct descriptor install (the
	// kernel-internal equivalent of inheriting it at thread creation).
	k.PM.Thrd(b).Endpoints[0] = ep
	k.PM.EndpointIncRef(ep, 1)
	return k, a, b
}

func TestIPCSendThenRecv(t *testing.T) {
	k, a, b := ipcPair(t)
	// a sends first: no receiver, so a blocks.
	r := k.SysSend(0, a, 0, SendArgs{Regs: [4]uint64{1, 2, 3, 4}})
	if r.Errno != EWOULDBLOCK {
		t.Fatalf("send should block: %v", r.Errno)
	}
	if k.PM.Thrd(a).State != pm.ThreadBlockedSend {
		t.Fatalf("sender state = %v", k.PM.Thrd(a).State)
	}
	// b receives: rendezvous completes, both runnable/running.
	rr := mustOK(t, k.SysRecv(0, b, 0, RecvArgs{EdptSlot: -1}))
	if rr.Vals != [4]uint64{1, 2, 3, 4} {
		t.Fatalf("recv regs = %v", rr.Vals)
	}
	if k.PM.Thrd(a).State == pm.ThreadBlockedSend {
		t.Fatal("sender still blocked after rendezvous")
	}
	if k.PM.Thrd(a).IPC.Err != nil {
		t.Fatalf("sender completion error: %v", k.PM.Thrd(a).IPC.Err)
	}
}

func TestIPCRecvThenSend(t *testing.T) {
	k, a, b := ipcPair(t)
	r := k.SysRecv(0, b, 0, RecvArgs{EdptSlot: -1})
	if r.Errno != EWOULDBLOCK {
		t.Fatalf("recv should block: %v", r.Errno)
	}
	mustOK(t, k.SysSend(0, a, 0, SendArgs{Regs: [4]uint64{9, 8, 7, 6}}))
	tb := k.PM.Thrd(b)
	if tb.State != pm.ThreadRunnable {
		t.Fatalf("receiver state = %v", tb.State)
	}
	if tb.IPC.Msg.Regs != [4]uint64{9, 8, 7, 6} {
		t.Fatalf("delivered regs = %v", tb.IPC.Msg.Regs)
	}
}

func TestIPCPageTransfer(t *testing.T) {
	k, a, b := ipcPair(t)
	mustOK(t, k.SysMmap(0, a, 0x100000, 1, hw.Size4K, pt.RW))
	procA := k.PM.Proc(k.PM.Thrd(a).OwningProc)
	entry, _ := procA.PageTable.Lookup(0x100000)
	// Write into the page so the receiver can read it.
	k.Machine.MMU.Store(procA.PageTable.CR3(), 0x100000, []byte("shared!"))

	// b waits for a page at its own chosen address. b runs in its own
	// process so the transfer crosses address spaces.
	rp := mustOK(t, k.SysNewProcess(0, a))
	rt := mustOK(t, k.SysNewThreadIn(0, a, pm.Ptr(rp.Vals[0]), 0))
	b2 := pm.Ptr(rt.Vals[0])
	k.PM.Thrd(b2).Endpoints[0] = k.PM.Thrd(b).Endpoints[0]
	k.PM.EndpointIncRef(k.PM.Thrd(b).Endpoints[0], 1)

	if r := k.SysRecv(0, b2, 0, RecvArgs{PageVA: 0x7000, EdptSlot: -1}); r.Errno != EWOULDBLOCK {
		t.Fatalf("recv: %v", r.Errno)
	}
	mustOK(t, k.SysSend(0, a, 0, SendArgs{SendPage: true, PageVA: 0x100000}))

	procB := k.PM.Proc(k.PM.Thrd(b2).OwningProc)
	got, okk := k.Machine.MMU.Load(procB.PageTable.CR3(), 0x7000, 7)
	if !okk || string(got) != "shared!" {
		t.Fatalf("receiver sees %q ok=%v", got, okk)
	}
	// The frame is now referenced twice.
	if rc, _ := k.Alloc.RefCount(entry.Phys); rc != 2 {
		t.Fatalf("refcount = %d, want 2", rc)
	}
	// Sender unmaps; page survives for the receiver.
	mustOK(t, k.SysMunmap(0, a, 0x100000, 1, hw.Size4K))
	if rc, _ := k.Alloc.RefCount(entry.Phys); rc != 1 {
		t.Fatalf("refcount after sender unmap = %d", rc)
	}
}

func TestIPCEndpointTransfer(t *testing.T) {
	k, a, b := ipcPair(t)
	// a creates a second endpoint and sends it to b.
	re := mustOK(t, k.SysNewEndpoint(0, a, 1))
	ep2 := pm.Ptr(re.Vals[0])
	if r := k.SysRecv(0, b, 0, RecvArgs{EdptSlot: 5}); r.Errno != EWOULDBLOCK {
		t.Fatalf("recv: %v", r.Errno)
	}
	mustOK(t, k.SysSend(0, a, 0, SendArgs{SendEdpt: true, EdptSlot: 1}))
	if k.PM.Thrd(b).Endpoints[5] != ep2 {
		t.Fatal("endpoint descriptor not installed")
	}
	if k.PM.Edpt(ep2).RefCount != 2 {
		t.Fatalf("endpoint refcount = %d", k.PM.Edpt(ep2).RefCount)
	}
}

// TestKillScrubsPendingEndpointTransfer parks a sender on a surviving
// endpoint with a message that transfers an endpoint of a child
// container, then kills the child. The kill destroys the transferred
// endpoint, so the receiver that then takes the message gets its
// scalars and no descriptor: the dead endpoint is scrubbed from the
// pending message, not delivered as a dangling pointer.
func TestKillScrubsPendingEndpointTransfer(t *testing.T) {
	k, a, b := ipcPair(t)
	cntr := pm.Ptr(mustOK(t, k.SysNewContainer(0, a, 60, []int{0})).Vals[0])
	proc := pm.Ptr(mustOK(t, k.SysNewProcessIn(0, a, cntr)).Vals[0])
	owner := pm.Ptr(mustOK(t, k.SysNewThreadIn(0, a, proc, 0)).Vals[0])
	doomed := pm.Ptr(mustOK(t, k.SysNewEndpoint(0, owner, 0)).Vals[0])
	k.PM.Thrd(a).Endpoints[1] = doomed
	k.PM.EndpointIncRef(doomed, 1)
	if r := k.SysSend(0, a, 0, SendArgs{Regs: [4]uint64{7}, SendEdpt: true, EdptSlot: 1}); r.Errno != EWOULDBLOCK {
		t.Fatalf("send: %v", r.Errno)
	}
	mustOK(t, k.SysKillContainer(0, b, cntr))
	if _, alive := k.PM.TryEdpt(doomed); alive {
		t.Fatal("the kill left the child's endpoint alive")
	}
	if r := mustOK(t, k.SysRecv(0, b, 0, RecvArgs{EdptSlot: -1})); r.Vals[0] != 7 {
		t.Fatalf("recv regs = %v", r.Vals)
	}
	for slot, e := range k.PM.Thrd(b).Endpoints {
		if e != pm.NoEndpoint && slot != 0 {
			t.Fatalf("receiver got a descriptor to %#x in slot %d", e, slot)
		}
	}
}

func TestIPCCallReply(t *testing.T) {
	k, a, b := ipcPair(t)
	// Server b waits.
	if r := k.SysRecv(0, b, 0, RecvArgs{EdptSlot: -1}); r.Errno != EWOULDBLOCK {
		t.Fatalf("server recv: %v", r.Errno)
	}
	// Client a calls: server wakes and runs, client blocks for reply.
	if r := k.SysCall(0, a, 0, SendArgs{Regs: [4]uint64{42}}); r.Errno != EWOULDBLOCK {
		t.Fatalf("call: %v", r.Errno)
	}
	if k.PM.Sched().Current(0) != b {
		t.Fatal("direct switch to server did not happen")
	}
	if k.PM.Thrd(b).IPC.Msg.Regs[0] != 42 {
		t.Fatal("server did not get the request")
	}
	if k.PM.Thrd(a).State != pm.ThreadBlockedRecv {
		t.Fatalf("client state = %v", k.PM.Thrd(a).State)
	}
	// Server replies: client wakes with the answer and gets the core.
	mustOK(t, k.SysReply(0, b, 0, SendArgs{Regs: [4]uint64{43}}))
	if k.PM.Sched().Current(0) != a {
		t.Fatal("direct switch back to client did not happen")
	}
	if k.PM.Thrd(a).IPC.Msg.Regs[0] != 43 {
		t.Fatal("client did not get the reply")
	}
	// Call with no waiting server refuses (fastpath-only).
	if r := k.SysCall(0, a, 0, SendArgs{}); r.Errno != EWOULDBLOCK {
		t.Fatalf("call without server: %v", r.Errno)
	}
}

func TestIPCInvalidSlots(t *testing.T) {
	k, a, _ := ipcPair(t)
	if r := k.SysSend(0, a, 7, SendArgs{}); r.Errno != EINVAL {
		t.Fatalf("send on empty slot: %v", r.Errno)
	}
	if r := k.SysSend(0, a, -1, SendArgs{}); r.Errno != EINVAL {
		t.Fatalf("send on negative slot: %v", r.Errno)
	}
	if r := k.SysRecv(0, a, 99, RecvArgs{}); r.Errno != EINVAL {
		t.Fatalf("recv on out-of-range slot: %v", r.Errno)
	}
	if r := k.SysSend(0, a, 0, SendArgs{SendPage: true, PageVA: 0xdead000}); r.Errno != ENOENT {
		t.Fatalf("send of unmapped page: %v", r.Errno)
	}
	if r := k.SysNewEndpoint(0, a, 0); r.Errno != EINVAL {
		t.Fatalf("endpoint into occupied slot: %v", r.Errno)
	}
}

func TestKillContainerWakesOutsideWaiters(t *testing.T) {
	k, init := boot(t)
	// Container A owns an endpoint; the init thread (outside A) blocks
	// on it; killing A must wake init with EDEADOBJ.
	rA := mustOK(t, k.SysNewContainer(0, init, 60, []int{0}))
	a := pm.Ptr(rA.Vals[0])
	rp := mustOK(t, k.SysNewProcessIn(0, init, a))
	rt := mustOK(t, k.SysNewThreadIn(0, init, pm.Ptr(rp.Vals[0]), 0))
	tidA := pm.Ptr(rt.Vals[0])
	re := mustOK(t, k.SysNewEndpoint(0, tidA, 0))
	ep := pm.Ptr(re.Vals[0])
	// Share with init.
	k.PM.Thrd(init).Endpoints[3] = ep
	k.PM.EndpointIncRef(ep, 1)
	// The kill must be issued by a runnable thread, so create the helper
	// before init blocks.
	rh := mustOK(t, k.SysNewThreadIn(0, init, k.PM.Thrd(init).OwningProc, 0))
	helper := pm.Ptr(rh.Vals[0])
	if r := k.SysRecv(0, init, 3, RecvArgs{EdptSlot: -1}); r.Errno != EWOULDBLOCK {
		t.Fatalf("recv: %v", r.Errno)
	}
	mustOK(t, k.SysKillContainer(0, helper, a))
	ti := k.PM.Thrd(init)
	if ti.State != pm.ThreadRunnable {
		t.Fatalf("outside waiter state = %v", ti.State)
	}
	if ti.IPC.Err == nil {
		t.Fatal("outside waiter woke without error")
	}
	if ti.Endpoints[3] != pm.NoEndpoint {
		t.Fatal("dead endpoint descriptor not revoked")
	}
	if _, ok := k.PM.TryEdpt(ep); ok {
		t.Fatal("endpoint survived container kill")
	}
}

func TestKillContainerDropsBlockedSenderPage(t *testing.T) {
	k, init := boot(t)
	rA := mustOK(t, k.SysNewContainer(0, init, 60, []int{0}))
	a := pm.Ptr(rA.Vals[0])
	rp := mustOK(t, k.SysNewProcessIn(0, init, a))
	rt := mustOK(t, k.SysNewThreadIn(0, init, pm.Ptr(rp.Vals[0]), 0))
	tidA := pm.Ptr(rt.Vals[0])
	// Root-owned endpoint shared into A; A's thread blocks sending a
	// page on it.
	re := mustOK(t, k.SysNewEndpoint(0, init, 2))
	ep := pm.Ptr(re.Vals[0])
	k.PM.Thrd(tidA).Endpoints[0] = ep
	k.PM.EndpointIncRef(ep, 1)
	mustOK(t, k.SysMmap(0, tidA, 0x30000, 1, hw.Size4K, pt.RW))
	free := k.Alloc.FreeCount4K()
	if r := k.SysSend(0, tidA, 0, SendArgs{SendPage: true, PageVA: 0x30000}); r.Errno != EWOULDBLOCK {
		t.Fatalf("send: %v", r.Errno)
	}
	mustOK(t, k.SysKillContainer(0, init, a))
	// The page's two references (mapping + in-flight message) must both
	// be gone; every page A consumed returns.
	if got := k.Alloc.FreeCount4K(); got <= free {
		t.Fatalf("kill did not reclaim pages: %d <= %d", got, free)
	}
	if ep2, ok := k.PM.TryEdpt(ep); !ok {
		t.Fatal("root's endpoint should survive")
	} else if len(ep2.Queue) != 0 {
		t.Fatal("dead sender still queued on root endpoint")
	}
}

func TestIommuSyscalls(t *testing.T) {
	k, init := boot(t)
	if r := k.SysIommuMap(0, init, 0x1000); r.Errno != ENOENT {
		t.Fatalf("map without domain: %v", r.Errno)
	}
	mustOK(t, k.SysIommuCreateDomain(0, init))
	if r := k.SysIommuCreateDomain(0, init); r.Errno != EALREADY {
		t.Fatalf("double create: %v", r.Errno)
	}
	mustOK(t, k.SysIommuAttach(0, init, 7))
	mustOK(t, k.SysMmap(0, init, 0x50000, 1, hw.Size4K, pt.RW))
	mustOK(t, k.SysIommuMap(0, init, 0x50000))
	proc := k.PM.Proc(k.PM.Thrd(init).OwningProc)
	entry, _ := proc.PageTable.Lookup(0x50000)
	if pa, okk := k.IOMMU.Translate(7, 0x50000); !okk || pa != entry.Phys {
		t.Fatalf("device translation = %#x ok=%v", pa, okk)
	}
	// The DMA pin keeps the page alive across munmap.
	mustOK(t, k.SysMunmap(0, init, 0x50000, 1, hw.Size4K))
	if rc, _ := k.Alloc.RefCount(entry.Phys); rc != 1 {
		t.Fatalf("pinned refcount = %d", rc)
	}
	mustOK(t, k.SysIommuUnmap(0, init, 0x50000))
	meta, _ := k.Alloc.Meta(entry.Phys)
	if meta.State.String() != "free" {
		t.Fatalf("page state after unpin = %v", meta.State)
	}
}

func TestKillProcessDestroysIommuDomain(t *testing.T) {
	k, init := boot(t)
	r := mustOK(t, k.SysNewProcess(0, init))
	proc := pm.Ptr(r.Vals[0])
	rt := mustOK(t, k.SysNewThreadIn(0, init, proc, 0))
	tid := pm.Ptr(rt.Vals[0])
	mustOK(t, k.SysIommuCreateDomain(0, tid))
	mustOK(t, k.SysIommuAttach(0, tid, 9))
	mustOK(t, k.SysMmap(0, tid, 0x60000, 1, hw.Size4K, pt.RW))
	mustOK(t, k.SysIommuMap(0, tid, 0x60000))
	mustOK(t, k.SysKillProcess(0, init, proc))
	if _, okk := k.IOMMU.Translate(9, 0x60000); okk {
		t.Fatal("device translation survived process kill")
	}
	if err := k.IOMMU.CheckWF(nil); err != nil {
		t.Fatal(err)
	}
}

func TestYield(t *testing.T) {
	k, init := boot(t)
	r := mustOK(t, k.SysNewThread(0, init, 0))
	other := pm.Ptr(r.Vals[0])
	mustOK(t, k.SysYield(0, init))
	if k.PM.Sched().Current(0) != other {
		t.Fatal("yield did not rotate to the other thread")
	}
	mustOK(t, k.SysYield(0, other))
	if k.PM.Sched().Current(0) != init {
		t.Fatal("yield did not rotate back")
	}
}

func TestSyscallsChargeCycles(t *testing.T) {
	k, init := boot(t)
	before := k.Machine.Core(0).Clock.Cycles()
	mustOK(t, k.SysMmap(0, init, 0x1000, 1, hw.Size4K, pt.RW))
	if k.Machine.Core(0).Clock.Cycles() <= before {
		t.Fatal("mmap charged nothing to the invoking core")
	}
	// Core 1 unaffected.
	if k.Machine.Core(1).Clock.Cycles() != 0 {
		t.Fatal("mmap charged the wrong core")
	}
}

// TestBigLockConcurrency exercises the §3 multiprocessor model: syscalls
// arrive concurrently from four cores and serialize under the big lock;
// all invariant-relevant state must come out consistent.
func TestBigLockConcurrency(t *testing.T) {
	k, init := boot(t)
	var tids [4]pm.Ptr
	tids[0] = init
	for core := 1; core < 4; core++ {
		r := mustOK(t, k.SysNewThread(0, init, core))
		tids[core] = pm.Ptr(r.Vals[0])
	}
	done := make(chan error, 4)
	for core := 0; core < 4; core++ {
		go func(core int) {
			tid := tids[core]
			base := hw.VirtAddr(0x10000000 * (core + 1))
			for i := 0; i < 100; i++ {
				va := base + hw.VirtAddr(i*hw.PageSize4K)
				if r := k.SysMmap(core, tid, va, 1, hw.Size4K, pt.RW); r.Errno != OK {
					done <- fmt.Errorf("core %d mmap: %v", core, r.Errno)
					return
				}
				if i%3 == 0 {
					if r := k.SysMunmap(core, tid, va, 1, hw.Size4K); r.Errno != OK {
						done <- fmt.Errorf("core %d munmap: %v", core, r.Errno)
						return
					}
				}
				if i%7 == 0 {
					k.SysYield(core, tid)
				}
			}
			done <- nil
		}(core)
	}
	for i := 0; i < 4; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	// Every core's clock advanced; totals are consistent.
	for core := 0; core < 4; core++ {
		if k.Machine.Core(core).Clock.Cycles() == 0 {
			t.Fatalf("core %d charged nothing", core)
		}
	}
	// The address spaces hold exactly what each loop left mapped.
	proc := k.PM.Proc(k.PM.Thrd(init).OwningProc)
	want := 4 * (100 - 34) // 34 of 100 unmapped per core (i%3==0)
	if got := len(proc.PageTable.AddressSpace()); got != want {
		t.Fatalf("address space has %d mappings, want %d", got, want)
	}
}

// TestSyscallsNeverPanicOnJunk throws structured garbage at every
// syscall: whatever the arguments, the kernel must refuse cleanly, never
// panic (the executable analogue of "user input cannot violate kernel
// safety").
func TestSyscallsNeverPanicOnJunk(t *testing.T) {
	k, init := boot(t)
	r := hw.NewRand(31337)
	junkPtr := func() pm.Ptr {
		switch r.Intn(3) {
		case 0:
			return init
		case 1:
			return pm.Ptr(r.Uint64n(1<<24) &^ 0xfff)
		default:
			return pm.Ptr(r.Uint64())
		}
	}
	defer func() {
		if p := recover(); p != nil {
			t.Fatalf("kernel panicked on junk input: %v", p)
		}
	}()
	for i := 0; i < 3000; i++ {
		core := r.Intn(4)
		tid := junkPtr()
		switch r.Intn(12) {
		case 0:
			k.SysMmap(core, tid, hw.VirtAddr(r.Uint64()), int(r.Uint64n(8))-2,
				hw.PageSize(r.Intn(4)), pt.Perm{Write: r.Bool(), User: r.Bool()})
		case 1:
			k.SysMunmap(core, tid, hw.VirtAddr(r.Uint64()), int(r.Uint64n(8))-2, hw.Size4K)
		case 2:
			k.SysNewContainer(core, tid, r.Uint64n(1<<30), []int{int(r.Uint64n(8)) - 2})
		case 3:
			k.SysNewThreadIn(core, tid, junkPtr(), int(r.Uint64n(8))-2)
		case 4:
			k.SysNewEndpoint(core, tid, int(r.Uint64n(40))-4)
		case 5:
			k.SysSend(core, tid, int(r.Uint64n(40))-4, SendArgs{
				SendPage: r.Bool(), PageVA: hw.VirtAddr(r.Uint64()),
				SendEdpt: r.Bool(), EdptSlot: int(r.Uint64n(40)) - 4,
			})
		case 6:
			k.SysRecv(core, tid, int(r.Uint64n(40))-4, RecvArgs{
				PageVA: hw.VirtAddr(r.Uint64()), EdptSlot: int(r.Uint64n(40)) - 4,
			})
		case 7:
			k.SysKillContainer(core, tid, junkPtr())
		case 8:
			k.SysKillContainerBounded(core, tid, junkPtr(), int(r.Uint64n(10))-2)
		case 9:
			k.SysIrqRegister(core, tid, int(r.Uint64n(600))-20, int(r.Uint64n(40))-4)
		case 10:
			k.SysIommuMap(core, tid, hw.VirtAddr(r.Uint64()))
		case 11:
			k.SysCloseEndpoint(core, tid, int(r.Uint64n(40))-4)
		}
		// The init thread may have blocked on a junk-but-valid recv;
		// unblock the trace by waking it through a partner when needed.
		if th := k.PM.Thrd(init); th.State == pm.ThreadBlockedSend || th.State == pm.ThreadBlockedRecv {
			k.unblockForTest(init)
		}
	}
	// The kernel survived; the root container is still sane.
	root := k.PM.Cntr(k.PM.RootContainer)
	if root.UsedPages > root.QuotaPages {
		t.Fatal("junk trace corrupted quota accounting")
	}
}

// TestMunmapShootsDownAllTLBs: the §4.2 consistency requirement — after
// an unmap completes, no core's TLB may still translate the address.
func TestMunmapShootsDownAllTLBs(t *testing.T) {
	k, init := boot(t)
	mustOK(t, k.SysMmap(0, init, 0x400000, 1, hw.Size4K, pt.RW))
	proc := k.PM.Proc(k.PM.Thrd(init).OwningProc)
	cr3 := proc.PageTable.CR3()
	// Warm every core's TLB with the translation, as concurrent threads
	// of the process would.
	tr, okW := k.Machine.MMU.Walk(cr3, 0x400000)
	if !okW {
		t.Fatal("walk failed")
	}
	for c := 0; c < k.Machine.NumCores(); c++ {
		k.Machine.Core(c).TLB.Insert(cr3, 0x400000, tr)
		if _, hit := k.Machine.Core(c).TLB.Lookup(cr3, 0x400000); !hit {
			t.Fatalf("core %d TLB warmup failed", c)
		}
	}
	cyclesBefore := k.Machine.Core(0).Clock.Cycles()
	mustOK(t, k.SysMunmap(0, init, 0x400000, 1, hw.Size4K))
	for c := 0; c < k.Machine.NumCores(); c++ {
		if _, hit := k.Machine.Core(c).TLB.Lookup(cr3, 0x400000); hit {
			t.Fatalf("core %d TLB still translates after munmap", c)
		}
	}
	// The shootdown IPIs were charged to the initiating core.
	if k.Machine.Core(0).Clock.Cycles()-cyclesBefore < hw.CostInvlpg*uint64(k.Machine.NumCores()-1) {
		t.Fatal("remote shootdowns not charged")
	}
}

// unblockForTest force-wakes a blocked thread, unlinking it from its
// endpoint queue and dropping any in-flight message references (the
// simulation has no timer to time out a rendezvous).
func (k *Kernel) unblockForTest(tid pm.Ptr) {
	k.big.Lock()
	defer k.big.Unlock()
	t, okk := k.PM.TryThrd(tid)
	if !okk || (t.State != pm.ThreadBlockedSend && t.State != pm.ThreadBlockedRecv) {
		return
	}
	k.unlinkFromEndpoint(tid, t)
	k.PM.Wake(tid, ErrEndpointDead)
}
