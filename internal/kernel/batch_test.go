package kernel

import (
	"testing"

	"atmosphere/internal/hw"
	"atmosphere/internal/obs/account"
	"atmosphere/internal/pm"
	"atmosphere/internal/pt"
	"atmosphere/internal/shmring"
)

// scratchRings builds a submission/completion ring pair in scratch
// physical memory, charged to core's clock — the same arrangement the
// model checker uses to drive SysBatchRings directly.
func scratchRings(k *Kernel, core int) (*shmring.Ring, *shmring.Ring) {
	mem := hw.NewPhysMem(2)
	clk := &k.Machine.Core(core).Clock
	sq := shmring.New(mem, clk, 0, shmring.SlotsPerPage())
	cq := shmring.New(mem, clk, hw.PageSize4K, shmring.SlotsPerPage())
	return sq, cq
}

func encodeOps(t *testing.T, sq *shmring.Ring, bops [][5]uint64) {
	t.Helper()
	for i, b := range bops {
		if err := shmring.EncodeSQE(sq, uint8(b[0]), 0, uint16(i), b[1], b[2], b[3], b[4]); err != nil {
			t.Fatalf("encode %d: %v", i, err)
		}
	}
}

func popCQEs(t *testing.T, cq *shmring.Ring, n int) []shmring.CQE {
	t.Helper()
	out := make([]shmring.CQE, 0, n)
	for i := 0; i < n; i++ {
		c, err := shmring.PopCQE(cq)
		if err != nil {
			t.Fatalf("pop cqe %d: %v", i, err)
		}
		out = append(out, c)
	}
	if _, err := shmring.PopCQE(cq); err != shmring.ErrEmpty {
		t.Fatalf("extra completions after %d", n)
	}
	return out
}

// TestBatchDrainsOps drives a whole mixed batch through one doorbell:
// every op completes with its own CQE, state lands as if the syscalls
// had been issued individually, and the entry/exit trampoline is paid
// once (the amortization the bench pins numerically).
func TestBatchDrainsOps(t *testing.T) {
	k, init := boot(t)
	sq, cq := scratchRings(k, 0)
	encodeOps(t, sq, [][5]uint64{
		{BopNop, 0, 0, 0, 0},
		{BopMmap, 0x400000, 3, 0, 0},
		{BopMunmap, 0x401000, 1, 0, 0},
		{BopNop, 0, 0, 0, 0},
	})
	r := k.SysBatchRings(0, init, sq, cq, 0)
	if r.Errno != OK || r.Vals[0] != 4 {
		t.Fatalf("batch: errno=%v drained=%d", r.Errno, r.Vals[0])
	}
	for i, c := range popCQEs(t, cq, 4) {
		if Errno(c.Errno) != OK {
			t.Fatalf("cqe %d: errno %v", i, Errno(c.Errno))
		}
		if int(c.Token) != i {
			t.Fatalf("cqe %d: token %d", i, c.Token)
		}
	}
	pt1, ok := k.PM.Proc(k.PM.Thrd(init).OwningProc).PageTable.Lookup(0x400000)
	if !ok || pt1.Size != hw.Size4K {
		t.Fatal("batched mmap did not land")
	}
	if _, ok := k.PM.Proc(k.PM.Thrd(init).OwningProc).PageTable.Lookup(0x401000); ok {
		t.Fatal("batched munmap did not land")
	}
}

// TestBatchStopsOnBlock checks the drain-stop rule: an op that blocks
// the caller ends the drain; later submissions stay queued for the next
// doorbell and complete then.
func TestBatchStopsOnBlock(t *testing.T) {
	k, init := boot(t)
	mustOK(t, k.SysNewEndpoint(0, init, 0))
	sq, cq := scratchRings(k, 0)
	encodeOps(t, sq, [][5]uint64{
		{BopNop, 0, 0, 0, 0},
		{BopRecv, 0, 0, 0, 0}, // nothing queued: blocks the caller
		{BopNop, 0, 0, 0, 0},  // must NOT run this doorbell
	})
	r := k.SysBatchRings(0, init, sq, cq, 0)
	if r.Errno != OK || r.Vals[0] != 2 {
		t.Fatalf("batch: errno=%v drained=%d, want 2", r.Errno, r.Vals[0])
	}
	cqes := popCQEs(t, cq, 2)
	if Errno(cqes[1].Errno) != EWOULDBLOCK {
		t.Fatalf("blocking recv cqe errno = %v", Errno(cqes[1].Errno))
	}
	if k.PM.Thrd(init).State != pm.ThreadBlockedRecv {
		t.Fatalf("caller state = %v, want blocked recv", k.PM.Thrd(init).State)
	}
	if sq.Len() == 0 {
		t.Fatal("trailing submission was consumed past the block")
	}
	// A second doorbell while still blocked refuses entry outright.
	if r := k.SysBatchRings(0, init, sq, cq, 0); r.Errno != EINVAL {
		t.Fatalf("doorbell while blocked: %v, want EINVAL", r.Errno)
	}
}

// TestBatchMalformedAborts: a malformed header aborts the batch with
// EINVAL after consuming the bad header; prior ops keep their CQEs.
func TestBatchMalformedAborts(t *testing.T) {
	k, init := boot(t)
	sq, cq := scratchRings(k, 0)
	encodeOps(t, sq, [][5]uint64{{BopNop, 0, 0, 0, 0}})
	if err := sq.Push(shmring.Entry{W0: 0xDEAD, W1: 0}); err != nil { // bad magic
		t.Fatal(err)
	}
	encodeOps(t, sq, [][5]uint64{{BopNop, 0, 0, 0, 0}})
	r := k.SysBatchRings(0, init, sq, cq, 0)
	if r.Errno != EINVAL || r.Vals[0] != 1 {
		t.Fatalf("batch: errno=%v drained=%d, want EINVAL/1", r.Errno, r.Vals[0])
	}
	popCQEs(t, cq, 1)
	// The frame after the consumed bad header is intact.
	if r := k.SysBatchRings(0, init, sq, cq, 0); r.Errno != OK || r.Vals[0] != 1 {
		t.Fatalf("re-doorbell: errno=%v drained=%d", r.Errno, r.Vals[0])
	}
}

// TestSysBatchRingPageValidation: the doorbell rejects unmapped,
// misaligned, and aliased ring pages.
func TestSysBatchRingPageValidation(t *testing.T) {
	k, init := boot(t)
	mustOK(t, k.SysMmap(0, init, 0x500000, 2, hw.Size4K, pt.RW))
	for _, tc := range []struct {
		name       string
		sqVA, cqVA hw.VirtAddr
	}{
		{"unmapped", 0x700000, 0x501000},
		{"misaligned", 0x500010, 0x501000},
		{"aliased", 0x500000, 0x500000},
	} {
		if r := k.SysBatch(0, init, tc.sqVA, tc.cqVA, 0); r.Errno != EINVAL {
			t.Errorf("%s: errno %v, want EINVAL", tc.name, r.Errno)
		}
	}
	// And the happy path over real user memory.
	if r := k.SysBatch(0, init, 0x500000, 0x501000, 0); r.Errno != OK || r.Vals[0] != 0 {
		t.Fatalf("valid rings, stale doorbell: errno=%v drained=%d", r.Errno, r.Vals[0])
	}
}

// bootGrantPair boots a ledgered kernel with a second container A whose
// thread tidA has one page mapped at 0x400000 and shares a root-owned
// endpoint in slot 0 (both sides).
func bootGrantPair(t *testing.T) (*Kernel, pm.Ptr, pm.Ptr, *account.Ledger) {
	t.Helper()
	k, init, l := bootLedger(t)
	rA := mustOK(t, k.SysNewContainer(0, init, 60, []int{0}))
	a := pm.Ptr(rA.Vals[0])
	l.NameContainer(a, "A")
	rp := mustOK(t, k.SysNewProcessIn(0, init, a))
	rt := mustOK(t, k.SysNewThreadIn(0, init, pm.Ptr(rp.Vals[0]), 0))
	tidA := pm.Ptr(rt.Vals[0])
	mustOK(t, k.SysMmap(0, tidA, 0x400000, 1, hw.Size4K, pt.RW))
	re := mustOK(t, k.SysNewEndpoint(0, init, 0))
	ep := pm.Ptr(re.Vals[0])
	k.PM.Thrd(tidA).Endpoints[0] = ep
	k.PM.EndpointIncRef(ep, 1)
	return k, init, tidA, l
}

// TestGrantTransferMidBatchAudit walks one zero-copy grant through its
// three ownership states — sender, InFlight, receiver — auditing the
// ledger closure at each fault point. The grant rides a batch, so the
// mid-flight state is exactly "the batch returned, nobody received
// yet": sender's mapping revoked and quota credited, the page parked on
// the InFlight pseudo-container.
func TestGrantTransferMidBatchAudit(t *testing.T) {
	k, _, tidA, l := bootGrantPair(t)
	aCntr := k.PM.Proc(k.PM.Thrd(tidA).OwningProc).Owner
	pagesBefore := l.ContainerPages(aCntr)
	usedBefore := k.PM.Cntr(aCntr).UsedPages

	// Fault point 1: grant submitted and buffered, receiver absent.
	sq, cq := scratchRings(k, 0)
	encodeOps(t, sq, [][5]uint64{{BopSendAsync, 0, 7, 9, 0x400000}})
	r := k.SysBatchRings(0, tidA, sq, cq, 0)
	if r.Errno != OK || r.Vals[0] != 1 {
		t.Fatalf("batch: errno=%v drained=%d", r.Errno, r.Vals[0])
	}
	if e := Errno(popCQEs(t, cq, 1)[0].Errno); e != OK {
		t.Fatalf("grant cqe errno = %v", e)
	}
	if _, ok := k.PM.Proc(k.PM.Thrd(tidA).OwningProc).PageTable.Lookup(0x400000); ok {
		t.Fatal("sender kept its mapping after the grant")
	}
	if got := k.PM.Cntr(aCntr).UsedPages; got != usedBefore-1 {
		t.Fatalf("sender used_pages = %d, want %d (credited at send)", got, usedBefore-1)
	}
	if got := l.ContainerPages(account.InFlight); got != 1 {
		t.Fatalf("in-flight pages mid-batch = %d, want 1", got)
	}
	if got := l.ContainerPages(aCntr); got != pagesBefore-1 {
		t.Fatalf("sender ledger pages mid-batch = %d, want %d", got, pagesBefore-1)
	}
	auditOK(t, l)

	// Fault point 2: the receiver drains; InFlight drops to zero and the
	// page lands on root.
	rootBefore := l.ContainerPages(k.PM.RootContainer)
	mustOK(t, k.SysRecv(0, initOf(k), 0, RecvArgs{PageVA: 0x7000, EdptSlot: -1}))
	if got := l.ContainerPages(account.InFlight); got != 0 {
		t.Fatalf("in-flight pages after drain = %d, want 0", got)
	}
	if got := l.ContainerPages(k.PM.RootContainer); got <= rootBefore {
		t.Fatalf("root pages did not grow on delivery: %d -> %d", rootBefore, got)
	}
	if e, ok := k.PM.Proc(k.PM.Thrd(initOf(k)).OwningProc).PageTable.Lookup(0x7000); !ok || e.Size != hw.Size4K {
		t.Fatal("granted page not mapped at the receiver's landing va")
	}
	auditOK(t, l)
}

// initOf recovers the boot thread (core 0's running thread at boot keeps
// the lowest thread pointer, which is stable across these tests).
func initOf(k *Kernel) pm.Ptr {
	var init pm.Ptr
	for p := range k.PM.ThrdPerms {
		if init == 0 || p < init {
			init = p
		}
	}
	return init
}

// TestGrantBufferedDropOnEndpointDeath parks a granted page in an
// endpoint buffer, then drops the endpoint's last descriptor: the
// buffered message dies with the endpoint and the InFlight reference
// drains without leaking.
func TestGrantBufferedDropOnEndpointDeath(t *testing.T) {
	k, init, tidA, l := bootGrantPair(t)
	mustOK(t, k.SysSendAsync(0, tidA, 0, SendArgs{GrantPage: true, PageVA: 0x400000}))
	if got := l.ContainerPages(account.InFlight); got != 1 {
		t.Fatalf("in-flight pages = %d, want 1", got)
	}
	auditOK(t, l)
	// Drop both descriptors; the second close frees the endpoint with
	// the message still buffered.
	mustOK(t, k.SysCloseEndpoint(0, init, 0))
	k.PM.Thrd(tidA).Endpoints[0] = pm.NoEndpoint
	ep := pm.Ptr(0)
	for p := range k.PM.EdptPerms {
		ep = p
	}
	if err := k.PM.EndpointDecRef(ep); err != nil {
		t.Fatalf("final decref: %v", err)
	}
	if got := l.ContainerPages(account.InFlight); got != 0 {
		t.Fatalf("in-flight pages after endpoint death = %d, want 0", got)
	}
	if got := l.Anomalies(); got != 0 {
		t.Fatalf("anomalies = %d, want 0", got)
	}
	auditOK(t, l)
}

// TestGrantDoubleGrantSignature pins the planted double-grant bug's
// shape (MutantGrantLeak): the sender keeps its mapping while the
// message also holds a reference — two owners for one page. The mck
// differential oracle must catch this divergence (TestGrantLeakCaught);
// here we pin the concrete signature the oracle keys on.
func TestGrantDoubleGrantSignature(t *testing.T) {
	k, _, tidA, l := bootGrantPair(t)
	usedBefore := k.PM.Cntr(k.PM.Proc(k.PM.Thrd(tidA).OwningProc).Owner).UsedPages
	k.SetMutantForTest(MutantGrantLeak)
	mustOK(t, k.SysSendAsync(0, tidA, 0, SendArgs{GrantPage: true, PageVA: 0x400000}))
	e, ok := k.PM.Proc(k.PM.Thrd(tidA).OwningProc).PageTable.Lookup(0x400000)
	if !ok {
		t.Fatal("leaky grant should keep the sender mapping")
	}
	rc, err := k.Alloc.RefCount(e.Phys)
	if err != nil {
		t.Fatal(err)
	}
	if rc != 2 {
		t.Fatalf("leaked page refcount = %d, want 2 (mapping + in-flight)", rc)
	}
	if got := k.PM.Cntr(k.PM.Proc(k.PM.Thrd(tidA).OwningProc).Owner).UsedPages; got != usedBefore {
		t.Fatalf("leaky grant credited the sender: used %d -> %d", usedBefore, got)
	}
	if got := l.ContainerPages(account.InFlight); got != 1 {
		t.Fatalf("in-flight pages = %d, want 1", got)
	}
}
