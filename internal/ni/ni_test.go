package ni

import (
	"hash/fnv"
	"strings"
	"testing"

	"atmosphere/internal/hw"
	"atmosphere/internal/kernel"
	"atmosphere/internal/pm"
	"atmosphere/internal/pt"
	"atmosphere/internal/verify"
)

func build(t *testing.T) *Scenario {
	t.Helper()
	s, err := Build(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestScenarioShape(t *testing.T) {
	s := build(t)
	if err := verify.TotalWF(s.K); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckIsolation(); err != nil {
		t.Fatal(err)
	}
	if s.DomainOf(s.TA) != "A" || s.DomainOf(s.TB) != "B" || s.DomainOf(s.TV) != "V" {
		t.Fatal("domain attribution wrong")
	}
	// A and B share no endpoint; both share one with V.
	ta, tb, tv := s.K.PM.Thrd(s.TA), s.K.PM.Thrd(s.TB), s.K.PM.Thrd(s.TV)
	if ta.Endpoints[s.SlotAV] != tv.Endpoints[s.SlotAV] {
		t.Fatal("A-V endpoint not shared")
	}
	if tb.Endpoints[s.SlotBV] != tv.Endpoints[s.SlotBV] {
		t.Fatal("B-V endpoint not shared")
	}
}

func TestMemoryIsoDetectsSharing(t *testing.T) {
	s := build(t)
	// Map a page in A, then forcibly map the same frame into B's table
	// (bypassing the kernel): memory_iso must fire.
	r := s.K.SysMmap(1, s.TA, 0x10000, 1, hw.Size4K, pt.RW)
	if r.Errno != kernel.OK {
		t.Fatal(r.Errno)
	}
	e, _ := s.K.PM.Proc(s.PA).PageTable.Lookup(0x10000)
	if err := MemoryIso(s.K, s.A, s.B); err != nil {
		t.Fatal(err)
	}
	if err := s.K.PM.Proc(s.PB).PageTable.Map4K(0x10000, e.Phys, pt.RW); err != nil {
		t.Fatal(err)
	}
	if err := MemoryIso(s.K, s.A, s.B); err == nil {
		t.Fatal("forced shared frame not detected")
	}
}

func TestEndpointIsoDetectsSharing(t *testing.T) {
	s := build(t)
	if err := EndpointIso(s.K, s.A, s.B); err != nil {
		t.Fatal(err)
	}
	// Forcibly install A's service endpoint into B.
	s.K.PM.Thrd(s.TB).Endpoints[7] = s.EpAV
	s.K.PM.EndpointIncRef(s.EpAV, 1)
	if err := EndpointIso(s.K, s.A, s.B); err == nil {
		t.Fatal("forced shared endpoint not detected")
	}
}

func TestServiceRoundTrip(t *testing.T) {
	s := build(t)
	v := NewService(s)
	// V posts a receive on A's channel.
	if err := v.Step(); err != nil {
		t.Fatal(err)
	}
	// A maps a page, writes a request, calls V.
	if r := s.K.SysMmap(1, s.TA, 0x40000, 1, hw.Size4K, pt.RW); r.Errno != kernel.OK {
		t.Fatal(r.Errno)
	}
	procA := s.K.PM.Proc(s.PA)
	s.K.Machine.MMU.Store(procA.PageTable.CR3(), 0x40000, []byte{41, 0, 0, 0, 0, 0, 0, 0})
	if r := s.K.SysCall(1, s.TA, s.SlotAV, kernel.SendArgs{
		Regs: [4]uint64{7}, SendPage: true, PageVA: 0x40000}); r.Errno != kernel.EWOULDBLOCK {
		t.Fatalf("call: %v", r.Errno)
	}
	// V handles: respond in page, reply, release.
	if err := v.Step(); err != nil {
		t.Fatal(err)
	}
	if v.Handled != 1 || v.Released != 1 {
		t.Fatalf("handled=%d released=%d", v.Handled, v.Released)
	}
	// A got the reply and sees the response in its shared page.
	ta := s.K.PM.Thrd(s.TA)
	if ta.IPC.Msg.Regs[0] != 8 {
		t.Fatalf("reply regs = %v", ta.IPC.Msg.Regs)
	}
	resp, ok := s.K.Machine.MMU.Load(procA.PageTable.CR3(), 0x40008, 8)
	if !ok || resp[0] != 42 {
		t.Fatalf("response in shared page = %v ok=%v", resp, ok)
	}
	if err := v.CheckCorrectness(); err != nil {
		t.Fatal(err)
	}
	if err := verify.TotalWF(s.K); err != nil {
		t.Fatal(err)
	}
}

func TestServiceReleasesOnClientDeath(t *testing.T) {
	s := build(t)
	v := NewService(s)
	if err := v.Step(); err != nil { // V waits on A
		t.Fatal(err)
	}
	if r := s.K.SysMmap(1, s.TA, 0x40000, 1, hw.Size4K, pt.RW); r.Errno != kernel.OK {
		t.Fatal(r.Errno)
	}
	if r := s.K.SysCall(1, s.TA, s.SlotAV, kernel.SendArgs{
		SendPage: true, PageVA: 0x40000}); r.Errno != kernel.EWOULDBLOCK {
		t.Fatalf("call: %v", r.Errno)
	}
	// A dies before V handles the request.
	if r := s.K.SysKillContainer(0, s.Init, s.A); r.Errno != kernel.OK {
		t.Fatalf("kill: %v", r.Errno)
	}
	// V still handles and releases the page (its mapping holds the last
	// reference), then returns to baseline.
	if err := v.Step(); err != nil {
		t.Fatal(err)
	}
	if v.Released != 1 {
		t.Fatalf("released = %d", v.Released)
	}
	if err := v.CheckCorrectness(); err != nil {
		t.Fatal(err)
	}
	if err := verify.TotalWF(s.K); err != nil {
		t.Fatal(err)
	}
}

func TestPeerKillDenied(t *testing.T) {
	s := build(t)
	if r := s.K.SysKillContainer(1, s.TA, s.B); r.Errno != kernel.EPERM {
		t.Fatalf("A killing B: %v", r.Errno)
	}
	if r := s.K.SysKillContainer(2, s.TB, s.A); r.Errno != kernel.EPERM {
		t.Fatalf("B killing A: %v", r.Errno)
	}
}

func TestStepConsistencyFuzz(t *testing.T) {
	f, err := NewFuzzer(4242)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Run(500); err != nil {
		t.Fatal(err)
	}
	if len(f.SCViolations) > 0 {
		t.Fatalf("step consistency violated:\n%s", strings.Join(f.SCViolations, "\n"))
	}
	if err := verify.TotalWF(f.S.K); err != nil {
		t.Fatal(err)
	}
	// The trace must contain real activity from both domains.
	acted := map[string]int{}
	for _, rec := range f.Trace {
		acted[rec.Domain]++
	}
	if acted["A"] < 50 || acted["B"] < 50 {
		t.Fatalf("fuzz activity too low: %v", acted)
	}
}

func TestOutputConsistency(t *testing.T) {
	t1, err := ReplayTrace(777, 300)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := ReplayTrace(777, 300)
	if err != nil {
		t.Fatal(err)
	}
	if eq, diff := TracesEqual(t1, t2); !eq {
		t.Fatalf("output consistency violated: %s", diff)
	}
	// Different seeds diverge (the comparison is not vacuous).
	t3, err := ReplayTrace(778, 300)
	if err != nil {
		t.Fatal(err)
	}
	if eq, _ := TracesEqual(t1, t3); eq {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestObserveDetectsContentChange(t *testing.T) {
	s := build(t)
	if r := s.K.SysMmap(2, s.TB, 0x50000, 1, hw.Size4K, pt.RW); r.Errno != kernel.OK {
		t.Fatal(r.Errno)
	}
	before := Observe(s.K, s.B)
	procB := s.K.PM.Proc(s.PB)
	s.K.Machine.MMU.Store(procB.PageTable.CR3(), 0x50000, []byte{1})
	after := Observe(s.K, s.B)
	if eq, _ := ViewEqual(before, after); eq {
		t.Fatal("page content change invisible to Observe")
	}
}

// TestPageHashSuperpage: a 2 MiB mapping hashes its 16 KiB prefix frame
// by frame, to the same FNV value as one pass over the bytes Read
// returns, and sees writes on both sides of a frame boundary.
func TestPageHashSuperpage(t *testing.T) {
	k, init, err := kernel.Boot(hw.Config{Frames: 2048, Cores: 1, TLBSlots: 64})
	if err != nil {
		t.Fatal(err)
	}
	const va = 0x40000000
	if r := k.SysMmap(0, init, va, 1, hw.Size2M, pt.RW); r.Errno != kernel.OK {
		t.Fatal(r.Errno)
	}
	table := k.PM.Proc(k.PM.Thrd(init).OwningProc).PageTable
	e, ok := table.Lookup(va)
	if !ok || e.Size != hw.Size2M {
		t.Fatalf("no 2 MiB mapping at %#x: %+v", va, e)
	}
	blank := pageHash(k, e.Phys, hw.Size2M)
	if !k.Machine.MMU.Store(table.CR3(), va+2*hw.PageSize4K-3, []byte{1, 2, 3, 4, 5, 6}) {
		t.Fatal("store across the frame boundary failed")
	}
	got := pageHash(k, e.Phys, hw.Size2M)
	want := fnv.New64a()
	want.Write(k.Machine.Mem.Read(e.Phys, 4*hw.PageSize4K))
	if got != want.Sum64() {
		t.Fatalf("pageHash = %#x, FNV over Read = %#x", got, want.Sum64())
	}
	if got == blank {
		t.Fatal("pageHash missed a write across a frame boundary")
	}
}

func TestDomainOfNestedContainers(t *testing.T) {
	s := build(t)
	r := s.K.SysNewContainer(1, s.TA, 10, []int{1})
	if r.Errno != kernel.OK {
		t.Fatal(r.Errno)
	}
	child := pm.Ptr(r.Vals[0])
	rp := s.K.SysNewProcessIn(1, s.TA, child)
	if rp.Errno != kernel.OK {
		t.Fatal(rp.Errno)
	}
	rt := s.K.SysNewThreadIn(1, s.TA, pm.Ptr(rp.Vals[0]), 1)
	if rt.Errno != kernel.OK {
		t.Fatal(rt.Errno)
	}
	if s.DomainOf(pm.Ptr(rt.Vals[0])) != "A" {
		t.Fatal("nested thread not attributed to A")
	}
}

func TestMultiDomainIsolation(t *testing.T) {
	m, err := BuildMulti(5, 256)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.CheckPairwiseIsolation(); err != nil {
		t.Fatal(err)
	}
	violations, executed, err := m.FuzzSC(606, 400)
	if err != nil {
		t.Fatal(err)
	}
	if len(violations) > 0 {
		t.Fatalf("step consistency violated across %d domains:\n%s",
			len(m.Domains), violations[0])
	}
	if executed < 300 {
		t.Fatalf("only %d steps executed", executed)
	}
	if err := verify.TotalWF(m.K); err != nil {
		t.Fatal(err)
	}
}

func TestMultiDomainRejectsDegenerate(t *testing.T) {
	if _, err := BuildMulti(1, 64); err == nil {
		t.Fatal("single-domain scenario accepted")
	}
}

func TestMultiDomainDetectsForcedSharing(t *testing.T) {
	m, err := BuildMulti(3, 128)
	if err != nil {
		t.Fatal(err)
	}
	// Forcibly map one frame into two domains: pairwise iso must fire.
	if r := m.K.SysMmap(m.Cores[0], m.Threads[0], 0x10000000, 1, hw.Size4K, pt.RW); r.Errno != kernel.OK {
		t.Fatal(r.Errno)
	}
	e, _ := m.K.PM.Proc(m.Procs[0]).PageTable.Lookup(0x10000000)
	if err := m.K.PM.Proc(m.Procs[2]).PageTable.Map4K(0x10000000, e.Phys, pt.RW); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckPairwiseIsolation(); err == nil {
		t.Fatal("forced cross-domain frame not detected")
	}
}
