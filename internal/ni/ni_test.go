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

// build assembles A/B/V: two clients plus V.
func build(t *testing.T) (s *Scenario, a, b Domain) {
	t.Helper()
	s, err := Build(2, true)
	if err != nil {
		t.Fatal(err)
	}
	return s, s.Clients[0], s.Clients[1]
}

// fuzz runs steps fuzzed transitions over a fresh scenario of n clients,
// plus V when withV is set.
func fuzz(t *testing.T, n int, withV bool, seed uint64, steps int) *Fuzzer {
	t.Helper()
	s, err := Build(n, withV)
	if err != nil {
		t.Fatal(err)
	}
	f := NewFuzzer(s, seed)
	if err := f.Run(steps); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestScenarioShape(t *testing.T) {
	s, a, b := build(t)
	if err := verify.TotalWF(s.K); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckIsolation(); err != nil {
		t.Fatal(err)
	}
	if s.DomainOf(a.Thread) != "A" || s.DomainOf(b.Thread) != "B" || s.DomainOf(s.V.Thread) != "V" {
		t.Fatal("domain attribution wrong")
	}
	// A and B share no endpoint; both share one with V, in slots 0 and 1.
	ta, tb, tv := s.K.PM.Thrd(a.Thread), s.K.PM.Thrd(b.Thread), s.K.PM.Thrd(s.V.Thread)
	if ta.Endpoints[0] != tv.Endpoints[0] || ta.Endpoints[0] != a.Endpoint {
		t.Fatal("A-V endpoint not shared")
	}
	if tb.Endpoints[1] != tv.Endpoints[1] || tb.Endpoints[1] != b.Endpoint {
		t.Fatal("B-V endpoint not shared")
	}
}

func TestMemoryIsoDetectsSharing(t *testing.T) {
	s, a, b := build(t)
	// Map a page in A, then forcibly map the same frame into B's table
	// (bypassing the kernel): memory_iso must fire.
	r := s.K.SysMmap(a.Core, a.Thread, 0x10000, 1, hw.Size4K, pt.RW)
	if r.Errno != kernel.OK {
		t.Fatal(r.Errno)
	}
	e, _ := s.K.PM.Proc(a.Proc).PageTable.Lookup(0x10000)
	if err := MemoryIso(s.K, a.Cntr, b.Cntr); err != nil {
		t.Fatal(err)
	}
	if err := s.K.PM.Proc(b.Proc).PageTable.Map4K(0x10000, e.Phys, pt.RW); err != nil {
		t.Fatal(err)
	}
	if err := MemoryIso(s.K, a.Cntr, b.Cntr); err == nil {
		t.Fatal("forced shared frame not detected")
	}
}

func TestEndpointIsoDetectsSharing(t *testing.T) {
	s, a, b := build(t)
	if err := EndpointIso(s.K, a.Cntr, b.Cntr); err != nil {
		t.Fatal(err)
	}
	// Forcibly install A's service endpoint into B.
	s.K.PM.Thrd(b.Thread).Endpoints[7] = a.Endpoint
	s.K.PM.EndpointIncRef(a.Endpoint, 1)
	if err := EndpointIso(s.K, a.Cntr, b.Cntr); err == nil {
		t.Fatal("forced shared endpoint not detected")
	}
}

func TestServiceRoundTrip(t *testing.T) {
	s, a, _ := build(t)
	v := NewService(s)
	// V posts a receive on A's channel.
	if err := v.Step(); err != nil {
		t.Fatal(err)
	}
	// A maps a page, writes a request, calls V.
	if r := s.K.SysMmap(a.Core, a.Thread, 0x40000, 1, hw.Size4K, pt.RW); r.Errno != kernel.OK {
		t.Fatal(r.Errno)
	}
	procA := s.K.PM.Proc(a.Proc)
	s.K.Machine.MMU.Store(procA.PageTable.CR3(), 0x40000, []byte{41, 0, 0, 0, 0, 0, 0, 0})
	if r := s.K.SysCall(a.Core, a.Thread, 0, kernel.SendArgs{
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
	ta := s.K.PM.Thrd(a.Thread)
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
	s, a, _ := build(t)
	v := NewService(s)
	if err := v.Step(); err != nil { // V waits on A
		t.Fatal(err)
	}
	if r := s.K.SysMmap(a.Core, a.Thread, 0x40000, 1, hw.Size4K, pt.RW); r.Errno != kernel.OK {
		t.Fatal(r.Errno)
	}
	if r := s.K.SysCall(a.Core, a.Thread, 0, kernel.SendArgs{
		SendPage: true, PageVA: 0x40000}); r.Errno != kernel.EWOULDBLOCK {
		t.Fatalf("call: %v", r.Errno)
	}
	// A dies before V handles the request.
	if r := s.K.SysKillContainer(0, s.Init, a.Cntr); r.Errno != kernel.OK {
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
	s, a, b := build(t)
	if r := s.K.SysKillContainer(a.Core, a.Thread, b.Cntr); r.Errno != kernel.EPERM {
		t.Fatalf("A killing B: %v", r.Errno)
	}
	if r := s.K.SysKillContainer(b.Core, b.Thread, a.Cntr); r.Errno != kernel.EPERM {
		t.Fatalf("B killing A: %v", r.Errno)
	}
}

func TestStepConsistencyFuzz(t *testing.T) {
	f := fuzz(t, 2, true, 4242, 500)
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
	f := fuzz(t, 2, true, 777, 300)
	replay, err := f.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if eq, diff := TracesEqual(f.Trace, replay); !eq {
		t.Fatalf("output consistency violated: %s", diff)
	}
	// Different seeds diverge (the comparison is not vacuous).
	if eq, _ := TracesEqual(f.Trace, fuzz(t, 2, true, 778, 300).Trace); eq {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestObserveDetectsContentChange(t *testing.T) {
	s, _, b := build(t)
	if r := s.K.SysMmap(b.Core, b.Thread, 0x50000, 1, hw.Size4K, pt.RW); r.Errno != kernel.OK {
		t.Fatal(r.Errno)
	}
	before := Observe(s.K, b.Cntr)
	procB := s.K.PM.Proc(b.Proc)
	s.K.Machine.MMU.Store(procB.PageTable.CR3(), 0x50000, []byte{1})
	after := Observe(s.K, b.Cntr)
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
	s, a, _ := build(t)
	r := s.K.SysNewContainer(a.Core, a.Thread, 10, []int{a.Core})
	if r.Errno != kernel.OK {
		t.Fatal(r.Errno)
	}
	child := pm.Ptr(r.Vals[0])
	rp := s.K.SysNewProcessIn(a.Core, a.Thread, child)
	if rp.Errno != kernel.OK {
		t.Fatal(rp.Errno)
	}
	rt := s.K.SysNewThreadIn(a.Core, a.Thread, pm.Ptr(rp.Vals[0]), a.Core)
	if rt.Errno != kernel.OK {
		t.Fatal(rt.Errno)
	}
	if s.DomainOf(pm.Ptr(rt.Vals[0])) != "A" {
		t.Fatal("nested thread not attributed to A")
	}
}

// TestMultiDomainIsolation runs the Fuzzer over five clients without V:
// every pair stays isolated and step consistent.
func TestMultiDomainIsolation(t *testing.T) {
	f := fuzz(t, 5, false, 606, 400)
	if len(f.SCViolations) > 0 {
		t.Fatalf("step consistency violated across %d clients:\n%s",
			len(f.S.Clients), f.SCViolations[0])
	}
	executed := 0
	for _, rec := range f.Trace {
		if rec.Op != "stalled" {
			executed++
		}
	}
	if executed < 300 {
		t.Fatalf("only %d steps executed", executed)
	}
	if err := verify.TotalWF(f.S.K); err != nil {
		t.Fatal(err)
	}
}

func TestMultiDomainRejectsDegenerate(t *testing.T) {
	if _, err := Build(1, false); err == nil {
		t.Fatal("single-client scenario accepted")
	}
}

func TestMultiDomainDetectsForcedSharing(t *testing.T) {
	s, err := Build(3, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CheckIsolation(); err != nil {
		t.Fatal(err)
	}
	// Forcibly map one frame into two clients: pairwise iso must fire.
	c0, c2 := s.Clients[0], s.Clients[2]
	if r := s.K.SysMmap(c0.Core, c0.Thread, 0x10000000, 1, hw.Size4K, pt.RW); r.Errno != kernel.OK {
		t.Fatal(r.Errno)
	}
	e, _ := s.K.PM.Proc(c0.Proc).PageTable.Lookup(0x10000000)
	if err := s.K.PM.Proc(c2.Proc).PageTable.Map4K(0x10000000, e.Phys, pt.RW); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckIsolation(); err == nil {
		t.Fatal("forced cross-client frame not detected")
	}
}

// TestServiceKeepsServing pins V's handled count at atmo-ni's default
// seed and length as a floor. Before a client's first thread kept its
// channel to V (randomSyscall's rule), V handled 4 requests here, the
// last at step 71: its receive then waited for the rest of the run on
// A's channel, whose descriptor A had closed.
func TestServiceKeepsServing(t *testing.T) {
	f := fuzz(t, 2, true, 1, 2000)
	if f.V.Handled < 35 {
		t.Fatalf("V handled %d requests in 2000 steps, want at least 35", f.V.Handled)
	}
}
