package ni

import (
	"fmt"
	"hash/fnv"
	"io"
	"sort"

	"atmosphere/internal/hw"
	"atmosphere/internal/kernel"
	"atmosphere/internal/pm"
	"atmosphere/internal/pt"
)

// The unwinding-condition checker (§4.3). A Fuzzer drives arbitrary
// system calls with arbitrary arguments from the clients' threads
// (interleaved with V's event loop, when the scenario has V) and
// validates:
//
//   SC  — after every step by one client, every other client's
//         observable state is bit-identical;
//   iso — memory_iso and endpoint_iso hold for every client pair after
//         every step;
//   OC  — replaying a seed reproduces every return value and every
//         observable state hash (the kernel is a function of its
//         pre-state; see TestOutputConsistency);
//   LR  — in this configuration local respect is subsumed by SC, as in
//         the paper.

// StepRecord is one fuzzed transition's observable outcome.
type StepRecord struct {
	Domain string // the acting client's name, or "V"
	Op     string
	Errno  kernel.Errno
	Val    uint64
	// Obs hashes every client's observable view after the step.
	Obs uint64
}

// Fuzzer drives a scenario.
type Fuzzer struct {
	S *Scenario
	V *Service // nil when S has no V
	R *hw.Rand

	// Trace records every step for output-consistency comparison.
	Trace []StepRecord

	// SCViolations collects step-consistency failures (empty on a
	// correct kernel).
	SCViolations []string

	seed uint64
	// Per client: the next fresh mapping address, the live user
	// mappings for munmap/send, and the killable child containers.
	vaNext   []uint64
	mapped   [][]hw.VirtAddr
	children [][]pm.Ptr
}

// NewFuzzer fuzzes s from a seed.
func NewFuzzer(s *Scenario, seed uint64) *Fuzzer {
	n := len(s.Clients)
	f := &Fuzzer{
		S: s, R: hw.NewRand(seed), seed: seed,
		vaNext:   make([]uint64, n),
		mapped:   make([][]hw.VirtAddr, n),
		children: make([][]pm.Ptr, n),
	}
	for i := range f.vaNext {
		f.vaNext[i] = 0x10000000 * uint64(i+1)
	}
	if s.V != nil {
		f.V = NewService(s)
	}
	return f
}

// runnableThreads returns the domain's threads able to issue syscalls,
// sorted for determinism.
func (f *Fuzzer) runnableThreads(cntr pm.Ptr) []pm.Ptr {
	var out []pm.Ptr
	for th := range f.S.K.PM.ThreadsOf(cntr) {
		t := f.S.K.PM.Thrd(th)
		if t.State == pm.ThreadRunnable || t.State == pm.ThreadRunning {
			out = append(out, th)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Step performs one fuzzed transition — each client is drawn twice as
// often as V — and applies the SC and isolation checks. It returns an
// error only for checker-internal failures and broken invariants; SC
// violations are collected in SCViolations.
func (f *Fuzzer) Step() error {
	n := len(f.S.Clients)
	draws := 2 * n
	if f.V != nil {
		draws++
	}
	if d := f.R.Intn(draws); d < 2*n {
		f.clientStep(d / 2)
	} else {
		if err := f.V.Step(); err != nil {
			return err
		}
		f.record("V", "service", kernel.Ret{}, f.views())
	}
	if f.V != nil {
		return f.V.CheckCorrectness() // isolation included: V never bridges its clients
	}
	return f.S.CheckIsolation()
}

// record appends a step to the trace; views are every client's
// observable views after it.
func (f *Fuzzer) record(domain, op string, ret kernel.Ret, views []string) {
	h := fnv.New64a()
	for _, v := range views {
		io.WriteString(h, v)
	}
	f.Trace = append(f.Trace, StepRecord{
		Domain: domain, Op: op, Errno: ret.Errno, Val: ret.Vals[0], Obs: h.Sum64(),
	})
}

// views renders every client's observable view.
func (f *Fuzzer) views() []string {
	out := make([]string, len(f.S.Clients))
	for i, c := range f.S.Clients {
		out[i] = Observe(f.S.K, c.Cntr)
	}
	return out
}

// clientStep performs one arbitrary syscall from a runnable thread of
// client i and checks every other client's observable state is
// untouched.
func (f *Fuzzer) clientStep(i int) {
	name := clientName(i)
	threads := f.runnableThreads(f.S.Clients[i].Cntr)
	if len(threads) == 0 {
		f.record(name, "stalled", kernel.Ret{}, f.views())
		return
	}
	tid := threads[f.R.Intn(len(threads))]
	before := make([]string, len(f.S.Clients))
	for j, c := range f.S.Clients {
		if j != i {
			before[j] = Observe(f.S.K, c.Cntr)
		}
	}
	op, ret := f.randomSyscall(i, tid)
	after := f.views()
	for j := range f.S.Clients {
		if j == i {
			continue
		}
		if eq, diff := ViewEqual(before[j], after[j]); !eq {
			f.SCViolations = append(f.SCViolations,
				fmt.Sprintf("SC violated: %s's %s changed %s's observable state: %s",
					name, op, clientName(j), diff))
		}
	}
	f.record(name, op, ret, after)
}

// randomSyscall issues one random syscall (possibly with invalid
// arguments — the theorem quantifies over arbitrary calls) from thread
// tid of client c. The client's channel to V, if any, is slot c.
//
// One rule bounds the arguments: a client's first thread, which holds
// its channel to V, is never stranded. The fuzzer never exits it, never
// closes its descriptor for V, and never has it send on any other
// endpoint, where no receiver ever comes (clients never receive). It can
// block only on V, and V answers, so no client stalls for good and V's
// blocking receive never waits for good on a client's channel.
func (f *Fuzzer) randomSyscall(c int, tid pm.Ptr) (string, kernel.Ret) {
	k, r := f.S.K, f.R
	me := f.S.Clients[c]
	cntr, core, first := me.Cntr, me.Core, tid == me.Thread
	// strands reports whether a send on slot would block the first
	// thread for good.
	strands := func(slot int) bool {
		ep := k.PM.Thrd(tid).Endpoints[slot]
		return first && ep != pm.NoEndpoint && ep != me.Endpoint
	}
	switch r.Intn(16) {
	case 0: // mmap fresh range
		count := 1 + r.Intn(3)
		va := hw.VirtAddr(f.vaNext[c])
		f.vaNext[c] += uint64(count+1) * hw.PageSize4K
		ret := k.SysMmap(core, tid, va, count, hw.Size4K, pt.RW)
		if ret.Errno == kernel.OK {
			for i := 0; i < count; i++ {
				f.mapped[c] = append(f.mapped[c], va+hw.VirtAddr(i)*hw.PageSize4K)
			}
		}
		return "mmap", ret
	case 1: // munmap a live mapping (or a bogus address)
		if m := f.mapped[c]; len(m) > 0 && r.Bool() {
			i := r.Intn(len(m))
			va := m[i]
			ret := k.SysMunmap(core, tid, va, 1, hw.Size4K)
			if ret.Errno == kernel.OK {
				f.mapped[c] = append(m[:i], m[i+1:]...)
			}
			return "munmap", ret
		}
		return "munmap", k.SysMunmap(core, tid, hw.VirtAddr(r.Uint64n(1<<32))&^0xfff, 1, hw.Size4K)
	case 2: // write into an own mapping (user-level step; must not affect the peer)
		if m := f.mapped[c]; len(m) > 0 {
			va := m[r.Intn(len(m))]
			proc := k.PM.Proc(k.PM.Thrd(tid).OwningProc)
			var buf [16]byte
			r.Bytes(buf[:])
			k.Machine.MMU.Store(proc.PageTable.CR3(), va, buf[:])
		}
		return "store", kernel.Ret{}
	case 3: // new child container
		ret := k.SysNewContainer(core, tid, uint64(4+r.Intn(12)), []int{core})
		if ret.Errno == kernel.OK {
			f.children[c] = append(f.children[c], pm.Ptr(ret.Vals[0]))
		}
		return "new_container", ret
	case 4: // kill a child container
		if ch := f.children[c]; len(ch) > 0 {
			i := r.Intn(len(ch))
			ret := k.SysKillContainer(core, tid, ch[i])
			if ret.Errno == kernel.OK {
				f.children[c] = append(ch[:i], ch[i+1:]...)
			}
			return "kill_container", ret
		}
		// Arbitrary kill attempt against the next client: must be denied.
		target := f.S.Clients[(c+1)%len(f.S.Clients)].Cntr
		return "kill_container(peer)", k.SysKillContainer(core, tid, target)
	case 5: // new process
		return "new_proc", k.SysNewProcess(core, tid)
	case 6: // new thread
		return "new_thread", k.SysNewThreadIn(core, tid, k.PM.Thrd(tid).OwningProc, core)
	case 7: // new endpoint in a random slot (may collide -> EINVAL)
		return "new_endpoint", k.SysNewEndpoint(core, tid, r.Intn(pm.MaxEndpoints+2)-1)
	case 8: // close a random slot
		slot := r.Intn(pm.MaxEndpoints)
		if first && slot == c && f.V != nil {
			return "close_endpoint(noop)", kernel.Ret{}
		}
		return "close_endpoint", k.SysCloseEndpoint(core, tid, slot)
	case 9: // call the service, sometimes sharing a page
		args := kernel.SendArgs{Regs: [4]uint64{r.Uint64() % 1000}}
		if m := f.mapped[c]; len(m) > 0 && r.Bool() {
			args.SendPage = true
			args.PageVA = m[r.Intn(len(m))]
		}
		return "call(V)", k.SysCall(core, tid, c, args)
	case 10: // plain send on the service slot (may block this thread)
		args := kernel.SendArgs{Regs: [4]uint64{r.Uint64() % 1000}}
		if m := f.mapped[c]; len(m) > 0 && r.Bool() {
			args.SendPage = true
			args.PageVA = m[r.Intn(len(m))]
		}
		if strands(c) {
			return "send(noop)", kernel.Ret{}
		}
		return "send(V)", k.SysSend(core, tid, c, args)
	case 11: // send on a random (often invalid) slot with garbage
		slot := r.Intn(pm.MaxEndpoints)
		args := kernel.SendArgs{SendPage: r.Bool(), PageVA: hw.VirtAddr(r.Uint64n(1 << 33)),
			SendEdpt: r.Bool(), EdptSlot: r.Intn(pm.MaxEndpoints)}
		if strands(slot) {
			return "send(noop)", kernel.Ret{}
		}
		return "send(junk)", k.SysSend(core, tid, slot, args)
	case 12: // yield
		return "yield", k.SysYield(core, tid)
	case 13: // bounded (iterative) kill of an own child container
		if ch := f.children[c]; len(ch) > 0 {
			i := r.Intn(len(ch))
			ret := k.SysKillContainerBounded(core, tid, ch[i], 1+r.Intn(3))
			if ret.Errno == kernel.OK {
				f.children[c] = append(ch[:i], ch[i+1:]...)
			}
			return "kill_container_bounded", ret
		}
		return "kill_container_bounded(noop)", kernel.Ret{}
	case 14: // exit a spare thread (never the domain's last runnable one)
		runnable := f.runnableThreads(cntr)
		if last := runnable[len(runnable)-1]; len(runnable) > 1 && last != tid && last != me.Thread {
			return "exit_thread", k.SysExitThread(core, last)
		}
		return "exit_thread(noop)", kernel.Ret{}
	default: // mmap with hostile arguments
		return "mmap(junk)", k.SysMmap(core, tid,
			hw.VirtAddr(r.Uint64n(1<<40)), int(r.Uint64n(5))-1, hw.Size4K, pt.RW)
	}
}

// Run performs n fuzz steps.
func (f *Fuzzer) Run(n int) error {
	for i := 0; i < n; i++ {
		if err := f.Step(); err != nil {
			return fmt.Errorf("step %d: %w", i, err)
		}
	}
	return nil
}

// Replay runs a fresh fuzzer over a new scenario of S's shape, from f's
// seed, for as many steps as f has taken, and returns its trace —
// output consistency (OC) holds iff the two traces are equal.
func (f *Fuzzer) Replay() ([]StepRecord, error) {
	s, err := Build(len(f.S.Clients), f.S.V != nil)
	if err != nil {
		return nil, err
	}
	g := NewFuzzer(s, f.seed)
	if err := g.Run(len(f.Trace)); err != nil {
		return nil, err
	}
	if len(g.SCViolations) > 0 {
		return nil, fmt.Errorf("step consistency violated: %s", g.SCViolations[0])
	}
	return g.Trace, nil
}

// TracesEqual compares two traces and reports the first divergence.
func TracesEqual(a, b []StepRecord) (bool, string) {
	if len(a) != len(b) {
		return false, fmt.Sprintf("length %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return false, fmt.Sprintf("step %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	return true, ""
}
