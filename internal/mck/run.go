package mck

import (
	"fmt"

	"atmosphere/internal/hw"
	"atmosphere/internal/kernel"
	"atmosphere/internal/pm"
	"atmosphere/internal/pt"
	"atmosphere/internal/verify"
)

// Options configures a program run.
type Options struct {
	// Hook runs after boot, before the first op: the one way to arm
	// anything on the run's kernel. The mutation self-test installs a
	// kernel.PostSyscall perturbation with it, WithLockOrder attaches
	// the contention observatory and arms its checks, atmo-fuzz -chaos
	// arms a fault injector and its sinks, and perf's checked workload
	// marks each syscall's completion cycle.
	Hook func(*kernel.Kernel)
	// WFEvery > 0 additionally runs the full invariant suite
	// (verify.TotalWF) every WFEvery steps and once after the last.
	WFEvery int
}

// shape is the machine p runs on: its own shape, or the default where
// it sets none.
func (p Program) shape() (frames, cores int) {
	frames, cores = p.Frames, p.Cores
	if frames <= 0 {
		frames = DefaultFrames
	}
	if cores <= 0 {
		cores = DefaultCores
	}
	return frames, cores
}

// Stats is a run's coverage report.
type Stats struct {
	Steps  int
	Ops    map[string]int
	Errnos map[string]int
}

func newStats() Stats {
	return Stats{Ops: map[string]int{}, Errnos: map[string]int{}}
}

func (s *Stats) record(name string, ret kernel.Ret) {
	s.Steps++
	s.Ops[name]++
	s.Errnos[ret.Errno.String()]++
}

// Merge folds another run's coverage into s.
func (s *Stats) Merge(o Stats) {
	s.Steps += o.Steps
	for k, v := range o.Ops {
		s.Ops[k] += v
	}
	for k, v := range o.Errnos {
		s.Errnos[k] += v
	}
}

// DiffResult reports the first divergence between kernel and spec.
type DiffResult struct {
	Step int
	Op   Op
	Err  error
}

func (r *DiffResult) Error() string {
	return fmt.Sprintf("step %d (%v): %v", r.Step, r.Op, r.Err)
}

// registries hold object pointers in creation order. Entries are never
// removed — a dead pointer resolves to whatever the kernel reuses the
// page for (or to an ENOENT probe), mirrored exactly by the spec side.
type registries struct {
	threads []pm.Ptr
	procs   []pm.Ptr
	cntrs   []pm.Ptr
	live    []pm.Ptr // resolve's reused buffer: the threads still alive, in creation order
	cpus    []int    // resolve's reused buffer: new_container's CPU list, which pm and the spec copy
}

func bootRegistries(k *kernel.Kernel, init pm.Ptr) *registries {
	return &registries{
		threads: []pm.Ptr{init},
		procs:   []pm.Ptr{k.PM.Thrd(init).OwningProc},
		cntrs:   []pm.Ptr{k.PM.RootContainer},
	}
}

// record appends creation witnesses after a successful op.
func (r *registries) record(c call, ret kernel.Ret) {
	if ret.Errno != kernel.OK {
		return
	}
	switch c.kind {
	case KNewContainer:
		r.cntrs = append(r.cntrs, pm.Ptr(ret.Vals[0]))
	case KNewProcess, KNewProcessIn:
		r.procs = append(r.procs, pm.Ptr(ret.Vals[0]))
	case KNewThreadIn:
		r.threads = append(r.threads, pm.Ptr(ret.Vals[0]))
	}
}

// call is a fully resolved syscall: the abstract Op's fields mapped onto
// concrete arguments against the current object registries.
type call struct {
	kind     Kind
	tid      pm.Ptr
	core     int
	va       hw.VirtAddr
	count    int
	quota    uint64
	cpus     []int
	cntr     pm.Ptr
	proc     pm.Ptr
	onCore   int
	slot     int
	sendEdpt bool
	xferSlot int
	reqSlot  int
	reg      uint64
	grantVA  hw.VirtAddr
	seed     uint64
}

// mmapBase keeps generated mappings clear of any boot-time state.
const mmapBase = 0x4000_0000

// resolve maps an abstract op onto concrete syscall arguments. The
// mapping is a pure function of (op, registries, live threads), so a
// replay resolves identically. Slot/count/core arguments are reduced
// modulo "valid range plus a little", so out-of-range probes stay in
// the mix. Returns ok=false when no thread exists to issue the call.
func resolve(k *kernel.Kernel, regs *registries, op Op, cores int) (call, bool) {
	live := regs.live[:0]
	for _, t := range regs.threads {
		if _, ok := k.PM.TryThrd(t); ok {
			live = append(live, t)
		}
	}
	regs.live = live
	if len(live) == 0 {
		return call{}, false
	}
	c := call{kind: op.Kind}
	c.tid = live[int(op.Actor)%len(live)]
	c.core = k.PM.Thrd(c.tid).Core

	switch op.Kind {
	case KMmap, KMunmap:
		c.va = mmapBase + hw.VirtAddr(op.A)*hw.PageSize4K
		if op.C%8 == 7 {
			c.va += hw.VirtAddr(op.C) & 0xFFF // misalignment probe
		}
		c.count = int(op.B%16) - 1 // <= 0 probes EINVAL
	case KNewContainer:
		c.quota = uint64(op.A % 40) // 0 probes EQUOTA
		c.cpus = regs.cpus[:0]
		for i := 0; i < cores+2; i++ {
			if op.B>>i&1 != 0 {
				c.cpus = append(c.cpus, i) // >= cores probes EINVAL
			}
		}
		regs.cpus = c.cpus
	case KNewProcessIn, KKillContainer:
		c.cntr = regs.cntrs[int(op.A)%len(regs.cntrs)]
	case KNewThreadIn:
		c.proc = regs.procs[int(op.A)%len(regs.procs)]
		c.onCore = int(op.B) % (cores + 2)
	case KKillProcess:
		c.proc = regs.procs[int(op.A)%len(regs.procs)]
	case KNewEndpoint, KCloseEndpoint:
		c.slot = int(op.A) % (pm.MaxEndpoints + 2)
	case KSend, KCall:
		c.slot = int(op.A) % (pm.MaxEndpoints + 2)
		c.reg = uint64(op.C)
		switch code := op.B % 19; {
		case code == 0:
			// scalars only
		case code == 18:
			c.sendEdpt, c.xferSlot = true, -1 // negative-slot probe
		default:
			c.sendEdpt, c.xferSlot = true, int(code)-1 // 16 probes EINVAL
		}
	case KRecv:
		c.slot = int(op.A) % (pm.MaxEndpoints + 2)
		if code := op.B % 18; code == 0 {
			c.reqSlot = -1 // first free
		} else {
			c.reqSlot = int(code) - 1 // 16 probes delivery failure
		}
	case KSendAsync:
		c.slot = int(op.A) % (pm.MaxEndpoints + 2)
		c.reg = uint64(op.C)
		if op.B != 0 {
			// Grant the page at the op.B-coded va. Small op.B values
			// land where small-op.A mmaps map, so mutated corpora hit
			// real pages; misses probe ENOENT.
			c.grantVA = mmapBase + hw.VirtAddr(op.B>>1)*hw.PageSize4K
			if op.B&1 == 1 {
				c.grantVA += hw.VirtAddr(op.C) & 0xFFF // sub-page probe: the kernel aligns down
			}
		}
	case KBatch:
		// The three fields seed a deterministic derived bop sequence
		// (deriveBops); the batch itself runs via runBatch.
		c.seed = uint64(op.A)<<32 | uint64(op.B)<<16 | uint64(op.C)
	}
	return c, true
}

// dispatch issues the resolved call through the Checker, which applies
// the same call's specification to Ψ′ and compares the kernel against
// it. A KBatch op rings its derived submissions bops through the
// doorbell (runBatch).
func dispatch(c *verify.Checker, rc call, rings *hw.PhysMem, bops []bop) (kernel.Ret, error) {
	switch rc.kind {
	case KMmap:
		return c.Mmap(rc.core, rc.tid, rc.va, rc.count, hw.Size4K, pt.RW)
	case KMunmap:
		return c.Munmap(rc.core, rc.tid, rc.va, rc.count, hw.Size4K)
	case KNewContainer:
		return c.NewContainer(rc.core, rc.tid, rc.quota, rc.cpus)
	case KNewProcess:
		return c.NewProcess(rc.core, rc.tid)
	case KNewProcessIn:
		return c.NewProcessIn(rc.core, rc.tid, rc.cntr)
	case KNewThreadIn:
		return c.NewThreadIn(rc.core, rc.tid, rc.proc, rc.onCore)
	case KExitThread:
		return c.ExitThread(rc.core, rc.tid)
	case KNewEndpoint:
		return c.NewEndpoint(rc.core, rc.tid, rc.slot)
	case KCloseEndpoint:
		return c.CloseEndpoint(rc.core, rc.tid, rc.slot)
	case KSend:
		return c.Send(rc.core, rc.tid, rc.slot,
			kernel.SendArgs{Regs: [4]uint64{rc.reg}, SendEdpt: rc.sendEdpt, EdptSlot: rc.xferSlot})
	case KRecv:
		return c.Recv(rc.core, rc.tid, rc.slot, kernel.RecvArgs{EdptSlot: rc.reqSlot})
	case KCall:
		return c.Call(rc.core, rc.tid, rc.slot,
			kernel.SendArgs{Regs: [4]uint64{rc.reg}, SendEdpt: rc.sendEdpt, EdptSlot: rc.xferSlot})
	case KSendAsync:
		args := kernel.SendArgs{Regs: [4]uint64{rc.reg}}
		if rc.grantVA != 0 {
			args.GrantPage, args.PageVA = true, rc.grantVA
		}
		return c.SendAsync(rc.core, rc.tid, rc.slot, args)
	case KYield:
		return c.Yield(rc.core, rc.tid)
	case KKillProcess:
		return c.KillProcess(rc.core, rc.tid, rc.proc)
	case KKillContainer:
		return c.KillContainer(rc.core, rc.tid, rc.cntr)
	case KIommuCreate:
		return c.IommuCreateDomain(rc.core, rc.tid)
	case KBatch:
		return runBatch(c, rings, bops, rc)
	}
	panic("mck: unhandled kind " + rc.kind.String())
}

// RunDiff executes the program on a freshly booted kernel driven through
// a verify.Checker, which steps the pure spec interpreter in lockstep
// and compares the kernel against the independently evolved Ψ′ after
// every step. It returns the first divergence (nil if the whole program
// agrees), the run's coverage, and a boot error if the machine could not
// be constructed.
//
// Diff reads the kernel in place, one object at a time through the
// abstraction function; no copy of its Ψ is kept. It compares objects
// and address spaces, frames included, not the allocator's page sets.
// Allocator state is checked by TotalWF every WFEvery steps and after the
// last op, so no step goes unchecked.
func RunDiff(p Program, opt Options) (*DiffResult, Stats, error) {
	st := newStats()
	frames, cores := p.shape()
	c, init, err := verify.NewChecker(hw.Config{Frames: frames, Cores: cores, TLBSlots: 256})
	if err != nil {
		return nil, st, err
	}
	c.SkipWF = true
	if opt.Hook != nil {
		opt.Hook(c.K)
	}
	regs := bootRegistries(c.K, init)

	// Shared rendezvous endpoint in init's slot 0, installed in every new
	// thread: without one seeded shared descriptor no two threads ever
	// hold the same endpoint (transfer itself needs a rendezvous), and
	// the whole IPC delivery surface would go unexercised.
	rret, err := c.NewEndpoint(0, init, 0)
	if err != nil {
		return &DiffResult{Step: -1, Err: fmt.Errorf("rendezvous setup: %w", err)}, st, nil
	}
	rendezvous := pm.Ptr(rret.Vals[0])
	rings := hw.NewPhysMem(2) // every KBatch op's submission and completion rings
	var bops []bop            // every KBatch op's derived submissions

	for i, op := range p.Ops {
		rc, ok := resolve(c.K, regs, op, cores)
		if !ok {
			continue // no thread left to issue calls
		}
		if rc.kind == KBatch {
			bops = deriveBops(rc.seed, bops)
		}
		ret, err := dispatch(c, rc, rings, bops)
		st.record(rc.kind.String(), ret)
		if err != nil {
			return &DiffResult{Step: i, Op: op, Err: err}, st, nil
		}
		regs.record(rc, ret)
		if rc.kind == KNewThreadIn && ret.Errno == kernel.OK {
			// Nothing once the endpoint has died; if its page was reused
			// for a new endpoint, kernel and spec install the same one.
			if err := c.InstallEndpoint(pm.Ptr(ret.Vals[0]), 0, rendezvous); err != nil {
				return &DiffResult{Step: i, Op: op, Err: err}, st, nil
			}
		}
		if opt.WFEvery > 0 && (i+1)%opt.WFEvery == 0 {
			if err := verify.TotalWF(c.K); err != nil {
				return &DiffResult{Step: i, Op: op, Err: fmt.Errorf("invariants: %w", err)}, st, nil
			}
		}
	}
	if opt.WFEvery > 0 {
		if err := verify.TotalWF(c.K); err != nil {
			res := &DiffResult{Step: len(p.Ops) - 1, Err: fmt.Errorf("invariants: %w", err)}
			if res.Step >= 0 {
				res.Op = p.Ops[res.Step]
			}
			return res, st, nil
		}
	}
	return nil, st, nil
}

// RunChecked executes the program through the differential oracle with
// the full invariant suite after every step: RunDiff with WFEvery 1.
// This is the harness behind atmo-fuzz's default mode.
func RunChecked(p Program, opt Options) (Stats, error) {
	opt.WFEvery = 1
	res, st, err := RunDiff(p, opt)
	if err != nil {
		return st, err
	}
	if res != nil {
		return st, res
	}
	return st, nil
}

// Fails reports whether the program fails the differential oracle. A
// kernel panic counts as a failure and is recovered — the shrinker must
// be able to minimize crashing programs, not just diverging ones.
func Fails(p Program, opt Options) (failed bool) {
	defer func() {
		if recover() != nil {
			failed = true
		}
	}()
	res, _, err := RunDiff(p, opt)
	return err != nil || res != nil
}
