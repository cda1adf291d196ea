package mck

import (
	"fmt"

	"atmosphere/internal/hw"
	"atmosphere/internal/kernel"
	"atmosphere/internal/pm"
	"atmosphere/internal/pt"
	"atmosphere/internal/spec"
	"atmosphere/internal/verify"
)

// Options configures a program run.
type Options struct {
	// Frames/Cores override the program's machine shape when nonzero.
	Frames int
	Cores  int
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

func (o Options) shape(p Program) (frames, cores int) {
	frames, cores = p.Frames, p.Cores
	if o.Frames > 0 {
		frames = o.Frames
	}
	if o.Cores > 0 {
		cores = o.Cores
	}
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
		for i := 0; i < cores+2; i++ {
			if op.B>>i&1 != 0 {
				c.cpus = append(c.cpus, i) // >= cores probes EINVAL
			}
		}
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

// dispatchKernel issues the resolved call against the concrete kernel.
func dispatchKernel(k *kernel.Kernel, c call) kernel.Ret {
	switch c.kind {
	case KMmap:
		return k.SysMmap(c.core, c.tid, c.va, c.count, hw.Size4K, pt.RW)
	case KMunmap:
		return k.SysMunmap(c.core, c.tid, c.va, c.count, hw.Size4K)
	case KNewContainer:
		return k.SysNewContainer(c.core, c.tid, c.quota, c.cpus)
	case KNewProcess:
		return k.SysNewProcess(c.core, c.tid)
	case KNewProcessIn:
		return k.SysNewProcessIn(c.core, c.tid, c.cntr)
	case KNewThreadIn:
		return k.SysNewThreadIn(c.core, c.tid, c.proc, c.onCore)
	case KExitThread:
		return k.SysExitThread(c.core, c.tid)
	case KNewEndpoint:
		return k.SysNewEndpoint(c.core, c.tid, c.slot)
	case KCloseEndpoint:
		return k.SysCloseEndpoint(c.core, c.tid, c.slot)
	case KSend:
		return k.SysSend(c.core, c.tid, c.slot,
			kernel.SendArgs{Regs: [4]uint64{c.reg}, SendEdpt: c.sendEdpt, EdptSlot: c.xferSlot})
	case KRecv:
		return k.SysRecv(c.core, c.tid, c.slot, kernel.RecvArgs{EdptSlot: c.reqSlot})
	case KCall:
		return k.SysCall(c.core, c.tid, c.slot,
			kernel.SendArgs{Regs: [4]uint64{c.reg}, SendEdpt: c.sendEdpt, EdptSlot: c.xferSlot})
	case KSendAsync:
		args := kernel.SendArgs{Regs: [4]uint64{c.reg}}
		if c.grantVA != 0 {
			args.GrantPage, args.PageVA = true, c.grantVA
		}
		return k.SysSendAsync(c.core, c.tid, c.slot, args)
	case KYield:
		return k.SysYield(c.core, c.tid)
	case KKillProcess:
		return k.SysKillProcess(c.core, c.tid, c.proc)
	case KKillContainer:
		return k.SysKillContainer(c.core, c.tid, c.cntr)
	case KIommuCreate:
		return k.SysIommuCreateDomain(c.core, c.tid)
	}
	panic("mck: unhandled kind " + c.kind.String())
}

// applyInterp applies the same call's specification to Ψ′, checking the
// kernel's return value against the spec's prediction.
func applyInterp(ip *spec.Interp, c call, ret kernel.Ret) error {
	switch c.kind {
	case KMmap:
		return ip.Mmap(c.tid, c.va, c.count, ret)
	case KMunmap:
		return ip.Munmap(c.tid, c.va, c.count, ret)
	case KNewContainer:
		return ip.NewContainer(c.tid, c.quota, c.cpus, ret)
	case KNewProcess:
		return ip.NewProcess(c.tid, ret)
	case KNewProcessIn:
		return ip.NewProcessIn(c.tid, c.cntr, ret)
	case KNewThreadIn:
		return ip.NewThreadIn(c.tid, c.proc, c.onCore, ret)
	case KExitThread:
		return ip.ExitThread(c.tid, ret)
	case KNewEndpoint:
		return ip.NewEndpoint(c.tid, c.slot, ret)
	case KCloseEndpoint:
		return ip.CloseEndpoint(c.tid, c.slot, ret)
	case KSend:
		return ip.Send(c.tid, c.slot, c.sendEdpt, c.xferSlot, c.grantVA, ret)
	case KRecv:
		return ip.Recv(c.tid, c.slot, c.reqSlot, 0, ret)
	case KCall:
		return ip.Call(c.tid, c.slot, c.sendEdpt, c.xferSlot, c.grantVA, ret)
	case KSendAsync:
		return ip.SendAsync(c.tid, c.slot, c.grantVA, ret)
	case KYield:
		return ip.Yield(c.tid, ret)
	case KKillProcess:
		return ip.KillProcess(c.tid, c.proc, ret)
	case KKillContainer:
		return ip.KillContainer(c.tid, c.cntr, ret)
	case KIommuCreate:
		return ip.IommuCreate(c.tid, ret)
	}
	panic("mck: unhandled kind " + c.kind.String())
}

// RunDiff executes the program in lockstep on a freshly booted kernel
// and on the pure spec interpreter, comparing Abstract(kernel) against
// the independently evolved Ψ′ after every step. It returns the first
// divergence (nil if the whole program agrees), the run's coverage, and
// a boot error if the machine could not be constructed.
//
// The kernel's Ψ is refilled in place each step, and without the
// allocator snapshot: Diff compares objects and address spaces, not
// page sets. Allocator state is checked by TotalWF every WFEvery steps
// and after the last op, so no step goes unchecked.
func RunDiff(p Program, opt Options) (*DiffResult, Stats, error) {
	st := newStats()
	frames, cores := opt.shape(p)
	k, init, err := kernel.Boot(hw.Config{Frames: frames, Cores: cores, TLBSlots: 256})
	if err != nil {
		return nil, st, err
	}
	if opt.Hook != nil {
		opt.Hook(k)
	}
	ip := spec.NewInterp(spec.Abstract(k.PM, k.Alloc, k.IOMMU))
	var psi spec.State
	regs := bootRegistries(k, init)

	// Shared rendezvous endpoint in init's slot 0, adopted by every new
	// thread: without one seeded shared descriptor no two threads ever
	// hold the same endpoint (transfer itself needs a rendezvous), and
	// the whole IPC delivery surface would go unexercised.
	rret := k.SysNewEndpoint(0, init, 0)
	if err := ip.NewEndpoint(init, 0, rret); err != nil {
		return &DiffResult{Step: -1, Err: fmt.Errorf("rendezvous setup: %w", err)}, st, nil
	}
	rendezvous := pm.Ptr(rret.Vals[0])

	for i, op := range p.Ops {
		c, ok := resolve(k, regs, op, cores)
		if !ok {
			continue // no thread left to issue calls
		}
		var ret kernel.Ret
		if c.kind == KBatch {
			var err error
			ret, err = runBatch(k, ip, c)
			st.record(c.kind.String(), ret)
			if err != nil {
				return &DiffResult{Step: i, Op: op, Err: err}, st, nil
			}
		} else {
			ret = dispatchKernel(k, c)
			st.record(c.kind.String(), ret)
			if err := applyInterp(ip, c, ret); err != nil {
				return &DiffResult{Step: i, Op: op, Err: err}, st, nil
			}
		}
		psi.LoadObjects(k.PM, k.IOMMU)
		if err := ip.Diff(psi); err != nil {
			return &DiffResult{Step: i, Op: op, Err: err}, st, nil
		}
		regs.record(c, ret)
		if c.kind == KNewThreadIn && ret.Errno == kernel.OK {
			adopt(k, ip, rendezvous, pm.Ptr(ret.Vals[0]))
		}
		if opt.WFEvery > 0 && (i+1)%opt.WFEvery == 0 {
			if err := verify.TotalWF(k); err != nil {
				return &DiffResult{Step: i, Op: op, Err: fmt.Errorf("invariants: %w", err)}, st, nil
			}
		}
	}
	if opt.WFEvery > 0 {
		if err := verify.TotalWF(k); err != nil {
			res := &DiffResult{Step: len(p.Ops) - 1, Err: fmt.Errorf("invariants: %w", err)}
			if res.Step >= 0 {
				res.Op = p.Ops[res.Step]
			}
			return res, st, nil
		}
	}
	return nil, st, nil
}

// adopt installs the shared rendezvous endpoint into a new thread's
// slot 0 on both sides (a reference is taken). No-ops once the endpoint
// has died; if its page was reused for a new endpoint, both sides see
// the same pointer and stay in agreement.
func adopt(k *kernel.Kernel, ip *spec.Interp, ep, tid pm.Ptr) {
	if _, alive := k.PM.TryEdpt(ep); !alive {
		return
	}
	t := k.PM.Thrd(tid)
	if t.Endpoints[0] != pm.NoEndpoint {
		return
	}
	t.Endpoints[0] = ep
	k.PM.EndpointIncRef(ep, 1)
	ip.Adopt(tid, ep)
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
