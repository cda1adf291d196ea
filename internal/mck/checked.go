package mck

import (
	"fmt"

	"atmosphere/internal/hw"
	"atmosphere/internal/kernel"
	"atmosphere/internal/pm"
	"atmosphere/internal/pt"
	"atmosphere/internal/verify"
)

// RunChecked executes the program on a kernel wrapped by verify.Checker:
// every transition is validated against its per-syscall specification
// predicate plus the full invariant suite. This is the harness behind
// atmo-fuzz's default mode — same generator, same resolution, different
// oracle (per-step predicates instead of the lockstep interpreter).
func RunChecked(p Program, opt Options) (Stats, error) {
	st := newStats()
	frames, cores := opt.shape(p)
	c, init, err := verify.NewChecker(hw.Config{Frames: frames, Cores: cores, TLBSlots: 256})
	if err != nil {
		return st, err
	}
	if opt.Hook != nil {
		opt.Hook(c.K)
	}
	regs := bootRegistries(c.K, init)

	// Boot-style channel setup, as in RunDiff: a shared rendezvous
	// endpoint in slot 0, adopted by every new thread.
	rret, err := c.NewEndpoint(0, init, 0)
	if err != nil || rret.Errno != kernel.OK {
		return st, fmt.Errorf("rendezvous setup: %v %v", rret.Errno, err)
	}
	rendezvous := pm.Ptr(rret.Vals[0])
	adoptChecked := func(tid pm.Ptr) {
		if _, alive := c.K.PM.TryEdpt(rendezvous); !alive {
			return
		}
		t := c.K.PM.Thrd(tid)
		if t.Endpoints[0] != pm.NoEndpoint {
			return
		}
		t.Endpoints[0] = rendezvous
		c.K.PM.EndpointIncRef(rendezvous, 1)
	}

	var bops []bop // every KBatch op's derived submissions
	for _, op := range p.Ops {
		rc, ok := resolve(c.K, regs, op, cores)
		if !ok {
			continue
		}
		var ret kernel.Ret
		var err error
		if rc.kind == KBatch {
			bops = deriveBops(rc.seed, bops)
			ret, err = dispatchCheckedBatch(c, rc, bops)
		} else {
			ret, err = dispatchChecked(c, rc)
		}
		st.record(rc.kind.String(), ret)
		if err != nil {
			return st, err
		}
		regs.record(rc, ret)
		if rc.kind == KNewThreadIn && ret.Errno == kernel.OK {
			adoptChecked(pm.Ptr(ret.Vals[0]))
		}
	}
	return st, nil
}

func dispatchChecked(c *verify.Checker, rc call) (kernel.Ret, error) {
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
	case KYield:
		return c.Yield(rc.core, rc.tid)
	case KKillProcess:
		return c.KillProcess(rc.core, rc.tid, rc.proc)
	case KKillContainer:
		return c.KillContainer(rc.core, rc.tid, rc.cntr)
	case KIommuCreate:
		return c.IommuCreateDomain(rc.core, rc.tid)
	case KSendAsync:
		args := kernel.SendArgs{Regs: [4]uint64{rc.reg}}
		if rc.grantVA != 0 {
			args.GrantPage, args.PageVA = true, rc.grantVA
		}
		return c.SendAsync(rc.core, rc.tid, rc.slot, args)
	}
	panic("mck: unhandled kind " + rc.kind.String())
}

// dispatchCheckedBatch runs a KBatch op's derived submissions bops as
// individual checked syscalls: the checked oracle is per-transition
// predicates, so the flattened sequence is exactly what it validates
// (the ring framing itself is the differential runner's concern).
func dispatchCheckedBatch(c *verify.Checker, rc call, bops []bop) (kernel.Ret, error) {
	var last kernel.Ret
	for _, b := range bops {
		var err error
		switch b.op {
		case kernel.BopNop:
			continue
		case kernel.BopMmap:
			last, err = c.Mmap(rc.core, rc.tid, hw.VirtAddr(b.args[0]), int(b.args[1]), hw.Size4K, pt.RW)
		case kernel.BopMunmap:
			last, err = c.Munmap(rc.core, rc.tid, hw.VirtAddr(b.args[0]), int(b.args[1]), hw.Size4K)
		case kernel.BopSend:
			last, err = c.Send(rc.core, rc.tid, int(b.args[0]), batchSendArgs(b))
		case kernel.BopSendAsync:
			last, err = c.SendAsync(rc.core, rc.tid, int(b.args[0]), batchSendArgs(b))
		case kernel.BopCall:
			last, err = c.Call(rc.core, rc.tid, int(b.args[0]), batchSendArgs(b))
		case kernel.BopRecv:
			last, err = c.Recv(rc.core, rc.tid, int(b.args[0]),
				kernel.RecvArgs{PageVA: hw.VirtAddr(b.args[1]), EdptSlot: int(b.args[2]) - 1})
		case kernel.BopYield:
			last, err = c.Yield(rc.core, rc.tid)
		}
		if err != nil {
			return last, err
		}
	}
	return last, nil
}

// batchSendArgs decodes a derived send-family bop's arguments, mirroring
// kernel.batchDispatch.
func batchSendArgs(b bop) kernel.SendArgs {
	args := kernel.SendArgs{Regs: [4]uint64{b.args[1], b.args[2]}}
	if va := hw.VirtAddr(b.args[3]); va != 0 {
		args.GrantPage, args.PageVA = true, va
	}
	return args
}
