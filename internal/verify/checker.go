package verify

import (
	"fmt"

	"atmosphere/internal/hw"
	"atmosphere/internal/iommu"
	"atmosphere/internal/kernel"
	"atmosphere/internal/pm"
	"atmosphere/internal/pt"
	"atmosphere/internal/spec"
)

// Checker wraps a kernel so that every syscall is checked against its
// executable specification and the full well-formedness suite — the
// dynamic counterpart of "the implementation refines the specification"
// (§4). Each method loads the abstract state Ψ, performs the syscall,
// loads Ψ', and evaluates the spec predicate plus TotalWF. Ψ and Ψ' are
// refilled in place on every step, so a predicate must not keep them.
type Checker struct {
	K *kernel.Kernel
	// Transitions counts checked syscalls.
	Transitions int
	// SkipWF disables the invariant suite (spec-only checking) for
	// workloads where O(state) scans per step are too slow.
	SkipWF bool

	// old and new hold Ψ and Ψ' of the current step.
	old, new spec.State
}

// NewChecker boots a kernel under checking and validates the boot state.
func NewChecker(cfg hw.Config) (*Checker, pm.Ptr, error) {
	k, init, err := kernel.Boot(cfg)
	if err != nil {
		return nil, 0, err
	}
	c := &Checker{K: k}
	if err := TotalWF(k); err != nil {
		return nil, 0, fmt.Errorf("boot state ill-formed: %w", err)
	}
	return c, init, nil
}

// report prefixes a failed check's error with the syscall's name and
// the check's, building the prefix only on failure.
func (c *Checker) report(name, check string, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%s %s: %w", name, check, err)
}

// step runs one syscall between snapshots and applies the spec predicate.
func (c *Checker) step(name string, do func() kernel.Ret,
	post func(old, new spec.State, ret kernel.Ret) error) (kernel.Ret, error) {
	c.old.Load(c.K.PM, c.K.Alloc, c.K.IOMMU)
	ret := do()
	c.new.Load(c.K.PM, c.K.Alloc, c.K.IOMMU)
	c.Transitions++
	if err := c.report(name, "spec", post(c.old, c.new, ret)); err != nil {
		return ret, err
	}
	if !c.SkipWF {
		if err := c.report(name, "wf", TotalWF(c.K)); err != nil {
			return ret, err
		}
	}
	return ret, nil
}

// Mmap is the checked SysMmap.
func (c *Checker) Mmap(core int, tid pm.Ptr, va hw.VirtAddr, count int, size hw.PageSize, perm pt.Perm) (kernel.Ret, error) {
	return c.step("mmap",
		func() kernel.Ret { return c.K.SysMmap(core, tid, va, count, size, perm) },
		func(old, new spec.State, ret kernel.Ret) error {
			return spec.MmapSpec(old, new, tid, va, count, size, perm, ret)
		})
}

// Munmap is the checked SysMunmap.
func (c *Checker) Munmap(core int, tid pm.Ptr, va hw.VirtAddr, count int, size hw.PageSize) (kernel.Ret, error) {
	return c.step("munmap",
		func() kernel.Ret { return c.K.SysMunmap(core, tid, va, count, size) },
		func(old, new spec.State, ret kernel.Ret) error {
			return spec.MunmapSpec(old, new, tid, va, count, size, ret)
		})
}

// NewContainer is the checked SysNewContainer.
func (c *Checker) NewContainer(core int, tid pm.Ptr, quota uint64, cpus []int) (kernel.Ret, error) {
	return c.step("new_container",
		func() kernel.Ret { return c.K.SysNewContainer(core, tid, quota, cpus) },
		func(old, new spec.State, ret kernel.Ret) error {
			return spec.NewContainerSpec(old, new, tid, quota, cpus, ret)
		})
}

// NewProcess is the checked SysNewProcess.
func (c *Checker) NewProcess(core int, tid pm.Ptr) (kernel.Ret, error) {
	var cntr, parent pm.Ptr
	if t, ok := c.K.PM.TryThrd(tid); ok {
		parent = t.OwningProc
		cntr = c.K.PM.Proc(t.OwningProc).Owner
	}
	return c.step("new_proc",
		func() kernel.Ret { return c.K.SysNewProcess(core, tid) },
		func(old, new spec.State, ret kernel.Ret) error {
			return spec.NewProcSpec(old, new, tid, cntr, parent, ret)
		})
}

// NewProcessIn is the checked SysNewProcessIn.
func (c *Checker) NewProcessIn(core int, tid pm.Ptr, cntr pm.Ptr) (kernel.Ret, error) {
	return c.step("new_proc_in",
		func() kernel.Ret { return c.K.SysNewProcessIn(core, tid, cntr) },
		func(old, new spec.State, ret kernel.Ret) error {
			return spec.NewProcSpec(old, new, tid, cntr, 0, ret)
		})
}

// NewThreadIn is the checked SysNewThreadIn.
func (c *Checker) NewThreadIn(core int, tid pm.Ptr, proc pm.Ptr, onCore int) (kernel.Ret, error) {
	return c.step("new_thread",
		func() kernel.Ret { return c.K.SysNewThreadIn(core, tid, proc, onCore) },
		func(old, new spec.State, ret kernel.Ret) error {
			return spec.NewThreadSpec(old, new, tid, proc, onCore, ret)
		})
}

// NewEndpoint is the checked SysNewEndpoint.
func (c *Checker) NewEndpoint(core int, tid pm.Ptr, slot int) (kernel.Ret, error) {
	return c.step("new_endpoint",
		func() kernel.Ret { return c.K.SysNewEndpoint(core, tid, slot) },
		func(old, new spec.State, ret kernel.Ret) error {
			return spec.NewEndpointSpec(old, new, tid, slot, ret)
		})
}

// Send is the checked SysSend.
func (c *Checker) Send(core int, tid pm.Ptr, slot int, args kernel.SendArgs) (kernel.Ret, error) {
	return c.step("send",
		func() kernel.Ret { return c.K.SysSend(core, tid, slot, args) },
		func(old, new spec.State, ret kernel.Ret) error {
			return spec.SendSpec(old, new, tid, slot, args, ret)
		})
}

// SendAsync is the checked SysSendAsync.
func (c *Checker) SendAsync(core int, tid pm.Ptr, slot int, args kernel.SendArgs) (kernel.Ret, error) {
	return c.step("send_async",
		func() kernel.Ret { return c.K.SysSendAsync(core, tid, slot, args) },
		func(old, new spec.State, ret kernel.Ret) error {
			return spec.SendAsyncSpec(old, new, tid, slot, args, ret)
		})
}

// Recv is the checked SysRecv.
func (c *Checker) Recv(core int, tid pm.Ptr, slot int, args kernel.RecvArgs) (kernel.Ret, error) {
	return c.step("recv",
		func() kernel.Ret { return c.K.SysRecv(core, tid, slot, args) },
		func(old, new spec.State, ret kernel.Ret) error {
			return spec.RecvSpec(old, new, tid, slot, args, ret)
		})
}

// Call is the checked SysCall.
func (c *Checker) Call(core int, tid pm.Ptr, slot int, args kernel.SendArgs) (kernel.Ret, error) {
	return c.step("call",
		func() kernel.Ret { return c.K.SysCall(core, tid, slot, args) },
		func(old, new spec.State, ret kernel.Ret) error {
			return spec.CallReplySpec(old, new, tid, slot, args.GrantPage, ret)
		})
}

// Reply is the checked SysReply.
func (c *Checker) Reply(core int, tid pm.Ptr, slot int, args kernel.SendArgs) (kernel.Ret, error) {
	return c.step("reply",
		func() kernel.Ret { return c.K.SysReply(core, tid, slot, args) },
		func(old, new spec.State, ret kernel.Ret) error {
			if ret.Errno != kernel.OK {
				return nil
			}
			return nil // reply delivery is covered by RecvSpec-side state + WF
		})
}

// ReplyRecv is the checked SysReplyRecv.
func (c *Checker) ReplyRecv(core int, tid pm.Ptr, slot int, args kernel.SendArgs, recv kernel.RecvArgs) (kernel.Ret, error) {
	return c.step("reply_recv",
		func() kernel.Ret { return c.K.SysReplyRecv(core, tid, slot, args, recv) },
		func(old, new spec.State, ret kernel.Ret) error {
			return spec.ReplyRecvSpec(old, new, tid, slot, ret)
		})
}

// ExitThread is the checked SysExitThread.
func (c *Checker) ExitThread(core int, tid pm.Ptr) (kernel.Ret, error) {
	return c.step("exit_thread",
		func() kernel.Ret { return c.K.SysExitThread(core, tid) },
		func(old, new spec.State, ret kernel.Ret) error {
			return spec.ExitThreadSpec(old, new, tid, ret)
		})
}

// KillProcess is the checked SysKillProcess.
func (c *Checker) KillProcess(core int, tid pm.Ptr, proc pm.Ptr) (kernel.Ret, error) {
	return c.step("kill_proc",
		func() kernel.Ret { return c.K.SysKillProcess(core, tid, proc) },
		func(old, new spec.State, ret kernel.Ret) error {
			return spec.KillProcessSpec(old, new, tid, proc, ret)
		})
}

// KillContainer is the checked SysKillContainer.
func (c *Checker) KillContainer(core int, tid pm.Ptr, cntr pm.Ptr) (kernel.Ret, error) {
	return c.step("kill_container",
		func() kernel.Ret { return c.K.SysKillContainer(core, tid, cntr) },
		func(old, new spec.State, ret kernel.Ret) error {
			return spec.KillContainerSpec(old, new, tid, cntr, ret)
		})
}

// KillContainerBounded is the checked SysKillContainerBounded: every
// bounded invocation must leave the kernel well-formed (the extension's
// whole point is that intermediate states are sound).
func (c *Checker) KillContainerBounded(core int, tid pm.Ptr, cntr pm.Ptr, budget int) (kernel.Ret, error) {
	return c.step("kill_container_bounded",
		func() kernel.Ret { return c.K.SysKillContainerBounded(core, tid, cntr, budget) },
		func(old, new spec.State, ret kernel.Ret) error {
			if ret.Errno != kernel.OK {
				return nil // progress states are covered by WF
			}
			return spec.KillContainerSpec(old, new, tid, cntr, kernel.Ret{Errno: kernel.OK})
		})
}

// IrqRegister is the checked SysIrqRegister (WF-only).
func (c *Checker) IrqRegister(core int, tid pm.Ptr, irq, slot int) (kernel.Ret, error) {
	return c.step("irq_register",
		func() kernel.Ret { return c.K.SysIrqRegister(core, tid, irq, slot) },
		func(old, new spec.State, ret kernel.Ret) error { return nil })
}

// IrqWait is the checked SysIrqWait (WF-only).
func (c *Checker) IrqWait(core int, tid pm.Ptr, irq int) (kernel.Ret, error) {
	return c.step("irq_wait",
		func() kernel.Ret { return c.K.SysIrqWait(core, tid, irq) },
		func(old, new spec.State, ret kernel.Ret) error { return nil })
}

// CloseEndpoint is the checked SysCloseEndpoint.
func (c *Checker) CloseEndpoint(core int, tid pm.Ptr, slot int) (kernel.Ret, error) {
	return c.step("close_endpoint",
		func() kernel.Ret { return c.K.SysCloseEndpoint(core, tid, slot) },
		func(old, new spec.State, ret kernel.Ret) error {
			return spec.CloseEndpointSpec(old, new, tid, slot, ret)
		})
}

// Yield is the checked SysYield.
func (c *Checker) Yield(core int, tid pm.Ptr) (kernel.Ret, error) {
	return c.step("yield",
		func() kernel.Ret { return c.K.SysYield(core, tid) },
		func(old, new spec.State, ret kernel.Ret) error {
			return spec.YieldSpec(old, new, tid, ret)
		})
}

// IommuCreateDomain is the checked SysIommuCreateDomain.
func (c *Checker) IommuCreateDomain(core int, tid pm.Ptr) (kernel.Ret, error) {
	return c.step("iommu_create",
		func() kernel.Ret { return c.K.SysIommuCreateDomain(core, tid) },
		func(old, new spec.State, ret kernel.Ret) error {
			return spec.IommuCreateSpec(old, new, tid, ret)
		})
}

// IommuMap is the checked SysIommuMap.
func (c *Checker) IommuMap(core int, tid pm.Ptr, va hw.VirtAddr) (kernel.Ret, error) {
	return c.step("iommu_map",
		func() kernel.Ret { return c.K.SysIommuMap(core, tid, va) },
		func(old, new spec.State, ret kernel.Ret) error {
			return spec.IommuMapSpec(old, new, tid, va, ret)
		})
}

// IommuUnmap is the checked SysIommuUnmap.
func (c *Checker) IommuUnmap(core int, tid pm.Ptr, va hw.VirtAddr) (kernel.Ret, error) {
	return c.step("iommu_unmap",
		func() kernel.Ret { return c.K.SysIommuUnmap(core, tid, va) },
		func(old, new spec.State, ret kernel.Ret) error {
			return spec.IommuUnmapSpec(old, new, tid, va, ret)
		})
}

// IommuAttach is the checked SysIommuAttach (WF-only).
func (c *Checker) IommuAttach(core int, tid pm.Ptr, dev iommu.DeviceID) (kernel.Ret, error) {
	return c.step("iommu_attach",
		func() kernel.Ret { return c.K.SysIommuAttach(core, tid, dev) },
		func(old, new spec.State, ret kernel.Ret) error { return nil })
}
