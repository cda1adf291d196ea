package verify

import (
	"fmt"

	"atmosphere/internal/hw"
	"atmosphere/internal/iommu"
	"atmosphere/internal/kernel"
	"atmosphere/internal/pm"
	"atmosphere/internal/pt"
	"atmosphere/internal/shmring"
	"atmosphere/internal/spec"
)

// Checker wraps a kernel so that every syscall is checked against the
// executable specification and the full well-formedness suite — the
// dynamic counterpart of "the implementation refines the specification"
// (§4). It seeds a spec.Interp from the boot kernel; each method performs
// the syscall, applies the matching interpreter step to the kernel's
// Ret, compares the kernel against the interpreter's Ψ′ (Interp.Diff),
// and runs TotalWF unless SkipWF is set.
type Checker struct {
	K *kernel.Kernel
	// Transitions counts checked syscalls.
	Transitions int
	// SkipWF disables the invariant suite (spec-only checking) for
	// workloads where O(state) scans per step are too slow.
	SkipWF bool

	ip *spec.Interp
}

// NewChecker boots a kernel under checking and validates the boot state.
func NewChecker(cfg hw.Config) (*Checker, pm.Ptr, error) {
	k, init, err := kernel.Boot(cfg)
	if err != nil {
		return nil, 0, err
	}
	if err := TotalWF(k); err != nil {
		return nil, 0, fmt.Errorf("boot state ill-formed: %w", err)
	}
	return &Checker{K: k, ip: spec.NewInterp(k)}, init, nil
}

// check counts one transition and runs its checks in order: the spec
// step's verdict on the kernel's return, the kernel against Ψ′, then the
// invariants. It builds an error's text only on failure.
func (c *Checker) check(name string, step error) error {
	c.Transitions++
	return c.verify(name, step)
}

// verify runs check's checks without counting a transition.
func (c *Checker) verify(name string, step error) error {
	if step != nil {
		return fmt.Errorf("%s spec: %w", name, step)
	}
	if err := c.ip.Diff(); err != nil {
		return fmt.Errorf("%s spec: %w", name, err)
	}
	if !c.SkipWF {
		if err := TotalWF(c.K); err != nil {
			return fmt.Errorf("%s wf: %w", name, err)
		}
	}
	return nil
}

// Mmap is the checked SysMmap.
func (c *Checker) Mmap(core int, tid pm.Ptr, va hw.VirtAddr, count int, size hw.PageSize, perm pt.Perm) (kernel.Ret, error) {
	ret := c.K.SysMmap(core, tid, va, count, size, perm)
	return ret, c.check("mmap", c.ip.Mmap(core, tid, va, count, size, perm, ret))
}

// Munmap is the checked SysMunmap.
func (c *Checker) Munmap(core int, tid pm.Ptr, va hw.VirtAddr, count int, size hw.PageSize) (kernel.Ret, error) {
	ret := c.K.SysMunmap(core, tid, va, count, size)
	return ret, c.check("munmap", c.ip.Munmap(core, tid, va, count, size, ret))
}

// NewContainer is the checked SysNewContainer.
func (c *Checker) NewContainer(core int, tid pm.Ptr, quota uint64, cpus []int) (kernel.Ret, error) {
	ret := c.K.SysNewContainer(core, tid, quota, cpus)
	return ret, c.check("new_container", c.ip.NewContainer(core, tid, quota, cpus, ret))
}

// NewProcess is the checked SysNewProcess.
func (c *Checker) NewProcess(core int, tid pm.Ptr) (kernel.Ret, error) {
	ret := c.K.SysNewProcess(core, tid)
	return ret, c.check("new_proc", c.ip.NewProcess(core, tid, ret))
}

// NewProcessIn is the checked SysNewProcessIn.
func (c *Checker) NewProcessIn(core int, tid pm.Ptr, cntr pm.Ptr) (kernel.Ret, error) {
	ret := c.K.SysNewProcessIn(core, tid, cntr)
	return ret, c.check("new_proc_in", c.ip.NewProcessIn(core, tid, cntr, ret))
}

// NewThread is the checked SysNewThread.
func (c *Checker) NewThread(core int, tid pm.Ptr, onCore int) (kernel.Ret, error) {
	ret := c.K.SysNewThread(core, tid, onCore)
	return ret, c.check("new_thread", c.ip.NewThread(core, tid, onCore, ret))
}

// NewThreadIn is the checked SysNewThreadIn.
func (c *Checker) NewThreadIn(core int, tid pm.Ptr, proc pm.Ptr, onCore int) (kernel.Ret, error) {
	ret := c.K.SysNewThreadIn(core, tid, proc, onCore)
	return ret, c.check("new_thread_in", c.ip.NewThreadIn(core, tid, proc, onCore, ret))
}

// NewEndpoint is the checked SysNewEndpoint.
func (c *Checker) NewEndpoint(core int, tid pm.Ptr, slot int) (kernel.Ret, error) {
	ret := c.K.SysNewEndpoint(core, tid, slot)
	return ret, c.check("new_endpoint", c.ip.NewEndpoint(core, tid, slot, ret))
}

// InstallEndpoint is the checked form of the one descriptor write no
// syscall performs: a parent setting up a channel puts a descriptor to ep
// in tid's slot, taking a reference, on the kernel and the spec alike.
// It does nothing unless ep is alive, tid exists and the slot is empty.
// It is not a syscall, so it counts no transition.
func (c *Checker) InstallEndpoint(tid pm.Ptr, slot int, ep pm.Ptr) error {
	if c.ip.Install(tid, slot, ep) {
		c.K.PM.Thrd(tid).Endpoints[slot] = ep
		c.K.PM.EndpointIncRef(ep, 1)
	}
	return c.verify("install_endpoint", nil)
}

// CloseEndpoint is the checked SysCloseEndpoint.
func (c *Checker) CloseEndpoint(core int, tid pm.Ptr, slot int) (kernel.Ret, error) {
	ret := c.K.SysCloseEndpoint(core, tid, slot)
	return ret, c.check("close_endpoint", c.ip.CloseEndpoint(core, tid, slot, ret))
}

// Send is the checked SysSend.
func (c *Checker) Send(core int, tid pm.Ptr, slot int, args kernel.SendArgs) (kernel.Ret, error) {
	ret := c.K.SysSend(core, tid, slot, args)
	return ret, c.check("send", c.ip.Send(core, tid, slot, args, ret))
}

// SendAsync is the checked SysSendAsync.
func (c *Checker) SendAsync(core int, tid pm.Ptr, slot int, args kernel.SendArgs) (kernel.Ret, error) {
	ret := c.K.SysSendAsync(core, tid, slot, args)
	return ret, c.check("send_async", c.ip.SendAsync(core, tid, slot, args, ret))
}

// Recv is the checked SysRecv.
func (c *Checker) Recv(core int, tid pm.Ptr, slot int, args kernel.RecvArgs) (kernel.Ret, error) {
	ret := c.K.SysRecv(core, tid, slot, args)
	return ret, c.check("recv", c.ip.Recv(core, tid, slot, args, ret))
}

// Call is the checked SysCall.
func (c *Checker) Call(core int, tid pm.Ptr, slot int, args kernel.SendArgs) (kernel.Ret, error) {
	ret := c.K.SysCall(core, tid, slot, args)
	return ret, c.check("call", c.ip.Call(core, tid, slot, args, ret))
}

// Reply is the checked SysReply.
func (c *Checker) Reply(core int, tid pm.Ptr, slot int, args kernel.SendArgs) (kernel.Ret, error) {
	ret := c.K.SysReply(core, tid, slot, args)
	return ret, c.check("reply", c.ip.Reply(core, tid, slot, args, ret))
}

// ReplyRecv is the checked SysReplyRecv.
func (c *Checker) ReplyRecv(core int, tid pm.Ptr, slot int, args kernel.SendArgs, recv kernel.RecvArgs) (kernel.Ret, error) {
	ret := c.K.SysReplyRecv(core, tid, slot, args, recv)
	return ret, c.check("reply_recv", c.ip.ReplyRecv(core, tid, slot, args, recv, ret))
}

// BatchRings is the checked SysBatchRings: the doorbell drains sq into
// cq, and replay then applies each drained submission's spec step from
// its completion, as the differential oracle's batch runner does, before
// the kernel is compared against Ψ′.
func (c *Checker) BatchRings(core int, tid pm.Ptr, sq, cq *shmring.Ring, max int,
	replay func(ip *spec.Interp, ret kernel.Ret) error) (kernel.Ret, error) {
	ret := c.K.SysBatchRings(core, tid, sq, cq, max)
	return ret, c.check("batch", replay(c.ip, ret))
}

// ExitThread is the checked SysExitThread.
func (c *Checker) ExitThread(core int, tid pm.Ptr) (kernel.Ret, error) {
	ret := c.K.SysExitThread(core, tid)
	return ret, c.check("exit_thread", c.ip.ExitThread(core, tid, ret))
}

// KillProcess is the checked SysKillProcess.
func (c *Checker) KillProcess(core int, tid pm.Ptr, proc pm.Ptr) (kernel.Ret, error) {
	ret := c.K.SysKillProcess(core, tid, proc)
	return ret, c.check("kill_proc", c.ip.KillProcess(core, tid, proc, ret))
}

// KillContainer is the checked SysKillContainer.
func (c *Checker) KillContainer(core int, tid pm.Ptr, cntr pm.Ptr) (kernel.Ret, error) {
	ret := c.K.SysKillContainer(core, tid, cntr)
	return ret, c.check("kill_container", c.ip.KillContainer(core, tid, cntr, ret))
}

// KillContainerBounded is the checked SysKillContainerBounded: every
// installment, EAGAIN or OK, must land where the specification's
// budgeted walk does and leave the kernel well-formed.
func (c *Checker) KillContainerBounded(core int, tid pm.Ptr, cntr pm.Ptr, budget int) (kernel.Ret, error) {
	ret := c.K.SysKillContainerBounded(core, tid, cntr, budget)
	return ret, c.check("kill_container_bounded", c.ip.KillContainerBounded(core, tid, cntr, budget, ret))
}

// IrqRegister is the checked SysIrqRegister.
func (c *Checker) IrqRegister(core int, tid pm.Ptr, irq, slot int) (kernel.Ret, error) {
	ret := c.K.SysIrqRegister(core, tid, irq, slot)
	return ret, c.check("irq_register", c.ip.IrqRegister(core, tid, irq, slot, ret))
}

// IrqUnregister is the checked SysIrqUnregister.
func (c *Checker) IrqUnregister(core int, tid pm.Ptr, irq int) (kernel.Ret, error) {
	ret := c.K.SysIrqUnregister(core, tid, irq)
	return ret, c.check("irq_unregister", c.ip.IrqUnregister(core, tid, irq, ret))
}

// IrqWait is the checked SysIrqWait.
func (c *Checker) IrqWait(core int, tid pm.Ptr, irq int) (kernel.Ret, error) {
	ret := c.K.SysIrqWait(core, tid, irq)
	return ret, c.check("irq_wait", c.ip.IrqWait(core, tid, irq, ret))
}

// RaiseIRQ is the checked device-side interrupt (kernel.RaiseIRQ). The
// spec cannot see an edge the kernel's IRQFilter drops, so a checked
// kernel runs none. It is not a syscall, so it counts no transition.
func (c *Checker) RaiseIRQ(core, irq int) error {
	c.K.RaiseIRQ(core, irq)
	c.ip.RaiseIRQ(irq)
	return c.verify("raise_irq", nil)
}

// Yield is the checked SysYield.
func (c *Checker) Yield(core int, tid pm.Ptr) (kernel.Ret, error) {
	ret := c.K.SysYield(core, tid)
	return ret, c.check("yield", c.ip.Yield(core, tid, ret))
}

// IommuCreateDomain is the checked SysIommuCreateDomain.
func (c *Checker) IommuCreateDomain(core int, tid pm.Ptr) (kernel.Ret, error) {
	ret := c.K.SysIommuCreateDomain(core, tid)
	return ret, c.check("iommu_create", c.ip.IommuCreate(core, tid, ret))
}

// IommuMap is the checked SysIommuMap.
func (c *Checker) IommuMap(core int, tid pm.Ptr, va hw.VirtAddr) (kernel.Ret, error) {
	ret := c.K.SysIommuMap(core, tid, va)
	return ret, c.check("iommu_map", c.ip.IommuMap(core, tid, va, ret))
}

// IommuUnmap is the checked SysIommuUnmap.
func (c *Checker) IommuUnmap(core int, tid pm.Ptr, va hw.VirtAddr) (kernel.Ret, error) {
	ret := c.K.SysIommuUnmap(core, tid, va)
	return ret, c.check("iommu_unmap", c.ip.IommuUnmap(core, tid, va, ret))
}

// IommuAttach is the checked SysIommuAttach.
func (c *Checker) IommuAttach(core int, tid pm.Ptr, dev iommu.DeviceID) (kernel.Ret, error) {
	ret := c.K.SysIommuAttach(core, tid, dev)
	return ret, c.check("iommu_attach", c.ip.IommuAttach(core, tid, dev, ret))
}
