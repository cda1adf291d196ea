package kernel

import (
	"atmosphere/internal/hw"
	"atmosphere/internal/pm"
)

// Interrupt dispatch (§3). Atmosphere runs drivers in user space, so an
// interrupt's only kernel-side job is to reach the right process: a
// driver binds an IRQ line to one of its endpoints, and the kernel
// converts each interrupt into an endpoint notification — waking the
// handler thread if it is blocked waiting, or pending the interrupt (as
// a count, with edges coalesced) until the handler next waits. This is
// the vectoring work of the paper's trusted IDT/APIC setup code (§5,
// items 8-9), with the dispatch itself in the verified-role kernel.

// irqState tracks one bound line.
type irqState struct {
	endpoint pm.Ptr
	pending  uint64
}

// SysIrqRegister binds IRQ line irq to the endpoint in the caller's
// descriptor slot. The binding holds a reference on the endpoint (it
// dies only when unregistered or when the endpoint's container dies).
func (k *Kernel) SysIrqRegister(core int, tid pm.Ptr, irq int, slot int) Ret {
	defer k.enter(core)()
	_, ep, okk := k.callerEndpoint(tid, slot)
	if !okk || irq < 0 || irq >= 256 {
		return k.post("irq_register", tid, fail(EINVAL))
	}
	if k.irqs == nil {
		k.irqs = make(map[int]*irqState)
	}
	if _, bound := k.irqs[irq]; bound {
		return k.post("irq_register", tid, fail(EALREADY))
	}
	k.PM.EndpointIncRef(ep, 1)
	k.irqs[irq] = &irqState{endpoint: ep}
	k.kclock.Charge(hw.CostMMIOWrite) // unmask at the interrupt controller
	return k.post("irq_register", tid, ok())
}

// SysIrqUnregister releases an IRQ binding owned by the caller (the
// caller must hold a descriptor to the bound endpoint).
func (k *Kernel) SysIrqUnregister(core int, tid pm.Ptr, irq int) Ret {
	defer k.enter(core)()
	t, okk := k.callerThread(tid)
	if !okk {
		return k.post("irq_unregister", tid, fail(EINVAL))
	}
	st, bound := k.irqs[irq]
	if !bound {
		return k.post("irq_unregister", tid, fail(ENOENT))
	}
	if !holdsEndpoint(t, st.endpoint) {
		return k.post("irq_unregister", tid, fail(EPERM))
	}
	delete(k.irqs, irq)
	if err := k.PM.EndpointDecRef(st.endpoint); err != nil {
		return k.post("irq_unregister", tid, fail(errnoOf(err)))
	}
	k.kclock.Charge(hw.CostMMIOWrite) // mask the line
	return k.post("irq_unregister", tid, ok())
}

// SysIrqWait is the handler's wait: if interrupts are pending on the
// line, they are consumed immediately (the count returned in Vals[1]);
// otherwise the caller blocks receiving on the bound endpoint and is
// woken by the next interrupt. With senders queued on that endpoint it
// returns EAGAIN instead: a receiver queued behind them would mix the
// queue's directions, so the handler receives them first.
func (k *Kernel) SysIrqWait(core int, tid pm.Ptr, irq int) Ret {
	defer k.enterPlan(core, func() lockPlan { return k.planIrqWait(core, tid, irq) })()
	t, okk := k.callerThread(tid)
	if !okk {
		return k.post("irq_wait", tid, fail(EINVAL))
	}
	st, bound := k.irqs[irq]
	if !bound {
		return k.post("irq_wait", tid, fail(ENOENT))
	}
	if !holdsEndpoint(t, st.endpoint) {
		return k.post("irq_wait", tid, fail(EPERM))
	}
	if st.pending > 0 {
		n := st.pending
		st.pending = 0
		k.kclock.Charge(hw.CostCacheTouch * 2)
		return k.post("irq_wait", tid, ok(uint64(irq), n))
	}
	ep := k.PM.Edpt(st.endpoint)
	if !ep.QueuedRecv && len(ep.Queue) > 0 {
		return k.post("irq_wait", tid, fail(EAGAIN))
	}
	t.IPC.RecvVA = 0
	t.IPC.RecvEdptSlot = -1
	k.kclock.Charge(hw.CostEndpointOp)
	k.block(t, ep, pm.ThreadBlockedRecv)
	k.PM.PickNext(core)
	return k.post("irq_wait", tid, fail(EWOULDBLOCK))
}

// RaiseIRQ is the device-side entry: vector through the IDT, then
// either wake a blocked handler with the interrupt message or pend the
// edge. Devices call it with the core the interrupt targets.
func (k *Kernel) RaiseIRQ(core int, irq int) {
	// Interrupt dispatch takes the big lock through the funnel like a
	// syscall does (§3: interrupts serialize too), plus the run queue of
	// the handler it may wake, without the syscall trampoline, and owned
	// by no container.
	defer k.enterWith(core, kindIRQ, 0, func() lockPlan { return k.planRaiseIRQ(irq) })()
	k.cur.sys, k.cur.line = "irq", irq
	if k.IRQFilter != nil && !k.IRQFilter(core, irq) {
		return // injected lost edge: never reaches the IDT
	}
	k.kclock.Charge(hw.CostInterruptDispatch)
	st, bound := k.irqs[irq]
	if !bound {
		return // spurious/unbound interrupt: dropped, as hardware masks it
	}
	ep, okk := k.PM.TryEdpt(st.endpoint)
	if !okk {
		return
	}
	if ep.QueuedRecv && len(ep.Queue) > 0 {
		k.handOff(ep, pm.Msg{Regs: [4]uint64{uint64(irq), st.pending + 1}})
		st.pending = 0
		return
	}
	st.pending++
}

// IRQBindings exposes the binding table to the verifier (endpoint
// reference counting must account for IRQ-held references).
func (k *Kernel) IRQBindings() map[int]pm.Ptr {
	out := make(map[int]pm.Ptr, len(k.irqs))
	for irq, st := range k.irqs {
		out[irq] = st.endpoint
	}
	return out
}

// dropIRQBindingsFor removes bindings whose endpoint is being destroyed
// with its container; the binding's reference is surrendered without a
// decref (the endpoint's teardown zeroes the count itself).
func (k *Kernel) dropIRQBindingsFor(ep pm.Ptr) int {
	dropped := 0
	for irq, st := range k.irqs {
		if st.endpoint == ep {
			delete(k.irqs, irq)
			dropped++
		}
	}
	return dropped
}
