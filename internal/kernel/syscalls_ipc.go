package kernel

import (
	"atmosphere/internal/hw"
	"atmosphere/internal/obs/account"
	"atmosphere/internal/pm"
)

// IPC syscalls (§3): endpoints carry scalar registers plus optional
// capabilities — a memory page reference, an endpoint reference, and an
// IOMMU domain identifier. A send with no waiting receiver blocks the
// sender; a receive with no waiting sender blocks the receiver; call and
// reply are the rendezvous fastpaths measured in Table 3.

// SendArgs are the user-visible arguments of send/call.
type SendArgs struct {
	Regs [4]uint64
	// SendPage shares the page mapped at PageVA in the sender's address
	// space (the receiver gains a mapping; the sender keeps its own).
	SendPage bool
	PageVA   hw.VirtAddr
	// GrantPage moves the page mapped at PageVA out of the sender's
	// address space entirely: the sender's mapping is revoked and its
	// quota credited at send, the reference rides the ledger's InFlight
	// container, and the receiver becomes the page's sole owner at
	// delivery — zero-copy bulk transfer by linear ownership instead of
	// scalar copy.
	GrantPage bool
	// SendEdpt shares the endpoint in the sender's descriptor slot
	// EdptSlot.
	SendEdpt bool
	EdptSlot int
	// IOMMUDomain passes a DMA domain identifier as a scalar capability.
	IOMMUDomain uint64
}

// RecvArgs are the user-visible arguments of recv.
type RecvArgs struct {
	// PageVA is where an incoming page gets mapped in the receiver's
	// address space.
	PageVA hw.VirtAddr
	// EdptSlot is where an incoming endpoint descriptor is installed
	// (-1: first free slot).
	EdptSlot int
}

// SysNewEndpoint creates an endpoint charged to the caller's container
// and installs it in the caller's descriptor slot.
func (k *Kernel) SysNewEndpoint(core int, tid pm.Ptr, slot int) Ret {
	defer k.enter(core)()
	t, okk := k.callerThread(tid)
	if !okk {
		return k.post("new_endpoint", tid, fail(EINVAL))
	}
	if slot < 0 || slot >= pm.MaxEndpoints || t.Endpoints[slot] != pm.NoEndpoint {
		return k.post("new_endpoint", tid, fail(EINVAL))
	}
	cntr := k.PM.Proc(t.OwningProc).Owner
	e, err := k.PM.NewEndpoint(cntr, 1)
	if err != nil {
		return k.post("new_endpoint", tid, fail(errnoOf(err)))
	}
	t.Endpoints[slot] = e
	return k.post("new_endpoint", tid, ok(uint64(e)))
}

// SysCloseEndpoint drops the caller's descriptor in slot, releasing its
// reference (the endpoint dies with its last descriptor). A thread
// blocked on the endpoint cannot be the caller (blocked threads cannot
// issue syscalls), so the queue invariants are preserved.
func (k *Kernel) SysCloseEndpoint(core int, tid pm.Ptr, slot int) Ret {
	defer k.enterPlan(core, func() lockPlan { return k.planCloseEndpoint(tid, slot) })()
	defer k.gcShards() // runs before leave: drop the shard if the endpoint died
	t, okk := k.callerThread(tid)
	if !okk {
		return k.post("close_endpoint", tid, fail(EINVAL))
	}
	if slot < 0 || slot >= pm.MaxEndpoints || t.Endpoints[slot] == pm.NoEndpoint {
		return k.post("close_endpoint", tid, fail(EINVAL))
	}
	ep := t.Endpoints[slot]
	t.Endpoints[slot] = pm.NoEndpoint
	if err := k.PM.EndpointDecRef(ep); err != nil {
		return k.post("close_endpoint", tid, fail(errnoOf(err)))
	}
	return k.post("close_endpoint", tid, ok())
}

// resolveMsg validates and resolves SendArgs into a pm.Msg, taking a
// reference on any transferred page so it survives until delivery. A
// grant additionally revokes the sender's own mapping: the message's
// reference — parked on the ledger's InFlight container — becomes the
// page's only tie to a container until delivery lands it on the
// receiver.
func (k *Kernel) resolveMsg(core int, t *pm.Thread, args SendArgs) (pm.Msg, Errno) {
	msg := pm.Msg{Regs: args.Regs}
	if args.SendPage || args.GrantPage {
		proc := k.PM.Proc(t.OwningProc)
		e, covered := proc.PageTable.Lookup(args.PageVA)
		if !covered {
			return msg, ENOENT
		}
		if err := k.Alloc.IncRef(e.Phys); err != nil {
			return msg, EINVAL
		}
		// The new reference belongs to the message, not to the sender's
		// mapping: park it on the in-flight pseudo-container.
		k.Ledger().MoveRef(e.Phys, proc.Owner, account.InFlight)
		msg.HasPage = true
		msg.Page = e.Phys
		msg.PageSize = e.Size
		msg.PagePerm = e.Perm
		if args.GrantPage && !k.grantLeak {
			// Ownership moves with the message. The refcount cannot hit
			// zero here: the message's reference was just taken above.
			base := args.PageVA &^ hw.VirtAddr(e.Size.Bytes()-1)
			if _, err := proc.PageTable.Unmap(base); err != nil {
				panic(err) // looked up above; kernel invariant if it fires
			}
			if _, err := k.Alloc.DecRef(e.Phys); err != nil {
				panic(err)
			}
			k.PM.CreditPages(proc.Owner, pagesIn4K(e.Size))
			k.shootdown(core, proc.PageTable.CR3(), base, e.Size)
		}
	}
	if args.SendEdpt {
		if args.EdptSlot < 0 || args.EdptSlot >= pm.MaxEndpoints {
			k.dropMsg(&msg)
			return msg, EINVAL
		}
		ep := t.Endpoints[args.EdptSlot]
		if ep == pm.NoEndpoint {
			k.dropMsg(&msg)
			return msg, ENOENT
		}
		msg.HasEndpoint = true
		msg.Endpoint = ep
	}
	// IOMMU identifiers travel as scalars; validation happens when the
	// receiver binds the domain.
	if args.IOMMUDomain != 0 {
		msg.IOMMUDomain = iommuDomainID(args.IOMMUDomain)
	}
	return msg, OK
}

// dropMsg releases the references a resolved-but-undeliverable message
// holds.
func (k *Kernel) dropMsg(msg *pm.Msg) {
	if msg.HasPage {
		// The DecRef releases the message's reference, not one of the
		// caller's own mappings.
		prev := k.Ledger().SwapContext(account.InFlight)
		if _, err := k.Alloc.DecRef(msg.Page); err != nil {
			panic(err)
		}
		k.Ledger().SetContext(prev)
		msg.HasPage = false
	}
}

// deliver hands msg to receiver rt: maps the page at the receiver's
// requested address (charging the receiver's container), installs the
// endpoint descriptor, and stores the scalars. On failure the message's
// references are dropped and the error is reported to the receiver.
func (k *Kernel) deliver(rt *pm.Thread, msg pm.Msg) error {
	if msg.HasPage {
		proc := k.PM.Proc(rt.OwningProc)
		// Page-table nodes this mapping materializes belong to the
		// receiver's container, whichever side drove the rendezvous.
		k.Ledger().SetContext(proc.Owner)
		if err := k.PM.ChargePages(proc.Owner, pagesIn4K(msg.PageSize)); err != nil {
			k.dropMsg(&msg)
			return err
		}
		nodesBefore := proc.PageTable.PageClosure().Len()
		if err := proc.PageTable.Map(rt.IPC.RecvVA, msg.Page, msg.PageSize, msg.PagePerm); err != nil {
			k.PM.CreditPages(proc.Owner, pagesIn4K(msg.PageSize))
			k.dropMsg(&msg)
			return err
		}
		// Charge any page-table nodes the mapping materialized; if the
		// receiver's quota cannot carry them, the transfer is undone.
		nodesAfter := proc.PageTable.PageClosure().Len()
		if nodesAfter > nodesBefore {
			if err := k.PM.ChargePages(proc.Owner, uint64(nodesAfter-nodesBefore)); err != nil {
				if _, uerr := proc.PageTable.Unmap(rt.IPC.RecvVA); uerr != nil {
					panic(uerr)
				}
				proc.PageTable.PruneEmpty()
				now := proc.PageTable.PageClosure().Len()
				if now < nodesBefore {
					k.PM.CreditPages(proc.Owner, uint64(nodesBefore-now))
				}
				k.PM.CreditPages(proc.Owner, pagesIn4K(msg.PageSize))
				k.dropMsg(&msg)
				return err
			}
		}
		k.Ledger().MoveRef(msg.Page, account.InFlight, proc.Owner)
	}
	if msg.HasEndpoint {
		// The transferred endpoint may have been destroyed while the
		// sender sat queued (container kill revokes and frees it); a
		// dangling install would corrupt the refcount invariant.
		if _, alive := k.PM.TryEdpt(msg.Endpoint); !alive {
			return ErrEndpointDead
		}
		slot := rt.IPC.RecvEdptSlot
		if slot < 0 {
			slot = firstFreeSlot(rt)
		}
		if slot < 0 || slot >= pm.MaxEndpoints || rt.Endpoints[slot] != pm.NoEndpoint {
			// No room: the page mapping above stands (the receiver
			// asked for it); only the endpoint transfer fails.
			return ErrEndpointDead
		}
		rt.Endpoints[slot] = msg.Endpoint
		k.PM.EndpointIncRef(msg.Endpoint, 1)
	}
	rt.IPC.Msg = msg
	return nil
}

func firstFreeSlot(t *pm.Thread) int {
	for i, e := range t.Endpoints {
		if e == pm.NoEndpoint {
			return i
		}
	}
	return -1
}

// SysSend sends on the endpoint in the caller's descriptor slot. If a
// receiver is waiting it completes immediately; otherwise the caller
// blocks (EWOULDBLOCK reports "blocked", completion arrives at wake).
func (k *Kernel) SysSend(core int, tid pm.Ptr, slot int, args SendArgs) Ret {
	defer k.enterPlan(core, func() lockPlan { return k.planIPC(core, tid, slot, args.SendPage || args.GrantPage) })()
	t, okk := k.callerThread(tid)
	if !okk {
		return k.post("send", tid, fail(EINVAL))
	}
	if slot < 0 || slot >= pm.MaxEndpoints || t.Endpoints[slot] == pm.NoEndpoint {
		return k.post("send", tid, fail(EINVAL))
	}
	ep := k.PM.Edpt(t.Endpoints[slot])
	msg, errno := k.resolveMsg(core, t, args)
	if errno != OK {
		return k.post("send", tid, fail(errno))
	}
	k.kclock.Charge(hw.CostEndpointOp)
	if ep.QueuedRecv && len(ep.Queue) > 0 {
		// Rendezvous: pop the receiver, deliver, wake it.
		rptr := ep.Queue[0]
		ep.Queue = ep.Queue[1:]
		rt := k.PM.Thrd(rptr)
		err := k.deliver(rt, msg)
		rt.IPC.WaitingOn = 0
		k.PM.Wake(rptr, err)
		return k.post("send", tid, ok())
	}
	// Block the sender with the resolved message.
	t.IPC.Msg = msg
	t.IPC.WaitingOn = t.Endpoints[slot]
	k.PM.BlockCurrent(tid, pm.ThreadBlockedSend)
	ep.QueuedRecv = false
	ep.Queue = append(ep.Queue, tid)
	k.PM.PickNext(core)
	return k.post("send", tid, fail(EWOULDBLOCK))
}

// SysSendAsync is the non-blocking send a batch drain relies on (a
// blocking op would stall the rest of the ring). If a receiver is
// parked the message is delivered as an ordinary rendezvous; otherwise
// it is appended to the endpoint's bounded buffer and the caller keeps
// running — EAGAIN when the buffer is full, refused *before* the
// message resolves so even a grant leaves the sender untouched.
// Endpoint transfers are rejected: a descriptor sitting in a buffer
// would hold an unaccounted reference across the buffer's lifetime.
func (k *Kernel) SysSendAsync(core int, tid pm.Ptr, slot int, args SendArgs) Ret {
	defer k.enterPlan(core, func() lockPlan { return k.planIPC(core, tid, slot, args.SendPage || args.GrantPage) })()
	t, okk := k.callerThread(tid)
	if !okk {
		return k.post("send_async", tid, fail(EINVAL))
	}
	if slot < 0 || slot >= pm.MaxEndpoints || t.Endpoints[slot] == pm.NoEndpoint {
		return k.post("send_async", tid, fail(EINVAL))
	}
	if args.SendEdpt {
		return k.post("send_async", tid, fail(EINVAL))
	}
	ep := k.PM.Edpt(t.Endpoints[slot])
	rendezvous := ep.QueuedRecv && len(ep.Queue) > 0
	if !rendezvous && len(ep.Buffer) >= pm.MaxEndpointBuffer {
		return k.post("send_async", tid, fail(EAGAIN))
	}
	msg, errno := k.resolveMsg(core, t, args)
	if errno != OK {
		return k.post("send_async", tid, fail(errno))
	}
	if rendezvous {
		k.kclock.Charge(hw.CostEndpointOp)
		rptr := ep.Queue[0]
		ep.Queue = ep.Queue[1:]
		rt := k.PM.Thrd(rptr)
		err := k.deliver(rt, msg)
		rt.IPC.WaitingOn = 0
		k.PM.Wake(rptr, err)
		return k.post("send_async", tid, ok())
	}
	k.kclock.Charge(hw.CostEndpointBuffer)
	ep.Buffer = append(ep.Buffer, msg)
	return k.post("send_async", tid, ok())
}

// SysRecv receives on the endpoint in the caller's descriptor slot. If a
// sender is waiting its message is delivered immediately; otherwise the
// caller blocks and the message is delivered at wake via the thread's
// IPC state.
func (k *Kernel) SysRecv(core int, tid pm.Ptr, slot int, args RecvArgs) Ret {
	defer k.enterPlan(core, func() lockPlan { return k.planIPC(core, tid, slot, false) })()
	t, okk := k.callerThread(tid)
	if !okk {
		return k.post("recv", tid, fail(EINVAL))
	}
	if slot < 0 || slot >= pm.MaxEndpoints || t.Endpoints[slot] == pm.NoEndpoint {
		return k.post("recv", tid, fail(EINVAL))
	}
	ep := k.PM.Edpt(t.Endpoints[slot])
	t.IPC.RecvVA = args.PageVA
	t.IPC.RecvEdptSlot = args.EdptSlot
	k.kclock.Charge(hw.CostEndpointOp)
	if len(ep.Buffer) > 0 {
		// Asynchronously buffered messages drain ahead of any blocked
		// senders: no partner to wake, just the buffer pop.
		msg := ep.Buffer[0]
		ep.Buffer = ep.Buffer[1:]
		k.kclock.Charge(hw.CostEndpointBuffer)
		if err := k.deliver(t, msg); err != nil {
			return k.post("recv", tid, fail(errnoOf(err)))
		}
		return k.post("recv", tid, ok(msg.Regs[0], msg.Regs[1], msg.Regs[2], msg.Regs[3]))
	}
	if !ep.QueuedRecv && len(ep.Queue) > 0 {
		// Rendezvous: pop the sender, take its message, wake it.
		sptr := ep.Queue[0]
		ep.Queue = ep.Queue[1:]
		st := k.PM.Thrd(sptr)
		msg := st.IPC.Msg
		st.IPC.Msg = pm.Msg{}
		st.IPC.WaitingOn = 0
		err := k.deliver(t, msg)
		k.PM.Wake(sptr, nil)
		if err != nil {
			return k.post("recv", tid, fail(errnoOf(err)))
		}
		return k.post("recv", tid, ok(msg.Regs[0], msg.Regs[1], msg.Regs[2], msg.Regs[3]))
	}
	// Block the receiver.
	t.IPC.WaitingOn = t.Endpoints[slot]
	k.PM.BlockCurrent(tid, pm.ThreadBlockedRecv)
	ep.QueuedRecv = true
	ep.Queue = append(ep.Queue, tid)
	k.PM.PickNext(core)
	return k.post("recv", tid, fail(EWOULDBLOCK))
}

// SysCall is the call fastpath (Table 3): it requires a server already
// blocked receiving on the endpoint, delivers the message, blocks the
// caller waiting for the reply, and switches directly to the server —
// one syscall, one direct handoff, no scheduler pass.
func (k *Kernel) SysCall(core int, tid pm.Ptr, slot int, args SendArgs) Ret {
	defer k.enterFastPlan(core, func() lockPlan { return k.planIPC(core, tid, slot, args.SendPage || args.GrantPage) })()
	t, okk := k.callerThread(tid)
	if !okk {
		return k.post("call", tid, fail(EINVAL))
	}
	if slot < 0 || slot >= pm.MaxEndpoints || t.Endpoints[slot] == pm.NoEndpoint {
		return k.post("call", tid, fail(EINVAL))
	}
	ep := k.PM.Edpt(t.Endpoints[slot])
	if !ep.QueuedRecv || len(ep.Queue) == 0 {
		return k.post("call", tid, fail(EWOULDBLOCK))
	}
	msg, errno := k.resolveMsg(core, t, args)
	if errno != OK {
		return k.post("call", tid, fail(errno))
	}
	k.kclock.Charge(hw.CostEndpointOp)
	server := ep.Queue[0]
	ep.Queue = ep.Queue[1:]
	st := k.PM.Thrd(server)
	err := k.deliver(st, msg)
	st.IPC.WaitingOn = 0
	k.PM.Wake(server, err)
	// Caller blocks awaiting the reply on the same endpoint.
	t.IPC.RecvVA = 0
	t.IPC.RecvEdptSlot = -1
	t.IPC.WaitingOn = t.Endpoints[slot]
	k.PM.BlockCurrent(tid, pm.ThreadBlockedRecv)
	ep.QueuedRecv = true
	ep.Queue = append(ep.Queue, tid)
	// Direct handoff to the server if it shares the caller's core.
	if st.Core == core {
		k.noteSwitch(true, server)
		k.PM.DirectSwitch(server)
	}
	return k.post("call", tid, fail(EWOULDBLOCK))
}

// SysReply is the reply fastpath: it delivers to a client blocked
// receiving on the endpoint and switches directly back to it.
func (k *Kernel) SysReply(core int, tid pm.Ptr, slot int, args SendArgs) Ret {
	defer k.enterFastPlan(core, func() lockPlan { return k.planIPC(core, tid, slot, args.SendPage || args.GrantPage) })()
	t, okk := k.callerThread(tid)
	if !okk {
		return k.post("reply", tid, fail(EINVAL))
	}
	if slot < 0 || slot >= pm.MaxEndpoints || t.Endpoints[slot] == pm.NoEndpoint {
		return k.post("reply", tid, fail(EINVAL))
	}
	ep := k.PM.Edpt(t.Endpoints[slot])
	if !ep.QueuedRecv || len(ep.Queue) == 0 {
		return k.post("reply", tid, fail(EWOULDBLOCK))
	}
	msg, errno := k.resolveMsg(core, t, args)
	if errno != OK {
		return k.post("reply", tid, fail(errno))
	}
	k.kclock.Charge(hw.CostEndpointOp)
	client := ep.Queue[0]
	ep.Queue = ep.Queue[1:]
	ct := k.PM.Thrd(client)
	err := k.deliver(ct, msg)
	ct.IPC.WaitingOn = 0
	k.PM.Wake(client, err)
	if ct.Core == core {
		k.noteSwitch(true, client)
		k.PM.DirectSwitch(client)
	}
	return k.post("reply", tid, ok())
}

// SysReplyRecv is the server fastpath combining reply and the next
// receive in one kernel crossing (the shape seL4's seL4_ReplyRecv has):
// deliver the reply to the waiting client, switch to it if co-located,
// and leave the server blocked receiving on the same endpoint.
func (k *Kernel) SysReplyRecv(core int, tid pm.Ptr, slot int, args SendArgs, recv RecvArgs) Ret {
	defer k.enterFastPlan(core, func() lockPlan { return k.planIPC(core, tid, slot, args.SendPage || args.GrantPage) })()
	t, okk := k.callerThread(tid)
	if !okk {
		return k.post("reply_recv", tid, fail(EINVAL))
	}
	if slot < 0 || slot >= pm.MaxEndpoints || t.Endpoints[slot] == pm.NoEndpoint {
		return k.post("reply_recv", tid, fail(EINVAL))
	}
	ep := k.PM.Edpt(t.Endpoints[slot])
	// Reply half.
	if ep.QueuedRecv && len(ep.Queue) > 0 {
		msg, errno := k.resolveMsg(core, t, args)
		if errno != OK {
			return k.post("reply_recv", tid, fail(errno))
		}
		k.kclock.Charge(hw.CostEndpointOp)
		client := ep.Queue[0]
		ep.Queue = ep.Queue[1:]
		ct := k.PM.Thrd(client)
		err := k.deliver(ct, msg)
		ct.IPC.WaitingOn = 0
		k.PM.Wake(client, err)
		defer func() {
			if ct.Core == core && ct.State == pm.ThreadRunnable {
				k.noteSwitch(true, client)
				k.PM.DirectSwitch(client)
			}
		}()
	}
	// Receive half.
	t.IPC.RecvVA = recv.PageVA
	t.IPC.RecvEdptSlot = recv.EdptSlot
	if len(ep.Buffer) > 0 {
		// Buffered messages drain first, exactly as in SysRecv.
		msg := ep.Buffer[0]
		ep.Buffer = ep.Buffer[1:]
		k.kclock.Charge(hw.CostEndpointBuffer)
		if err := k.deliver(t, msg); err != nil {
			return k.post("reply_recv", tid, fail(errnoOf(err)))
		}
		return k.post("reply_recv", tid, ok(msg.Regs[0], msg.Regs[1], msg.Regs[2], msg.Regs[3]))
	}
	if !ep.QueuedRecv && len(ep.Queue) > 0 {
		// A sender is already queued: rendezvous inline.
		sptr := ep.Queue[0]
		ep.Queue = ep.Queue[1:]
		st := k.PM.Thrd(sptr)
		msg := st.IPC.Msg
		st.IPC.Msg = pm.Msg{}
		st.IPC.WaitingOn = 0
		err := k.deliver(t, msg)
		k.PM.Wake(sptr, nil)
		if err != nil {
			return k.post("reply_recv", tid, fail(errnoOf(err)))
		}
		return k.post("reply_recv", tid, ok(msg.Regs[0], msg.Regs[1], msg.Regs[2], msg.Regs[3]))
	}
	// Block waiting for the next request.
	t.IPC.WaitingOn = t.Endpoints[slot]
	k.PM.BlockCurrent(tid, pm.ThreadBlockedRecv)
	ep.QueuedRecv = true
	ep.Queue = append(ep.Queue, tid)
	return k.post("reply_recv", tid, fail(EWOULDBLOCK))
}

// unlinkFromEndpoint removes a blocked thread from the endpoint queue it
// waits on and drops any page reference its pending message holds.
func (k *Kernel) unlinkFromEndpoint(thrd pm.Ptr, t *pm.Thread) {
	if t.IPC.WaitingOn == 0 {
		return
	}
	if ep, okk := k.PM.TryEdpt(t.IPC.WaitingOn); okk {
		for i, q := range ep.Queue {
			if q == thrd {
				ep.Queue = append(ep.Queue[:i], ep.Queue[i+1:]...)
				break
			}
		}
	}
	if t.State == pm.ThreadBlockedSend {
		k.dropMsg(&t.IPC.Msg)
	}
	t.IPC.WaitingOn = 0
}

// destroyEndpoint tears down an endpoint whose owning container is dying:
// queued waiters outside the dying set are woken with EDEADOBJ, every
// descriptor pointing at the endpoint is revoked, and the endpoint page
// returns to the (dying) owner's quota so accounting stays exact through
// the teardown.
func (k *Kernel) destroyEndpoint(eptr pm.Ptr, dying map[pm.Ptr]struct{}) {
	e := k.PM.Edpt(eptr)
	for _, q := range append([]pm.Ptr(nil), e.Queue...) {
		qt := k.PM.Thrd(q)
		if qt.State == pm.ThreadBlockedSend {
			k.dropMsg(&qt.IPC.Msg)
		}
		qt.IPC.WaitingOn = 0
		if _, isDying := dying[qt.OwningCntr]; !isDying {
			k.PM.Wake(q, ErrEndpointDead)
		}
		// Threads inside the dying set stay blocked; the reaper frees
		// them momentarily.
	}
	e.Queue = nil
	// Buffered asynchronous messages die with the endpoint: drop their
	// page references (a granted page frees here — its sender mapping
	// and quota were already settled at send). Buffered messages never
	// carry endpoint descriptors (SysSendAsync refuses SendEdpt), so no
	// buffer scrub is needed when *other* endpoints die.
	for i := range e.Buffer {
		k.dropMsg(&e.Buffer[i])
	}
	e.Buffer = nil
	// Revoke every descriptor referencing the endpoint, and any IRQ
	// bindings holding it (their lines go silent with the driver).
	for _, t := range k.PM.ThrdPerms {
		for i, d := range t.Endpoints {
			if d == eptr {
				t.Endpoints[i] = pm.NoEndpoint
				e.RefCount--
			}
		}
	}
	e.RefCount -= k.dropIRQBindingsFor(eptr)
	if e.RefCount != 0 {
		panic("kernel: endpoint refcount does not match descriptors")
	}
	// Scrub pending messages that transfer the dying endpoint: a sender
	// blocked on some *surviving* endpoint may still carry it in its
	// message, and a later rendezvous would deliver a dangling pointer.
	for _, t := range k.PM.ThrdPerms {
		if t.IPC.Msg.HasEndpoint && t.IPC.Msg.Endpoint == eptr {
			t.IPC.Msg.HasEndpoint = false
			t.IPC.Msg.Endpoint = pm.NoEndpoint
		}
	}
	// Force destruction regardless of the counted refs already dropped.
	k.PM.EndpointIncRef(eptr, 1)
	if err := k.PM.EndpointDecRef(eptr); err != nil {
		panic(err)
	}
}
