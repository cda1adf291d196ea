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
	t, ep, okk := k.callerEndpoint(tid, slot)
	if !okk {
		return k.post("close_endpoint", tid, fail(EINVAL))
	}
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
		if args.GrantPage && k.mutant != MutantGrantLeak {
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
			k.shootdown(core, proc, base, e.Size)
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
		nodesBefore := proc.PageTable.NodeCount()
		if err := proc.PageTable.Map(rt.IPC.RecvVA, msg.Page, msg.PageSize, msg.PagePerm); err != nil {
			// A failed map leaves the table as it was: only the page's
			// charge is undone.
			k.PM.CreditPages(proc.Owner, pagesIn4K(msg.PageSize))
			k.dropMsg(&msg)
			return err
		}
		// Charge any page-table nodes the mapping materialized; if the
		// receiver's quota cannot carry them, the transfer is undone.
		nodesAfter := proc.PageTable.NodeCount()
		if nodesAfter > nodesBefore {
			if err := k.PM.ChargePages(proc.Owner, uint64(nodesAfter-nodesBefore)); err != nil {
				if _, uerr := proc.PageTable.Unmap(rt.IPC.RecvVA); uerr != nil {
					panic(uerr)
				}
				k.pruneNodes(proc.Owner, proc.PageTable, nodesBefore)
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

// callerEndpoint validates the invoking thread and its descriptor slot,
// returning the thread and the endpoint the slot names.
func (k *Kernel) callerEndpoint(tid pm.Ptr, slot int) (*pm.Thread, pm.Ptr, bool) {
	t, okk := k.callerThread(tid)
	if !okk || slot < 0 || slot >= pm.MaxEndpoints || t.Endpoints[slot] == pm.NoEndpoint {
		return nil, pm.NoEndpoint, false
	}
	return t, t.Endpoints[slot], true
}

// holdsEndpoint reports whether t holds a descriptor to ep.
func holdsEndpoint(t *pm.Thread, ep pm.Ptr) bool {
	for _, e := range t.Endpoints {
		if e == ep {
			return true
		}
	}
	return false
}

// handOff pops the receiver at the head of ep's queue, delivers msg to
// it and wakes it with the delivery's outcome. It returns the receiver.
func (k *Kernel) handOff(ep *pm.Endpoint, msg pm.Msg) *pm.Thread {
	rptr := ep.Queue[0]
	ep.Queue = ep.Queue[:copy(ep.Queue, ep.Queue[1:])]
	rt := k.PM.Thrd(rptr)
	err := k.deliver(rt, msg)
	rt.IPC.WaitingOn = 0
	k.PM.Wake(rptr, err)
	return rt
}

// receive delivers the next message waiting on ep to t: a buffered one
// first (no partner to wake, just the buffer pop), else the head
// sender's, waking that sender. The result carries the message's
// scalars, or the delivery's error; got is false when nothing waits.
func (k *Kernel) receive(t *pm.Thread, ep *pm.Endpoint) (r Ret, got bool) {
	var msg pm.Msg
	var err error
	switch {
	case len(ep.Buffer) > 0:
		msg = ep.Buffer[0]
		ep.Buffer = ep.Buffer[:copy(ep.Buffer, ep.Buffer[1:])]
		k.kclock.Charge(hw.CostEndpointBuffer)
		err = k.deliver(t, msg)
	case !ep.QueuedRecv && len(ep.Queue) > 0:
		sptr := ep.Queue[0]
		ep.Queue = ep.Queue[:copy(ep.Queue, ep.Queue[1:])]
		st := k.PM.Thrd(sptr)
		msg, st.IPC.Msg = st.IPC.Msg, pm.Msg{}
		st.IPC.WaitingOn = 0
		err = k.deliver(t, msg)
		k.PM.Wake(sptr, nil)
	default:
		return Ret{}, false
	}
	if err != nil {
		return fail(errnoOf(err)), true
	}
	return Ret{Vals: msg.Regs}, true
}

// block parks the caller t at the tail of ep's queue in state: as a
// sender (its resolved message already in t.IPC.Msg) or as a receiver.
func (k *Kernel) block(t *pm.Thread, ep *pm.Endpoint, state pm.ThreadState) {
	t.IPC.WaitingOn = ep.Ptr
	k.PM.BlockCurrent(t.Ptr, state)
	ep.QueuedRecv = state == pm.ThreadBlockedRecv
	ep.Queue = append(ep.Queue, t.Ptr)
}

// switchTo hands core directly to t, a partner just woken on it — the
// fastpaths' direct switch, with no scheduler pass. A partner on
// another core waits on its own run queue.
func (k *Kernel) switchTo(core int, t *pm.Thread) {
	if t.Core == core && t.State == pm.ThreadRunnable {
		k.noteSwitch(true, t.Ptr)
		k.PM.DirectSwitch(t.Ptr)
	}
}

// SysSend sends on the endpoint in the caller's descriptor slot. If a
// receiver is waiting it completes immediately; otherwise the caller
// blocks (EWOULDBLOCK reports "blocked", completion arrives at wake).
func (k *Kernel) SysSend(core int, tid pm.Ptr, slot int, args SendArgs) Ret {
	defer k.enterPlan(core, func() lockPlan { return k.planIPC(ipcSend, core, tid, slot, args.SendPage || args.GrantPage) })()
	t, eptr, okk := k.callerEndpoint(tid, slot)
	if !okk {
		return k.post("send", tid, fail(EINVAL))
	}
	ep := k.PM.Edpt(eptr)
	msg, errno := k.resolveMsg(core, t, args)
	if errno != OK {
		return k.post("send", tid, fail(errno))
	}
	k.kclock.Charge(hw.CostEndpointOp)
	if ep.QueuedRecv && len(ep.Queue) > 0 {
		k.handOff(ep, msg)
		return k.post("send", tid, ok())
	}
	t.IPC.Msg = msg
	k.block(t, ep, pm.ThreadBlockedSend)
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
	defer k.enterPlan(core, func() lockPlan {
		return k.planIPC(ipcSendAsync, core, tid, slot, args.SendPage || args.GrantPage)
	})()
	t, eptr, okk := k.callerEndpoint(tid, slot)
	if !okk || args.SendEdpt {
		return k.post("send_async", tid, fail(EINVAL))
	}
	ep := k.PM.Edpt(eptr)
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
		k.handOff(ep, msg)
		return k.post("send_async", tid, ok())
	}
	k.kclock.Charge(hw.CostEndpointBuffer)
	ep.Buffer = append(ep.Buffer, msg)
	return k.post("send_async", tid, ok())
}

// SysRecv receives on the endpoint in the caller's descriptor slot. If a
// message is buffered or a sender is waiting, it is delivered
// immediately; otherwise the caller blocks and the message is delivered
// at wake via the thread's IPC state.
func (k *Kernel) SysRecv(core int, tid pm.Ptr, slot int, args RecvArgs) Ret {
	defer k.enterPlan(core, func() lockPlan { return k.planIPC(ipcRecv, core, tid, slot, false) })()
	t, eptr, okk := k.callerEndpoint(tid, slot)
	if !okk {
		return k.post("recv", tid, fail(EINVAL))
	}
	ep := k.PM.Edpt(eptr)
	t.IPC.RecvVA = args.PageVA
	t.IPC.RecvEdptSlot = args.EdptSlot
	k.kclock.Charge(hw.CostEndpointOp)
	if r, got := k.receive(t, ep); got {
		return k.post("recv", tid, r)
	}
	k.block(t, ep, pm.ThreadBlockedRecv)
	k.PM.PickNext(core)
	return k.post("recv", tid, fail(EWOULDBLOCK))
}

// SysCall is the call fastpath (Table 3): it requires a server already
// blocked receiving on the endpoint, delivers the message, blocks the
// caller waiting for the reply, and switches directly to the server —
// one syscall, one direct handoff, no scheduler pass.
func (k *Kernel) SysCall(core int, tid pm.Ptr, slot int, args SendArgs) Ret {
	defer k.enterFastPlan(core, func() lockPlan { return k.planIPC(ipcCall, core, tid, slot, args.SendPage || args.GrantPage) })()
	t, eptr, okk := k.callerEndpoint(tid, slot)
	if !okk {
		return k.post("call", tid, fail(EINVAL))
	}
	ep := k.PM.Edpt(eptr)
	if !ep.QueuedRecv || len(ep.Queue) == 0 {
		return k.post("call", tid, fail(EWOULDBLOCK))
	}
	msg, errno := k.resolveMsg(core, t, args)
	if errno != OK {
		return k.post("call", tid, fail(errno))
	}
	k.kclock.Charge(hw.CostEndpointOp)
	server := k.handOff(ep, msg)
	// Caller blocks awaiting the reply on the same endpoint.
	t.IPC.RecvVA = 0
	t.IPC.RecvEdptSlot = -1
	k.block(t, ep, pm.ThreadBlockedRecv)
	k.switchTo(core, server)
	return k.post("call", tid, fail(EWOULDBLOCK))
}

// SysReply is the reply fastpath: it delivers to a client blocked
// receiving on the endpoint and switches directly back to it.
func (k *Kernel) SysReply(core int, tid pm.Ptr, slot int, args SendArgs) Ret {
	defer k.enterFastPlan(core, func() lockPlan { return k.planIPC(ipcReply, core, tid, slot, args.SendPage || args.GrantPage) })()
	t, eptr, okk := k.callerEndpoint(tid, slot)
	if !okk {
		return k.post("reply", tid, fail(EINVAL))
	}
	ep := k.PM.Edpt(eptr)
	if !ep.QueuedRecv || len(ep.Queue) == 0 {
		return k.post("reply", tid, fail(EWOULDBLOCK))
	}
	msg, errno := k.resolveMsg(core, t, args)
	if errno != OK {
		return k.post("reply", tid, fail(errno))
	}
	k.kclock.Charge(hw.CostEndpointOp)
	client := k.handOff(ep, msg)
	k.switchTo(core, client)
	return k.post("reply", tid, ok())
}

// SysReplyRecv is the server fastpath combining reply and the next
// receive in one kernel crossing (the shape seL4's seL4_ReplyRecv has):
// deliver the reply to the waiting client, switch to it if co-located,
// and leave the server blocked receiving on the same endpoint.
func (k *Kernel) SysReplyRecv(core int, tid pm.Ptr, slot int, args SendArgs, recv RecvArgs) Ret {
	defer k.enterFastPlan(core, func() lockPlan {
		return k.planIPC(ipcReplyRecv, core, tid, slot, args.SendPage || args.GrantPage)
	})()
	t, eptr, okk := k.callerEndpoint(tid, slot)
	if !okk {
		return k.post("reply_recv", tid, fail(EINVAL))
	}
	ep := k.PM.Edpt(eptr)
	// Reply half: the switch to the client runs once the receive half
	// has settled the server.
	if ep.QueuedRecv && len(ep.Queue) > 0 {
		msg, errno := k.resolveMsg(core, t, args)
		if errno != OK {
			return k.post("reply_recv", tid, fail(errno))
		}
		k.kclock.Charge(hw.CostEndpointOp)
		client := k.handOff(ep, msg)
		defer k.switchTo(core, client)
	}
	// Receive half.
	t.IPC.RecvVA = recv.PageVA
	t.IPC.RecvEdptSlot = recv.EdptSlot
	if r, got := k.receive(t, ep); got {
		return k.post("reply_recv", tid, r)
	}
	k.block(t, ep, pm.ThreadBlockedRecv)
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
// every queued waiter is woken with EDEADOBJ (reap frees the dying
// threads first, so each lives outside the dying subtree), every
// descriptor pointing at the endpoint is revoked, and the endpoint page
// returns to the (dying) owner's quota so accounting stays exact through
// the teardown.
func (k *Kernel) destroyEndpoint(eptr pm.Ptr) {
	e := k.PM.Edpt(eptr)
	for _, q := range e.Queue {
		qt := k.PM.Thrd(q)
		if qt.State == pm.ThreadBlockedSend {
			k.dropMsg(&qt.IPC.Msg)
		}
		qt.IPC.WaitingOn = 0
		k.PM.Wake(q, ErrEndpointDead)
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
