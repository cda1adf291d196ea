package kernel

import (
	"fmt"

	"atmosphere/internal/hw"
	"atmosphere/internal/pm"
)

// Lock sharding (docs/CONCURRENCY.md "The sharded lock model"). The
// kernel's virtual-cost model is no longer one big-lock frontier: each
// container, each endpoint and each core's run queue carries its own
// hw.LockSim frontier, and every syscall entry resolves a *lock plan* —
// the exact set of frontiers the operation touches — and acquires them
// in the declared DAG order (contend.KernelOrder: big -> container ->
// endpoint -> runq, with containers nested among themselves in
// ascending address order and run queues in ascending core index). The
// big lock remains only for global operations: object lifecycle
// (container/process/thread/endpoint create and destroy), IRQ paths,
// IOMMU management, and any memory operation that can reach the shared
// page-frame free lists (cache refill/drain, superpages, uncached
// boots). Every plan names the run queues its syscall mutates, and the
// armed coverage check (contend.Observatory.RunqTouched) holds it to
// that.
//
// The real data structures are still guarded by the one Go mutex
// (Kernel.big) — sharding changes the *cost model*, not the execution
// model: which cores wait, for how long, on which virtual frontier.
// Disabled LockSims are no-ops, so with contention off every plan costs
// exactly what the big-lock funnel cost, bit for bit; and a workload
// whose syscalls all resolve to one container's frontier reproduces the
// old big-lock serialization exactly (same arrivals, same releases).
// Only genuinely disjoint traffic — different containers, different
// endpoints — overlaps in virtual time.

// lockPlan names the frontiers one syscall holds for its duration, in
// DAG order: the big lock (optional), up to two container frontiers
// (sorted by object address), one endpoint frontier, and the run queues
// the syscall touches (ascending core index) — or, with allRunq, every
// core's.
type lockPlan struct {
	big     bool
	cntr    [2]pm.Ptr
	ncntr   int
	edpt    pm.Ptr
	runq    [3]int
	nrunq   int
	allRunq bool
}

// planBig is the global-operation plan: big lock only, exactly the
// pre-sharding funnel.
func planBig() lockPlan { return lockPlan{big: true} }

// addRunq adds core q's run queue to the plan, keeping the list
// ascending and free of duplicates; a fourth distinct queue (only a
// kill reaping threads on many cores gets there) widens the plan to
// every core's.
func (p *lockPlan) addRunq(q int) {
	if p.allRunq {
		return
	}
	i := 0
	for i < p.nrunq && p.runq[i] < q {
		i++
	}
	if i < p.nrunq && p.runq[i] == q {
		return
	}
	if p.nrunq == len(p.runq) {
		p.allRunq = true
		return
	}
	copy(p.runq[i+1:p.nrunq+1], p.runq[i:p.nrunq])
	p.runq[i] = q
	p.nrunq++
}

// planPick adds a PickNext on core to the plan, run once thread gone
// (0 for none) has left the core: the core's own queue, and every
// core's when the pick can reach the stealer (pm.PickSteals) — a steal
// pops a victim queue the plan cannot name in advance. Only a pick that
// will find its own queue empty holds them all, so a blocking path
// whose core still has work never waits on other cores' queues.
func (k *Kernel) planPick(p *lockPlan, core int, gone pm.Ptr) {
	p.addRunq(core)
	if k.PM.PickSteals(core, gone) {
		p.allRunq = true
	}
}

// frontier is one acquired entry of a plan: the simulator and the wait
// this entry charged (filled at acquisition, attributed at leave).
type frontier struct {
	sim  *hw.LockSim
	wait uint64
}

// shard is one per-object lock frontier.
type shard struct {
	sim  hw.LockSim
	salt uint64 // decorrelates the shard's jitter stream
	dead bool   // its object died; gcShards retires it
}

// lockTally sums frontiers' (acquisitions, contended, wait cycles).
type lockTally struct {
	acq, contended, wait uint64
}

func (t *lockTally) add(l *hw.LockSim) {
	a, c, w := l.Stats()
	t.acq += a
	t.contended += c
	t.wait += w
}

// shardMix is the splitmix64 finalizer — derives per-shard jitter seeds
// from the base seed and the object address, so every frontier gets its
// own deterministic stream.
func shardMix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// armShard finishes a freshly created shard: it inherits the kernel's
// current contention enablement and jitter arming (with a decorrelated
// seed), registers with the attached observatory, and joins the shard
// list that re-attachment and Enable/SetJitter propagation iterate.
// Creation order is program order (plans resolve under the Go mutex),
// so registration order — and with it every report — is deterministic.
func (k *Kernel) armShard(s *shard, salt uint64) {
	s.salt = shardMix(salt)
	if k.lock.Enabled() {
		s.sim.Enable()
	}
	if k.jitterMax > 0 {
		s.sim.SetJitter(k.jitterSeed^s.salt, k.jitterMax)
	}
	k.Contention().Register(&s.sim)
	k.shards = append(k.shards, s)
}

// newRunqShards creates one run-queue frontier per core, labeled
// "cpu<q>". They exist from boot, so no measured phase allocates one,
// and they are never retired.
func (k *Kernel) newRunqShards() {
	k.runqs = make([]*shard, k.Machine.NumCores())
	for q := range k.runqs {
		s := &shard{}
		s.sim.SetIdentity("runq", fmt.Sprintf("cpu%d", q))
		k.armShard(s, runqSalt|uint64(q))
		k.runqs[q] = s
	}
}

// runqSalt tags run-queue shard salts apart from the container and
// endpoint salts, which are derived from object addresses.
const runqSalt = 0x72756e71 << 32

// cntrShard returns (lazily creating) the container's lock frontier.
// The root container is labeled "root" to match its attribution name;
// children get "c<n>" in creation order.
func (k *Kernel) cntrShard(c pm.Ptr) *shard {
	s, ok := k.cntrShards[c]
	if !ok {
		s = &shard{}
		label := "root"
		if c != k.PM.RootContainer {
			k.cntrSeq++
			label = fmt.Sprintf("c%d", k.cntrSeq)
		}
		s.sim.SetIdentity("container", label)
		k.armShard(s, uint64(c))
		k.cntrShards[c] = s
	}
	return s
}

// edptShard returns (lazily creating) the endpoint's lock frontier,
// labeled "e<n>" in creation order.
func (k *Kernel) edptShard(e pm.Ptr) *shard {
	s, ok := k.edptShards[e]
	if !ok {
		s = &shard{}
		k.edptSeq++
		s.sim.SetIdentity("endpoint", fmt.Sprintf("e%d", k.edptSeq))
		k.armShard(s, ^uint64(e))
		k.edptShards[e] = s
	}
	return s
}

// gcShards drops shard-table entries whose object died, so a reused
// page gets a fresh frontier (and a fresh label) instead of inheriting
// a dead object's. Teardown syscalls defer it. A dead shard also leaves
// the shard list, so enable, jitter, attach and LockStats walk only
// live frontiers however much churn a workload does; its counts fold
// into the retired tally, which keeps LockStats cumulative. The
// observatory keeps its own registrations, so reports keep the dead
// frontiers' waits (which is why -by-class aggregation exists).
func (k *Kernel) gcShards() {
	dead := false
	for c, s := range k.cntrShards {
		if _, ok := k.PM.TryCntr(c); !ok {
			delete(k.cntrShards, c)
			s.dead, dead = true, true
		}
	}
	for e, s := range k.edptShards {
		if _, ok := k.PM.TryEdpt(e); !ok {
			delete(k.edptShards, e)
			s.dead, dead = true, true
		}
	}
	if !dead {
		return
	}
	live := k.shards[:0]
	for _, s := range k.shards {
		if s.dead {
			k.retired.add(&s.sim)
			continue
		}
		live = append(live, s)
	}
	clear(k.shards[len(live):])
	k.shards = live
}

// planCaller is the plan of a syscall that touches only the caller's
// own container state (the mmap/munmap fast paths build on it): the
// caller's container frontier. An unresolvable caller falls back to the
// big lock — error paths serialize globally, which is conservative and
// keeps invalid-argument probes off the shard tables.
func (k *Kernel) planCaller(tid pm.Ptr) lockPlan {
	t, ok := k.PM.TryThrd(tid)
	if !ok {
		return planBig()
	}
	return lockPlan{cntr: [2]pm.Ptr{t.OwningCntr}, ncntr: 1}
}

// planYield is the core's run-queue frontier alone. A yield requeues
// the core's current thread and dequeues the next: its footprint is the
// core's queue plus the caller's and the next thread's scheduling
// state, and no container state at all. A runnable caller on its own
// core is either current (and gets requeued) or already queued, so the
// pick never finds the queue empty and never steals; planPick still
// asks, for a caller yielding some other core.
func (k *Kernel) planYield(core int) lockPlan {
	var p lockPlan
	k.planPick(&p, core, 0)
	return p
}

// planMmap: the caller's container frontier, plus the big lock whenever
// the allocation can reach the shared free lists — no per-core caches,
// a superpage request, or a cache too shallow to cover the count
// (refill). Page-table node frames materialized by the mapping ride the
// container frontier (a documented simplification: at most a few frames
// per region lifetime).
func (k *Kernel) planMmap(core int, tid pm.Ptr, count int, size hw.PageSize) lockPlan {
	p := k.planCaller(tid)
	if p.big {
		return p
	}
	if k.caches == nil || size != hw.Size4K || count <= 0 || k.caches.Len(core) < count {
		p.big = true
	}
	return p
}

// planMunmap: the caller's container frontier, plus the big lock
// whenever a freed frame can reach the shared free lists — no caches, a
// superpage, or a cache within count of its drain threshold. A shared
// page's refcount decrement (no free-list push) stays on the container
// frontier.
func (k *Kernel) planMunmap(core int, tid pm.Ptr, count int, size hw.PageSize) lockPlan {
	p := k.planCaller(tid)
	if p.big {
		return p
	}
	if k.caches == nil || size != hw.Size4K || count <= 0 ||
		k.caches.Len(core)+count > 2*k.caches.Batch() {
		p.big = true
	}
	return p
}

// ipcOp tells planIPC how an IPC syscall moves threads through the
// scheduler: whom it can wake, and whether the caller can block.
type ipcOp uint8

const (
	ipcSend      ipcOp = iota // wakes a queued receiver, else blocks and picks
	ipcSendAsync              // wakes a queued receiver, else buffers
	ipcRecv                   // drains the buffer, else wakes a queued sender, else blocks and picks
	ipcCall                   // wakes the queued server and blocks
	ipcReply                  // wakes the queued client
	ipcReplyRecv              // reply's wake, then parks unless a message waits; never picks
)

// planIPC is the rendezvous plan: the caller's container, the endpoint,
// and — when the endpoint queue's head belongs to a different container
// — the partner's container too (delivery charges the receiver, direct
// switch touches the callee). The two container frontiers sort by
// object address, the total order the container self-edge in
// KernelOrder licenses. The run queues follow the op (ipcRunqs).
//
// A page transfer in either direction adds the big lock only when the
// core has no page cache to draw from: the transferred frame itself
// never touches the free lists (ownership moves sender -> in-flight ->
// receiver without an alloc or a free), so only page-table node frames
// the mapping side may materialize can reach the shared pool. With
// per-core caches armed those ride the container frontiers, the same
// documented simplification planMmap makes — which is what lets batched
// grant traffic on disjoint containers scale across cores instead of
// serializing every doorbell on the global frontier. In-flight quota
// accounting rides the container frontiers already in the plan (the
// charge moves between exactly those containers).
func (k *Kernel) planIPC(op ipcOp, core int, tid pm.Ptr, slot int, sendPage bool) lockPlan {
	t, ok := k.PM.TryThrd(tid)
	if !ok {
		return planBig()
	}
	pageBig := k.caches == nil || k.caches.Len(core) == 0
	p := lockPlan{cntr: [2]pm.Ptr{t.OwningCntr}, ncntr: 1, big: sendPage && pageBig}
	if slot < 0 || slot >= pm.MaxEndpoints || t.Endpoints[slot] == pm.NoEndpoint {
		return p
	}
	eptr := t.Endpoints[slot]
	ep, ok := k.PM.TryEdpt(eptr)
	if !ok {
		return p
	}
	p.edpt = eptr
	if len(ep.Buffer) > 0 && ep.Buffer[0].HasPage && pageBig {
		p.big = true // buffered message carries a page a recv would map
	}
	if len(ep.Queue) > 0 {
		if qt, ok := k.PM.TryThrd(ep.Queue[0]); ok {
			if qt.OwningCntr != t.OwningCntr {
				p.cntr[1] = qt.OwningCntr
				p.ncntr = 2
				if p.cntr[1] < p.cntr[0] {
					p.cntr[0], p.cntr[1] = p.cntr[1], p.cntr[0]
				}
			}
			if !ep.QueuedRecv && qt.IPC.Msg.HasPage && pageBig {
				p.big = true // queued sender carries a page for us
			}
		}
	}
	k.ipcRunqs(&p, op, core, tid, t, ep)
	return p
}

// ipcRunqs adds the run queues an IPC op touches: the core of the
// endpoint queue's head when the op wakes it (a direct switch to a
// partner sharing the caller's core touches that same queue), the
// caller's core when the caller blocks, and a pick on the invoking core
// for the ops that pick after blocking. A failing op touches nothing,
// so the plan over-approximates it.
func (k *Kernel) ipcRunqs(p *lockPlan, op ipcOp, core int, tid pm.Ptr, t *pm.Thread, ep *pm.Endpoint) {
	recvWaiting := ep.QueuedRecv && len(ep.Queue) > 0
	sendWaiting := !ep.QueuedRecv && len(ep.Queue) > 0
	buffered := len(ep.Buffer) > 0
	var wake, block, pick bool
	switch op {
	case ipcSend:
		wake, block, pick = recvWaiting, !recvWaiting, !recvWaiting
	case ipcSendAsync:
		wake = recvWaiting
	case ipcRecv:
		wake = !buffered && sendWaiting
		block = !buffered && !sendWaiting
		pick = block
	case ipcCall:
		wake, block = recvWaiting, recvWaiting
	case ipcReply:
		wake = recvWaiting
	case ipcReplyRecv:
		// The reply half pops a waiting receiver, after which the
		// receive half finds no sender; with no waiting receiver the
		// receive half wakes a waiting sender, unless a buffered
		// message comes first.
		wake = recvWaiting || (!buffered && sendWaiting)
		block = !buffered && !sendWaiting
	}
	if wake {
		if h, ok := k.PM.TryThrd(ep.Queue[0]); ok {
			p.addRunq(h.Core)
		}
	}
	if block {
		p.addRunq(t.Core)
	}
	if pick {
		k.planPick(p, core, tid)
	}
}

// planCloseEndpoint: endpoint lifecycle is a global operation (the
// object may die), so the big lock leads; the endpoint's own frontier
// is held too, so a close serializes against in-flight sends on the
// same endpoint in virtual time.
func (k *Kernel) planCloseEndpoint(tid pm.Ptr, slot int) lockPlan {
	p := planBig()
	t, ok := k.PM.TryThrd(tid)
	if !ok || slot < 0 || slot >= pm.MaxEndpoints || t.Endpoints[slot] == pm.NoEndpoint {
		return p
	}
	if _, ok := k.PM.TryEdpt(t.Endpoints[slot]); ok {
		p.edpt = t.Endpoints[slot]
	}
	return p
}

// planNewThread: the big lock (object creation) and the run queue of
// onCore, which the new thread joins; an invalid core touches none.
func (k *Kernel) planNewThread(onCore int) lockPlan {
	p := planBig()
	if onCore >= 0 && onCore < len(k.runqs) {
		p.addRunq(onCore)
	}
	return p
}

// planExit: the big lock (the thread object dies), the exiting thread's
// own core, which it leaves, and the pick on the invoking core once it
// is gone.
func (k *Kernel) planExit(core int, tid pm.Ptr) lockPlan {
	p := planBig()
	if t, ok := k.PM.TryThrd(tid); ok {
		p.addRunq(t.Core)
		k.planPick(&p, core, tid)
	}
	return p
}

// planIrqWait: the big lock, plus — when the wait will block (the line
// is bound and nothing is pending) — the caller's core, which it
// leaves, and the pick on the invoking core.
func (k *Kernel) planIrqWait(core int, tid pm.Ptr, irq int) lockPlan {
	p := planBig()
	st, bound := k.irqs[irq]
	t, ok := k.PM.TryThrd(tid)
	if bound && ok && st.pending == 0 {
		p.addRunq(t.Core)
		k.planPick(&p, core, tid)
	}
	return p
}

// planRaiseIRQ: the big lock, plus the core of the handler the edge
// would wake. The fault layer's filter may still drop the edge; the
// plan over-approximates that.
func (k *Kernel) planRaiseIRQ(irq int) lockPlan {
	p := planBig()
	if st, bound := k.irqs[irq]; bound {
		if ep, ok := k.PM.TryEdpt(st.endpoint); ok && ep.QueuedRecv && len(ep.Queue) > 0 {
			if h, ok := k.PM.TryThrd(ep.Queue[0]); ok {
				p.addRunq(h.Core)
			}
		}
	}
	return p
}

// planKillProc: the big lock, plus the core of every thread in the
// victim's process subtree that sits on a run queue or a core — a
// blocked thread is on neither, so reaping it touches no queue.
func (k *Kernel) planKillProc(proc pm.Ptr) lockPlan {
	p := planBig()
	k.addProcRunqs(&p, proc)
	return p
}

func (k *Kernel) addProcRunqs(p *lockPlan, proc pm.Ptr) {
	pr, ok := k.PM.TryProc(proc)
	if !ok {
		return
	}
	for _, th := range pr.Threads {
		k.addThreadRunq(p, th)
	}
	for _, ch := range pr.Children {
		k.addProcRunqs(p, ch)
	}
}

// addThreadRunq adds th's core if th is queued or running there.
func (k *Kernel) addThreadRunq(p *lockPlan, th pm.Ptr) {
	if t, ok := k.PM.TryThrd(th); ok && (t.State == pm.ThreadRunnable || t.State == pm.ThreadRunning) {
		p.addRunq(t.Core)
	}
}

// planKillContainer: the big lock, plus the cores a teardown of cntr's
// subtree touches — every queued or running thread it reaps, and every
// waiter outside the subtree that the death of a subtree-owned endpoint
// wakes. The bounded kill uses it for each installment too: one
// installment touches a subset.
func (k *Kernel) planKillContainer(cntr pm.Ptr) lockPlan {
	p := planBig()
	root, ok := k.PM.TryCntr(cntr)
	if !ok {
		return p
	}
	reap := func(c pm.Ptr) {
		if cc, ok := k.PM.TryCntr(c); ok {
			for th := range cc.OwnedThreads {
				k.addThreadRunq(&p, th)
			}
		}
	}
	reap(cntr)
	for c := range root.Subtree {
		reap(c)
	}
	dying := func(c pm.Ptr) bool { return c == cntr || root.InSubtree(c) }
	for _, e := range k.PM.EdptPerms {
		if !dying(e.OwnerCntr) {
			continue
		}
		for _, q := range e.Queue {
			if t, ok := k.PM.TryThrd(q); ok && !dying(t.OwningCntr) {
				p.addRunq(t.Core)
			}
		}
	}
	return p
}
