// Package verify is the repository's substitute for Verus: the executable
// checker for Atmosphere's two theorems (§4) — refinement (every syscall
// satisfies its specification, internal/spec) and well-formedness (the
// global invariants hold after every transition).
//
// The invariants are written in the paper's flat, non-recursive style:
// single passes over the flat permission maps (§4.1). Recursive variants
// of the structural invariants live in recursive.go, used only by the
// flat-vs-recursive ablation (§6.2).
package verify

import (
	"fmt"
	"slices"
	"sync"

	"atmosphere/internal/hw"
	"atmosphere/internal/kernel"
	"atmosphere/internal/mem"
	"atmosphere/internal/pm"
)

// ContainerTreeWF is the flat structural invariant of the container tree
// (container_tree_wf, §4.1): parent/child symmetry, depth and path
// coherence, the path-prefix property, and subtree ghost exactness —
// all expressed as direct loops over the flat container map.
func ContainerTreeWF(k *kernel.Kernel) error {
	cm := k.PM.CntrPerms
	root, ok := cm[k.PM.RootContainer]
	if !ok {
		return fmt.Errorf("root container has no permission entry")
	}
	if root.Parent != 0 || root.Depth != 0 || len(root.Path) != 0 {
		return fmt.Errorf("root container malformed")
	}
	for ptr, c := range cm {
		if ptr == k.PM.RootContainer {
			continue
		}
		p, ok := cm[c.Parent]
		if !ok {
			return fmt.Errorf("container %#x has dead parent %#x", ptr, c.Parent)
		}
		found := 0
		for _, ch := range p.Children {
			if ch == ptr {
				found++
			}
		}
		if found != 1 {
			return fmt.Errorf("container %#x appears %d times in parent's children", ptr, found)
		}
		if c.Depth != p.Depth+1 {
			return fmt.Errorf("container %#x depth %d, parent depth %d", ptr, c.Depth, p.Depth)
		}
		if len(c.Path) != c.Depth {
			return fmt.Errorf("container %#x path length %d != depth %d", ptr, len(c.Path), c.Depth)
		}
		if len(c.Path) == 0 || c.Path[len(c.Path)-1] != c.Parent {
			return fmt.Errorf("container %#x path does not end at parent", ptr)
		}
	}
	// resolve_path_wf (§4.1): for any node n at depth d on c's path,
	// c's subpath [0,d) equals n's path — checked flatly for all pairs.
	for ptr, c := range cm {
		for d, n := range c.Path {
			nc, ok := cm[n]
			if !ok {
				return fmt.Errorf("container %#x path names dead container %#x", ptr, n)
			}
			if len(nc.Path) != d {
				return fmt.Errorf("container %#x path[%d] has depth %d", ptr, d, len(nc.Path))
			}
			for i := 0; i < d; i++ {
				if nc.Path[i] != c.Path[i] {
					return fmt.Errorf("container %#x path prefix mismatch at %d", ptr, i)
				}
			}
		}
	}
	// Children lists reference live containers whose parent is this one,
	// and no container is the child of two parents.
	childOf := make(map[pm.Ptr]pm.Ptr, len(cm))
	for ptr, c := range cm {
		for _, ch := range c.Children {
			cc, ok := cm[ch]
			if !ok {
				return fmt.Errorf("container %#x lists dead child %#x", ptr, ch)
			}
			if cc.Parent != ptr {
				return fmt.Errorf("child %#x parent pointer disagrees", ch)
			}
			if prev, dup := childOf[ch]; dup {
				return fmt.Errorf("container %#x child of both %#x and %#x", ch, prev, ptr)
			}
			childOf[ch] = ptr
		}
	}
	// Subtree ghost exactness, the flat way (§4.1): no per-node set
	// reconstruction. Two facts pin the ghost down exactly:
	//
	//  1. containment: every node appears in the subtree of each of its
	//     path ancestors (direct membership probes into the flat maps);
	//  2. counting: Σ|c.Subtree| over all containers equals Σ depth(n)
	//     over all nodes — each node belongs to exactly its depth(n)
	//     ancestors' subtrees, so (1) plus this total rules out any
	//     extra member anywhere.
	//
	// Together with the path coherence above, this is equivalent to the
	// recursive union definition without ever materializing a set.
	totalGhost := 0
	totalDepth := 0
	for ptr, c := range cm {
		totalGhost += len(c.Subtree)
		totalDepth += c.Depth
		for _, anc := range c.Path {
			if _, ok := cm[anc].Subtree[ptr]; !ok {
				return fmt.Errorf("ancestor %#x subtree missing descendant %#x", anc, ptr)
			}
		}
		// Members of a subtree must at least be live containers.
		for s := range c.Subtree {
			if _, ok := cm[s]; !ok {
				return fmt.Errorf("container %#x subtree holds dead container %#x", ptr, s)
			}
		}
	}
	if totalGhost != totalDepth {
		return fmt.Errorf("subtree ghosts hold %d memberships, path depths say %d",
			totalGhost, totalDepth)
	}
	return nil
}

// ProcessesWF checks the process objects and the per-container process
// trees: ownership symmetry, parent/child symmetry within one container,
// and the owned_thrds ghost exactness.
func ProcessesWF(k *kernel.Kernel) error { return withScratch(k, (*scratch).processesWF) }

func (s *scratch) processesWF(k *kernel.Kernel) error {
	pmgr := k.PM
	for ptr, p := range pmgr.ProcPerms {
		c, ok := pmgr.CntrPerms[p.Owner]
		if !ok {
			return fmt.Errorf("process %#x has dead owner %#x", ptr, p.Owner)
		}
		if _, ok := c.Procs[ptr]; !ok {
			return fmt.Errorf("container %#x does not list process %#x", p.Owner, ptr)
		}
		if p.Parent != 0 {
			pp, ok := pmgr.ProcPerms[p.Parent]
			if !ok {
				return fmt.Errorf("process %#x has dead parent %#x", ptr, p.Parent)
			}
			if pp.Owner != p.Owner {
				return fmt.Errorf("process %#x parent in different container", ptr)
			}
			found := 0
			for _, ch := range pp.Children {
				if ch == ptr {
					found++
				}
			}
			if found != 1 {
				return fmt.Errorf("process %#x appears %d times in parent children", ptr, found)
			}
		}
		for _, ch := range p.Children {
			cp, ok := pmgr.ProcPerms[ch]
			if !ok || cp.Parent != ptr {
				return fmt.Errorf("process %#x child link to %#x broken", ptr, ch)
			}
		}
		for _, th := range p.Threads {
			t, ok := pmgr.ThrdPerms[th]
			if !ok || t.OwningProc != ptr {
				return fmt.Errorf("process %#x thread link to %#x broken", ptr, th)
			}
		}
	}
	// Container.Procs lists only live processes owned by it.
	for cptr, c := range pmgr.CntrPerms {
		for pp := range c.Procs {
			proc, ok := pmgr.ProcPerms[pp]
			if !ok || proc.Owner != cptr {
				return fmt.Errorf("container %#x lists foreign/dead process %#x", cptr, pp)
			}
		}
		// owned_thrds ghost == union of the threads of its processes.
		want := s.thrds
		clear(want)
		for pp := range c.Procs {
			for _, th := range pmgr.ProcPerms[pp].Threads {
				want[th] = true
			}
		}
		if len(want) != len(c.OwnedThreads) {
			return fmt.Errorf("container %#x owned_thrds has %d, want %d",
				cptr, len(c.OwnedThreads), len(want))
		}
		for th := range want {
			if _, ok := c.OwnedThreads[th]; !ok {
				return fmt.Errorf("container %#x owned_thrds missing %#x", cptr, th)
			}
		}
	}
	return nil
}

// ThreadsWF is the paper's threads_wf: every thread is well-formed —
// live ownership links, a core within the container's reservation, and
// blocking state consistent with exactly one endpoint queue.
func ThreadsWF(k *kernel.Kernel) error { return withScratch(k, (*scratch).threadsWF) }

func (s *scratch) threadsWF(k *kernel.Kernel) error {
	pmgr := k.PM
	queued := s.queued
	clear(queued)
	for eptr, e := range pmgr.EdptPerms {
		for _, th := range e.Queue {
			if prev, dup := queued[th]; dup {
				return fmt.Errorf("thread %#x queued on both %#x and %#x", th, prev, eptr)
			}
			queued[th] = eptr
		}
	}
	for ptr, t := range pmgr.ThrdPerms {
		p, ok := pmgr.ProcPerms[t.OwningProc]
		if !ok {
			return fmt.Errorf("thread %#x has dead process %#x", ptr, t.OwningProc)
		}
		if t.OwningCntr != p.Owner {
			return fmt.Errorf("thread %#x owning_cntr ghost stale", ptr)
		}
		if !pmgr.CntrPerms[p.Owner].Reserves(t.Core) {
			return fmt.Errorf("thread %#x on unreserved core %d", ptr, t.Core)
		}
		for i, e := range t.Endpoints {
			if e == pm.NoEndpoint {
				continue
			}
			if _, ok := pmgr.EdptPerms[e]; !ok {
				return fmt.Errorf("thread %#x slot %d references dead endpoint %#x", ptr, i, e)
			}
		}
		switch t.State {
		case pm.ThreadBlockedSend, pm.ThreadBlockedRecv:
			ep, ok := pmgr.EdptPerms[t.IPC.WaitingOn]
			if !ok {
				return fmt.Errorf("blocked thread %#x waits on dead endpoint", ptr)
			}
			if q, isQ := queued[ptr]; !isQ || q != t.IPC.WaitingOn {
				return fmt.Errorf("blocked thread %#x not queued on its endpoint", ptr)
			}
			wantRecv := t.State == pm.ThreadBlockedRecv
			if ep.QueuedRecv != wantRecv {
				return fmt.Errorf("thread %#x direction disagrees with endpoint queue", ptr)
			}
		case pm.ThreadExited:
			return fmt.Errorf("exited thread %#x still has a permission entry", ptr)
		default:
			if _, isQ := queued[ptr]; isQ {
				return fmt.Errorf("non-blocked thread %#x sits in an endpoint queue", ptr)
			}
			if t.IPC.WaitingOn != 0 {
				return fmt.Errorf("non-blocked thread %#x has WaitingOn set", ptr)
			}
		}
	}
	return nil
}

// EndpointsWF: refcounts equal the number of descriptor slots referencing
// the endpoint, owners are live, queues are homogeneous and reference
// blocked threads.
func EndpointsWF(k *kernel.Kernel) error { return withScratch(k, (*scratch).endpointsWF) }

func (s *scratch) endpointsWF(k *kernel.Kernel) error {
	pmgr := k.PM
	refs := s.edptRefs
	clear(refs)
	for ptr, t := range pmgr.ThrdPerms {
		for _, e := range t.Endpoints {
			if e != pm.NoEndpoint {
				refs[e]++
			}
		}
		// A pending send transfers only a live endpoint: destroying an
		// endpoint scrubs it from every message that carries it, or a
		// later rendezvous would install a dangling descriptor.
		if m := &t.IPC.Msg; t.State == pm.ThreadBlockedSend && m.HasEndpoint {
			if _, ok := pmgr.EdptPerms[m.Endpoint]; !ok {
				return fmt.Errorf("thread %#x pending message carries dead endpoint %#x", ptr, m.Endpoint)
			}
		}
	}
	// IRQ bindings hold endpoint references too (§3: interrupt
	// dispatch delivers to user-level drivers through endpoints).
	for irq, e := range k.IRQBindings() {
		if _, ok := pmgr.EdptPerms[e]; !ok {
			return fmt.Errorf("irq %d bound to dead endpoint %#x", irq, e)
		}
		refs[e]++
	}
	for eptr, e := range pmgr.EdptPerms {
		if _, ok := pmgr.CntrPerms[e.OwnerCntr]; !ok {
			return fmt.Errorf("endpoint %#x owned by dead container", eptr)
		}
		if refs[eptr] != e.RefCount {
			return fmt.Errorf("endpoint %#x refcount %d, descriptors %d",
				eptr, e.RefCount, refs[eptr])
		}
		if e.RefCount <= 0 {
			return fmt.Errorf("endpoint %#x alive with refcount %d", eptr, e.RefCount)
		}
		seen := s.thrds
		clear(seen)
		for _, th := range e.Queue {
			if seen[th] {
				return fmt.Errorf("endpoint %#x queues thread %#x twice", eptr, th)
			}
			seen[th] = true
			t, ok := pmgr.ThrdPerms[th]
			if !ok {
				return fmt.Errorf("endpoint %#x queues dead thread %#x", eptr, th)
			}
			want := pm.ThreadBlockedSend
			if e.QueuedRecv {
				want = pm.ThreadBlockedRecv
			}
			if t.State != want {
				return fmt.Errorf("endpoint %#x queues %v thread %#x", eptr, t.State, th)
			}
		}
	}
	return nil
}

// scratch is the working storage of the checks that need sets, maps or
// buffers, kept from call to call so that a check allocates nothing on
// a warm kernel. TotalWF runs on several goroutines at once
// (RunObligations), so each call takes its own from scratchPool.
type scratch struct {
	// The page closure each subsystem claims, with what the page-array
	// walk found of the frames the allocator gives it.
	obj, pt, iommu, pcache closure
	// seen is the page-table structure checks' reachable-node set.
	seen mem.PageSet
	// refs counts the references each mapped frame's count must equal.
	refs map[hw.PhysAddr]uint32
	// procs holds the live processes in ascending pointer order.
	procs []pm.Ptr
	// queue and placed serve SchedulerWF.
	queue  []pm.Ptr
	placed map[pm.Ptr]placement
	// thrds is a set of threads: one container's in ProcessesWF, one
	// endpoint queue's in EndpointsWF.
	thrds map[pm.Ptr]bool
	// queued maps each queued thread to its endpoint (ThreadsWF).
	queued map[pm.Ptr]pm.Ptr
	// edptRefs counts each endpoint's descriptors (EndpointsWF).
	edptRefs map[pm.Ptr]int
}

var scratchPool = sync.Pool{New: func() any {
	return &scratch{refs: make(map[hw.PhysAddr]uint32), placed: make(map[pm.Ptr]placement),
		thrds: make(map[pm.Ptr]bool), queued: make(map[pm.Ptr]pm.Ptr), edptRefs: make(map[pm.Ptr]int)}
}}

// withScratch runs check with a scratch from the pool.
func withScratch(k *kernel.Kernel, check func(*scratch, *kernel.Kernel) error) error {
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	return check(s, k)
}

// placement is where SchedulerWF found a thread.
type placement struct {
	core    int
	current bool // the core's current thread, not one of its queue's
}

func (p placement) String() string {
	if p.current {
		return fmt.Sprintf("current %d", p.core)
	}
	return fmt.Sprintf("queue %d", p.core)
}

// SchedulerWF: run queues hold exactly the runnable threads of their
// core, currents are running, and no thread appears twice.
func SchedulerWF(k *kernel.Kernel) error { return withScratch(k, (*scratch).schedulerWF) }

func (s *scratch) schedulerWF(k *kernel.Kernel) error {
	sched := k.PM.Sched()
	clear(s.placed)
	for core := 0; core < sched.Cores(); core++ {
		s.queue = sched.QueueInto(core, s.queue)
		for _, th := range s.queue {
			t, ok := k.PM.TryThrd(th)
			if !ok {
				return fmt.Errorf("core %d queues dead thread %#x", core, th)
			}
			if t.State != pm.ThreadRunnable {
				return fmt.Errorf("core %d queues %v thread %#x", core, t.State, th)
			}
			if t.Core != core {
				return fmt.Errorf("thread %#x on core %d queue but affine to %d", th, core, t.Core)
			}
			if where, dup := s.placed[th]; dup {
				return fmt.Errorf("thread %#x placed twice (%s)", th, where)
			}
			s.placed[th] = placement{core: core}
		}
		if cur := sched.Current(core); cur != 0 {
			t, ok := k.PM.TryThrd(cur)
			if !ok {
				return fmt.Errorf("core %d runs dead thread %#x", core, cur)
			}
			if t.State != pm.ThreadRunning || t.Core != core {
				return fmt.Errorf("core %d current %#x is %v/core %d", core, cur, t.State, t.Core)
			}
			if where, dup := s.placed[cur]; dup {
				return fmt.Errorf("thread %#x placed twice (%s)", cur, where)
			}
			s.placed[cur] = placement{core: core, current: true}
		}
	}
	// Every runnable/running thread is placed exactly once.
	for ptr, t := range k.PM.ThrdPerms {
		switch t.State {
		case pm.ThreadRunnable, pm.ThreadRunning:
			if _, ok := s.placed[ptr]; !ok {
				return fmt.Errorf("%v thread %#x lost by the scheduler", t.State, ptr)
			}
		}
	}
	return nil
}

// closure is one subsystem's page closure and what the page-array walk
// found of the frames the allocator gives the subsystem.
type closure struct {
	set   mem.PageSet // the pages the subsystem claims
	owned int         // frames allocated to the subsystem
	stray bool        // one of those frames is missing from set
}

// reset empties c for a new check.
func (c *closure) reset() {
	c.set.Clear()
	c.owned, c.stray = 0, false
}

// own records that the allocator gives frame p to c's subsystem.
func (c *closure) own(p hw.PhysAddr) {
	c.owned++
	c.stray = c.stray || !c.set.Contains(p)
}

// exact reports whether the subsystem claims exactly its frames.
func (c *closure) exact() bool { return !c.stray && c.owned == c.set.Len() }

// MemoryWF is the §4.2 safety and leak-freedom theorem, executably:
// the page-state partition, per-subsystem closure exactness and pairwise
// disjointness, mapping reference-count exactness, and per-table radix
// structure and refinement. One ascending walk over the page array
// gathers everything the partition, closure and reference-count
// predicates need, and they are then judged in a fixed order, so the
// first violation reported does not depend on where the walk met it.
func MemoryWF(k *kernel.Kernel) error { return withScratch(k, (*scratch).memoryWF) }

func (s *scratch) memoryWF(k *kernel.Kernel) error {
	a := k.Alloc
	overlap := s.claim(k)
	s.countRefs(k)
	w := s.walkFrames(a)
	if w.states != a.Frames() {
		return fmt.Errorf("page states cover %d of %d frames", w.states, a.Frames())
	}
	// Free lists agree with the metadata.
	if !freeListIs(a, mem.Size4K, w.free[mem.Size4K]) {
		return fmt.Errorf("4K free list disagrees with page states")
	}
	if !freeListIs(a, mem.Size2M, w.free[mem.Size2M]) {
		return fmt.Errorf("2M free list disagrees with page states")
	}
	if !freeListIs(a, mem.Size1G, w.free[mem.Size1G]) {
		return fmt.Errorf("1G free list disagrees with page states")
	}
	// Each closure is exactly its owner's allocated pages. The
	// virtual-memory closure is the union of the per-process table
	// closures, which are pairwise disjoint.
	obj, pt, iommu, pcache := &s.obj, &s.pt, &s.iommu, &s.pcache
	if !obj.exact() {
		return fmt.Errorf("process-manager closure %d pages, allocator says %d", obj.set.Len(), obj.owned)
	}
	if overlap != 0 {
		return fmt.Errorf("page-table closure of %#x overlaps another", overlap)
	}
	if !pt.exact() {
		return fmt.Errorf("page-table closure %d pages, allocator says %d", pt.set.Len(), pt.owned)
	}
	if !iommu.exact() {
		return fmt.Errorf("iommu closure disagrees with allocator")
	}
	// The frames the kernel believes are parked in per-core caches are
	// exactly the allocator's OwnerPCache pages (both empty while caches
	// are disabled).
	if !pcache.exact() {
		return fmt.Errorf("page-cache closure %d pages, allocator says %d", pcache.set.Len(), pcache.owned)
	}
	// Each closure now equals its owner's allocated pages, so it lies in
	// the allocated set. Closures are pairwise disjoint (owners distinct
	// by construction; verify anyway), so they cover the allocated set
	// exactly when their sizes sum to its size.
	if !obj.set.Disjoint(&pt.set) || !obj.set.Disjoint(&iommu.set) || !pt.set.Disjoint(&iommu.set) {
		return fmt.Errorf("subsystem closures overlap")
	}
	if !pcache.set.Disjoint(&obj.set) || !pcache.set.Disjoint(&pt.set) || !pcache.set.Disjoint(&iommu.set) {
		return fmt.Errorf("page-cache closure overlaps another subsystem")
	}
	if n := obj.set.Len() + pt.set.Len() + iommu.set.Len() + pcache.set.Len(); n != w.allocated {
		return fmt.Errorf("closures cover %d pages, allocated set has %d", n, w.allocated)
	}
	// Mapping reference counts: every mapped page's refcount equals the
	// number of address-space mappings + DMA mappings + in-flight IPC
	// messages holding it, and every referenced page is mapped.
	if w.mismatch >= 0 {
		p := hw.PhysAddr(uint64(w.mismatch) * hw.PageSize4K)
		return fmt.Errorf("mapped page %#x refcount %d, references %d", p, a.FrameMeta(w.mismatch).RefCount, s.refs[p])
	}
	if n := len(s.refs) - w.referenced; n != 0 {
		return fmt.Errorf("%d referenced pages not in mapped state", n)
	}
	// Per-table structure and refinement against the hardware MMU.
	for _, ptr := range s.procs {
		table := k.PM.ProcPerms[ptr].PageTable
		if err := table.CheckStructure(&s.seen); err != nil {
			return fmt.Errorf("process %#x: %w", ptr, err)
		}
		if err := table.CheckRefinement(k.Machine.MMU); err != nil {
			return fmt.Errorf("process %#x: %w", ptr, err)
		}
	}
	return k.IOMMU.CheckWF(&s.seen)
}

// claim fills each closure's set with the pages its subsystem claims
// and s.procs with the live processes in ascending pointer order. It
// returns the first process, in that order, whose page-table closure
// overlaps an earlier one's, or 0.
func (s *scratch) claim(k *kernel.Kernel) (overlap pm.Ptr) {
	for _, c := range [...]*closure{&s.obj, &s.pt, &s.iommu, &s.pcache} {
		c.reset()
	}
	for p := range k.PM.CntrPerms {
		s.obj.set.Insert(p)
	}
	for p := range k.PM.ProcPerms {
		s.obj.set.Insert(p)
	}
	for p := range k.PM.ThrdPerms {
		s.obj.set.Insert(p)
	}
	for p := range k.PM.EdptPerms {
		s.obj.set.Insert(p)
	}
	s.procs = s.procs[:0]
	for p := range k.PM.ProcPerms {
		s.procs = append(s.procs, p)
	}
	slices.Sort(s.procs)
	for _, p := range s.procs {
		if !k.PM.ProcPerms[p].PageTable.PageClosureInto(&s.pt.set) && overlap == 0 {
			overlap = p
		}
	}
	k.IOMMU.PageClosureInto(&s.iommu.set)
	k.PageCachePagesInto(&s.pcache.set)
	return overlap
}

// countRefs fills s.refs with the references every frame's mapping
// count must equal: address-space mappings, DMA mappings, and pages
// riding in-flight IPC messages.
func (s *scratch) countRefs(k *kernel.Kernel) {
	clear(s.refs)
	for _, proc := range k.PM.ProcPerms {
		proc.PageTable.CountMappingsInto(s.refs)
	}
	for _, d := range k.IOMMU.Domains() {
		d.Table.CountMappingsInto(s.refs)
	}
	for _, t := range k.PM.ThrdPerms {
		if t.State == pm.ThreadBlockedSend && t.IPC.Msg.HasPage {
			s.refs[t.IPC.Msg.Page]++
		}
	}
	for _, e := range k.PM.EdptPerms {
		for _, m := range e.Buffer {
			if m.HasPage {
				s.refs[m.Page]++
			}
		}
	}
}

// frameWalk is what one ascending walk over the page array finds.
type frameWalk struct {
	states     int    // frames in a valid state: the partition's cover
	free       [3]int // free frames per size class
	allocated  int    // allocated frames other than boot's
	referenced int    // mapped frames something references
	// mismatch is the lowest mapped frame whose count differs from its
	// references, or -1.
	mismatch int
}

// walkFrames makes the one pass over the page array's touched prefix:
// it counts the frames in each state, checks every allocated frame
// against its owner's closure, and finds the lowest mapped frame whose
// reference count differs from s.refs. The untouched frames past the
// prefix are free 4 KiB pages by construction and are counted, not
// visited.
func (s *scratch) walkFrames(a *mem.Allocator) (w frameWalk) {
	// Counters live in locals, not in w, so the loop keeps them in
	// registers.
	untouched := a.Frames() - a.Touched()
	states, free4K := untouched, untouched
	var free2M, free1G, allocated, referenced int
	w.mismatch = -1
	for i, n := 0, a.Touched(); i < n; i++ {
		pg := a.FrameMeta(i)
		switch pg.State {
		case mem.StateFree:
			switch pg.Size {
			case mem.Size4K:
				free4K++
			case mem.Size2M:
				free2M++
			case mem.Size1G:
				free1G++
			default:
				continue
			}
			states++
		case mem.StateMerged:
			states++
		case mem.StateMapped:
			states++
			p := hw.PhysAddr(uint64(i) * hw.PageSize4K)
			refs := s.refs[p]
			if refs > 0 {
				referenced++
			}
			if pg.RefCount != refs && w.mismatch < 0 {
				w.mismatch = i
			}
		case mem.StateAllocated:
			states++
			if pg.Owner == mem.OwnerBoot {
				continue
			}
			allocated++
			p := hw.PhysAddr(uint64(i) * hw.PageSize4K)
			switch pg.Owner {
			case mem.OwnerProcessMgr:
				s.obj.own(p)
			case mem.OwnerPageTable:
				s.pt.own(p)
			case mem.OwnerIOMMU:
				s.iommu.own(p)
			case mem.OwnerPCache:
				s.pcache.own(p)
			}
		}
	}
	w.states, w.allocated, w.referenced = states, allocated, referenced
	w.free = [3]int{free4K, free2M, free1G}
	return w
}

// freeListIs reports whether sc's free list holds exactly the free
// frames of size class sc, of which the walk counted want: the list's
// touched part visits only such frames of the touched prefix, ends at
// the allocator's recorded tail, and holds exactly want of them less
// the untouched frames that follow it on the 4 KiB list. No frame can
// be listed twice: a repeat is a cycle, and a cyclic walk never ends,
// so it fails once it outruns want.
func freeListIs(a *mem.Allocator, sc mem.SizeClass, want int) bool {
	n, last, touched := 0, -1, a.Touched()
	if sc == mem.Size4K {
		want -= a.Frames() - touched
	}
	for i := a.FreeListHead(sc); i >= 0; n++ {
		if n >= want || i >= touched {
			return false
		}
		pg := a.FrameMeta(i)
		if pg.State != mem.StateFree || pg.Size != sc {
			return false
		}
		last, i = i, int(pg.Next)
	}
	return n == want && last == a.FreeListTail(sc)
}

// QuotaWF: every container's UsedPages is at most its quota and equals
// the recomputed charge: its own page, its objects, its user mappings
// (weighted by page size), its table nodes, and its children's quotas.
func QuotaWF(k *kernel.Kernel) error {
	pmgr := k.PM
	for cptr, c := range pmgr.CntrPerms {
		if c.UsedPages > c.QuotaPages {
			return fmt.Errorf("container %#x used %d > quota %d", cptr, c.UsedPages, c.QuotaPages)
		}
		want := uint64(1) // its own object page
		for pp := range c.Procs {
			proc := pmgr.ProcPerms[pp]
			want += 1 // process object
			want += uint64(proc.PageTable.NodeCount())
			want += proc.PageTable.MappedPages4K()
			if proc.IOMMUDomain != 0 {
				d, err := k.IOMMU.Domain(proc.IOMMUDomain)
				if err != nil {
					return err
				}
				want += uint64(d.Table.NodeCount())
			}
		}
		want += uint64(len(c.OwnedThreads))
		for _, e := range pmgr.EdptPerms {
			if e.OwnerCntr == cptr {
				want++
			}
		}
		for _, ch := range c.Children {
			want += pmgr.CntrPerms[ch].QuotaPages
		}
		if c.UsedPages != want {
			return fmt.Errorf("container %#x used %d, recomputed %d", cptr, c.UsedPages, want)
		}
	}
	return nil
}

// CPUReservationWF: every container's CPU set is a subset of its
// parent's, every thread runs on a core its container reserves, and no
// container reserves a core outside the machine. (This repo models CPU
// reservations as hierarchical capabilities — a child can use what its
// parent can use — rather than exclusive partitions; mixed-criticality
// configurations like A/B/V get exclusivity by construction, assigning
// disjoint sets.)
func CPUReservationWF(k *kernel.Kernel) error {
	cores := k.Machine.NumCores()
	for ptr, c := range k.PM.CntrPerms {
		for _, cpu := range c.CPUs {
			if cpu < 0 || cpu >= cores {
				return fmt.Errorf("container %#x reserves nonexistent core %d", ptr, cpu)
			}
		}
		if c.Parent == 0 {
			continue
		}
		parent := k.PM.CntrPerms[c.Parent]
		for _, cpu := range c.CPUs {
			if !parent.Reserves(cpu) {
				return fmt.Errorf("container %#x reserves core %d its parent does not hold", ptr, cpu)
			}
		}
	}
	return nil
}

// TLBWF is TLB coherence (§4.2, consistency of page-table updates): a
// cached translation is a mapping still in force where it can be used.
// Every valid entry on core d names the page-table root of a live
// process whose container reserves d, and the MMU's walk of the entry's
// page gives the same frame with rights at least as wide — so no core
// reaches a frame through a mapping the kernel removed or narrowed. It
// charges no cycles, and allocates nothing when no entry is valid.
func TLBWF(k *kernel.Kernel) error {
	var err error
	for d := 0; d < k.Machine.NumCores() && err == nil; d++ {
		k.Machine.Core(d).TLB.Each(func(cr3 hw.PhysAddr, vpage hw.VirtAddr, tr hw.Translation) bool {
			err = tlbEntryWF(k, d, cr3, vpage, tr)
			return err == nil
		})
	}
	return err
}

// tlbEntryWF checks one valid entry of core's TLB.
func tlbEntryWF(k *kernel.Kernel, core int, cr3 hw.PhysAddr, vpage hw.VirtAddr, tr hw.Translation) error {
	var proc *pm.Process
	for _, p := range k.PM.ProcPerms {
		if p.PageTable.CR3() == cr3 {
			proc = p
			break
		}
	}
	if proc == nil {
		return fmt.Errorf("core %d caches va %#x under cr3 %#x, the root of no live process", core, vpage, cr3)
	}
	if !k.PM.CntrPerms[proc.Owner].Reserves(core) {
		return fmt.Errorf("core %d caches va %#x of process %#x, whose container %#x does not reserve the core",
			core, vpage, proc.Ptr, proc.Owner)
	}
	w, mapped := k.Machine.MMU.Walk(cr3, vpage)
	if !mapped {
		return fmt.Errorf("core %d caches va %#x of process %#x, which no longer maps it", core, vpage, proc.Ptr)
	}
	if frame := w.Phys &^ (hw.PageSize4K - 1); frame != tr.Phys&^(hw.PageSize4K-1) {
		return fmt.Errorf("core %d translates va %#x of process %#x to frame %#x, its page table to %#x",
			core, vpage, proc.Ptr, tr.Phys&^(hw.PageSize4K-1), frame)
	}
	if tr.Writable && !w.Writable || tr.User && !w.User || !tr.NX && w.NX {
		return fmt.Errorf("core %d caches va %#x of process %#x with rights %+v wider than its page table's %+v",
			core, vpage, proc.Ptr, tr, w)
	}
	return nil
}

// NamedCheck pairs an invariant with a stable name for the obligation
// registry and failure reports.
type NamedCheck struct {
	Name  string
	Check func(*kernel.Kernel) error
}

// WFChecks is the full well-formedness suite, the total_wf() of Listing 1.
func WFChecks() []NamedCheck {
	return []NamedCheck{
		{"container_tree_wf", ContainerTreeWF},
		{"processes_wf", ProcessesWF},
		{"threads_wf", ThreadsWF},
		{"endpoints_wf", EndpointsWF},
		{"scheduler_wf", SchedulerWF},
		{"cpu_reservation_wf", CPUReservationWF},
		{"memory_wf", MemoryWF},
		{"quota_wf", QuotaWF},
		{"tlb_wf", TLBWF},
	}
}

// TotalWF runs the full suite and returns the first violation.
func TotalWF(k *kernel.Kernel) error {
	for _, c := range WFChecks() {
		if err := c.Check(k); err != nil {
			return fmt.Errorf("%s: %w", c.Name, err)
		}
	}
	return nil
}
