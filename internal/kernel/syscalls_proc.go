package kernel

import (
	"sort"

	"atmosphere/internal/pm"
)

// Process, thread, and container syscalls (§3: access control and
// revocation).

// SysNewContainer creates a child container of the caller's container,
// carving quota pages and the given CPU subset out of the parent's
// reservation.
func (k *Kernel) SysNewContainer(core int, tid pm.Ptr, quota uint64, cpus []int) Ret {
	defer k.enter(core)()
	t, okk := k.callerThread(tid)
	if !okk {
		return k.post("new_container", tid, fail(EINVAL))
	}
	parent := k.PM.Proc(t.OwningProc).Owner
	child, err := k.PM.NewContainer(parent, quota, cpus)
	if err != nil {
		return k.post("new_container", tid, fail(errnoOf(err)))
	}
	// The child's object page (== the child pointer) is its own first
	// quota page, but it was allocated under the parent's context.
	k.Ledger().Attribute(child, child)
	return k.post("new_container", tid, ok(uint64(child)))
}

// SysNewProcess creates a process in the caller's container as a child of
// the caller's process.
func (k *Kernel) SysNewProcess(core int, tid pm.Ptr) Ret {
	defer k.enter(core)()
	t, okk := k.callerThread(tid)
	if !okk {
		return k.post("new_proc", tid, fail(EINVAL))
	}
	caller := k.PM.Proc(t.OwningProc)
	proc, err := k.PM.NewProcess(caller.Owner, t.OwningProc)
	if err != nil {
		return k.post("new_proc", tid, fail(errnoOf(err)))
	}
	return k.post("new_proc", tid, ok(uint64(proc)))
}

// SysNewProcessIn creates a process inside a *child* container the caller
// created (the parent container populates its children before handing
// them off — how the A/B/V scenario is assembled). The target container
// must be in the caller's container subtree.
func (k *Kernel) SysNewProcessIn(core int, tid pm.Ptr, cntr pm.Ptr) Ret {
	defer k.enter(core)()
	t, okk := k.callerThread(tid)
	if !okk {
		return k.post("new_proc_in", tid, fail(EINVAL))
	}
	caller := k.PM.Proc(t.OwningProc)
	if _, exists := k.PM.TryCntr(cntr); !exists {
		return k.post("new_proc_in", tid, fail(ENOENT))
	}
	if !k.PM.IsAncestor(caller.Owner, cntr) {
		return k.post("new_proc_in", tid, fail(EPERM))
	}
	k.Ledger().SetContext(cntr) // object pages belong to the target container
	proc, err := k.PM.NewProcess(cntr, 0)
	if err != nil {
		return k.post("new_proc_in", tid, fail(errnoOf(err)))
	}
	return k.post("new_proc_in", tid, ok(uint64(proc)))
}

// SysNewThread creates a thread in the caller's process, affine to core
// onCore (which must be reserved by the container).
func (k *Kernel) SysNewThread(core int, tid pm.Ptr, onCore int) Ret {
	defer k.enter(core)()
	t, okk := k.callerThread(tid)
	if !okk {
		return k.post("new_thread", tid, fail(EINVAL))
	}
	th, err := k.PM.NewThread(t.OwningProc, onCore)
	if err != nil {
		return k.post("new_thread", tid, fail(errnoOf(err)))
	}
	return k.post("new_thread", tid, ok(uint64(th)))
}

// SysNewThreadIn creates a thread in a process the caller controls: its
// own process, a descendant process, or any process in a descendant
// container.
func (k *Kernel) SysNewThreadIn(core int, tid pm.Ptr, proc pm.Ptr, onCore int) Ret {
	defer k.enter(core)()
	t, okk := k.callerThread(tid)
	if !okk {
		return k.post("new_thread_in", tid, fail(EINVAL))
	}
	target, exists := k.PM.TryProc(proc)
	if !exists {
		return k.post("new_thread_in", tid, fail(ENOENT))
	}
	caller := k.PM.Proc(t.OwningProc)
	if !k.controlsProcess(caller, t.OwningProc, target, proc) {
		return k.post("new_thread_in", tid, fail(EPERM))
	}
	k.Ledger().SetContext(target.Owner) // the thread page belongs to the target
	th, err := k.PM.NewThread(proc, onCore)
	if err != nil {
		return k.post("new_thread_in", tid, fail(errnoOf(err)))
	}
	return k.post("new_thread_in", tid, ok(uint64(th)))
}

// controlsProcess reports whether the caller process may manage the
// target process: same process, an ancestor in the same container's
// process tree, or the target's container is a strict descendant of the
// caller's container.
func (k *Kernel) controlsProcess(caller *pm.Process, callerPtr pm.Ptr, target *pm.Process, targetPtr pm.Ptr) bool {
	if callerPtr == targetPtr {
		return true
	}
	if k.PM.IsAncestor(caller.Owner, target.Owner) {
		return true
	}
	if caller.Owner == target.Owner {
		// Walk the process-tree parent chain of the target.
		for p := target.Parent; p != 0; {
			if p == callerPtr {
				return true
			}
			pp, okk := k.PM.TryProc(p)
			if !okk {
				break
			}
			p = pp.Parent
		}
	}
	return false
}

// SysExitThread terminates the calling thread, releasing its endpoint
// descriptors and its object page.
func (k *Kernel) SysExitThread(core int, tid pm.Ptr) Ret {
	defer k.enter(core)()
	defer k.gcShards() // endpoints may die with their last descriptor
	if _, okk := k.callerThread(tid); !okk {
		return k.post("exit_thread", tid, fail(EINVAL))
	}
	k.PM.MarkExited(tid)
	if err := k.PM.FreeThread(tid); err != nil {
		return k.post("exit_thread", tid, fail(errnoOf(err)))
	}
	k.PM.PickNext(core)
	return k.post("exit_thread", tid, ok())
}

// SysKillProcess terminates a process the caller controls, together with
// its descendant processes (within the same container), their threads,
// address spaces, and IOMMU domains.
func (k *Kernel) SysKillProcess(core int, tid pm.Ptr, proc pm.Ptr) Ret {
	defer k.enter(core)()
	defer k.gcShards() // endpoints may die with the process's descriptors
	t, okk := k.callerThread(tid)
	if !okk {
		return k.post("kill_proc", tid, fail(EINVAL))
	}
	target, exists := k.PM.TryProc(proc)
	if !exists {
		return k.post("kill_proc", tid, fail(ENOENT))
	}
	caller := k.PM.Proc(t.OwningProc)
	if proc == t.OwningProc || !k.controlsProcess(caller, t.OwningProc, target, proc) {
		return k.post("kill_proc", tid, fail(EPERM))
	}
	// Collect the process subtree (the victim and every descendant).
	victims := k.processSubtree(proc)
	if err := k.reapProcesses(victims); err != nil {
		return k.post("kill_proc", tid, fail(errnoOf(err)))
	}
	return k.post("kill_proc", tid, ok())
}

// processSubtree returns proc and all its descendant processes,
// parents before children.
func (k *Kernel) processSubtree(proc pm.Ptr) []pm.Ptr {
	var out []pm.Ptr
	var rec func(p pm.Ptr)
	rec = func(p pm.Ptr) {
		out = append(out, p)
		for _, ch := range k.PM.Proc(p).Children {
			rec(ch)
		}
	}
	rec(proc)
	return out
}

// reapProcesses destroys the given processes (children last in the list,
// so freed in reverse), including threads, address spaces, endpoint
// references, and IOMMU domains.
func (k *Kernel) reapProcesses(victims []pm.Ptr) error {
	for _, p := range victims {
		proc := k.PM.Proc(p)
		for _, th := range append([]pm.Ptr(nil), proc.Threads...) {
			if err := k.reapThread(th); err != nil {
				return err
			}
		}
		k.unmapAll(proc)
		if proc.IOMMUDomain != 0 {
			if err := k.destroyIOMMUDomain(proc); err != nil {
				return err
			}
		}
	}
	for i := len(victims) - 1; i >= 0; i-- {
		if err := k.PM.FreeProcess(victims[i]); err != nil {
			return err
		}
	}
	return nil
}

// reapThread forcibly terminates a thread: if blocked on an endpoint it
// is unlinked from the queue (dropping any page reference its pending
// message holds), then freed.
func (k *Kernel) reapThread(th pm.Ptr) error {
	t := k.PM.Thrd(th)
	if t.State == pm.ThreadBlockedSend || t.State == pm.ThreadBlockedRecv {
		k.unlinkFromEndpoint(th, t)
	}
	k.PM.MarkExited(th)
	return k.PM.FreeThread(th)
}

// SysKillContainer terminates a strict descendant of the caller's
// container: every nested container, process, and thread dies, endpoints
// owned by the dying subtree are destroyed (waiters outside the subtree
// are woken with EDEADOBJ), and the carved quota returns to the parent —
// the paper's terminate-and-harvest revocation model (§3).
func (k *Kernel) SysKillContainer(core int, tid pm.Ptr, cntr pm.Ptr) Ret {
	defer k.enter(core)()
	defer k.gcShards() // the dying subtree's containers and endpoints
	t, okk := k.callerThread(tid)
	if !okk {
		return k.post("kill_container", tid, fail(EINVAL))
	}
	if _, exists := k.PM.TryCntr(cntr); !exists {
		return k.post("kill_container", tid, fail(ENOENT))
	}
	callerCntr := k.PM.Proc(t.OwningProc).Owner
	if !k.PM.IsAncestor(callerCntr, cntr) {
		return k.post("kill_container", tid, fail(EPERM))
	}
	killed := k.PM.SubtreeOf(cntr)

	// All iteration below runs in sorted pointer order: teardown must be
	// a deterministic function of the pre-state (output consistency,
	// §4.3), and Go map order is randomized.

	// 1. Destroy endpoints owned by the dying subtree. Outside waiters
	// are woken with an error and their descriptors revoked.
	for _, eptr := range sortedEdpts(k.PM.EdptPerms) {
		e, still := k.PM.TryEdpt(eptr)
		if !still {
			continue
		}
		if _, dying := killed[e.OwnerCntr]; !dying {
			continue
		}
		k.destroyEndpoint(eptr, killed)
	}

	// 2. Reap every process in the subtree.
	for _, p := range sortedPtrSet(k.PM.ProcsOf(cntr)) {
		proc := k.PM.Proc(p)
		for _, th := range append([]pm.Ptr(nil), proc.Threads...) {
			if err := k.reapThread(th); err != nil {
				return k.post("kill_container", tid, fail(errnoOf(err)))
			}
		}
		k.unmapAll(proc)
		if proc.IOMMUDomain != 0 {
			if err := k.destroyIOMMUDomain(proc); err != nil {
				return k.post("kill_container", tid, fail(errnoOf(err)))
			}
		}
	}
	// Free processes children-first within each container.
	for _, p := range sortedPtrSet(k.PM.ProcsOf(cntr)) {
		if err := k.freeProcessTree(p); err != nil {
			return k.post("kill_container", tid, fail(errnoOf(err)))
		}
	}

	// 3. Unlink containers deepest-first so parents empty out.
	var order []pm.Ptr
	for c := range killed {
		order = append(order, c)
	}
	sort.Slice(order, func(i, j int) bool {
		return k.PM.Cntr(order[i]).Depth > k.PM.Cntr(order[j]).Depth
	})
	for _, c := range order {
		if err := k.PM.UnlinkContainer(c); err != nil {
			return k.post("kill_container", tid, fail(errnoOf(err)))
		}
		delete(k.dying, c) // clear any stale iterative-kill freeze
	}
	return k.post("kill_container", tid, ok())
}

// sortedPtrSet returns a set's members in ascending pointer order.
func sortedPtrSet(s map[pm.Ptr]struct{}) []pm.Ptr {
	out := make([]pm.Ptr, 0, len(s))
	for p := range s {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// sortedEdpts returns the endpoint map's keys in ascending order.
func sortedEdpts(m map[pm.Ptr]*pm.Endpoint) []pm.Ptr {
	out := make([]pm.Ptr, 0, len(m))
	for p := range m {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// freeProcessTree frees proc if it still exists, recursing into children
// first.
func (k *Kernel) freeProcessTree(proc pm.Ptr) error {
	p, okk := k.PM.TryProc(proc)
	if !okk {
		return nil
	}
	for _, ch := range append([]pm.Ptr(nil), p.Children...) {
		if err := k.freeProcessTree(ch); err != nil {
			return err
		}
	}
	return k.PM.FreeProcess(proc)
}
