package kernel

import "atmosphere/internal/pm"

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
	defer k.enterPlan(core, func() lockPlan { return k.planNewThread(onCore) })()
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
	defer k.enterPlan(core, func() lockPlan { return k.planNewThread(onCore) })()
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
	defer k.enterPlan(core, func() lockPlan { return k.planExit(core, tid) })()
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
	defer k.enterPlan(core, func() lockPlan { return k.planKillProc(proc) })()
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
	if _, err := k.reap(nil, k.processSubtree(nil, proc), unbounded); err != nil {
		return k.post("kill_proc", tid, fail(errnoOf(err)))
	}
	return k.post("kill_proc", tid, ok())
}

// SysKillContainer terminates a strict descendant of the caller's
// container: every nested container, process, and thread dies, endpoints
// owned by the dying subtree are destroyed (waiters outside the subtree
// are woken with EDEADOBJ), and the carved quota returns to the parent —
// the paper's terminate-and-harvest revocation model (§3).
func (k *Kernel) SysKillContainer(core int, tid pm.Ptr, cntr pm.Ptr) Ret {
	defer k.enterPlan(core, func() lockPlan { return k.planKillContainer(cntr) })()
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
	dying, procs := k.subtreeVictims(cntr)
	if _, err := k.reap(dying, procs, unbounded); err != nil {
		return k.post("kill_container", tid, fail(errnoOf(err)))
	}
	return k.post("kill_container", tid, ok())
}
