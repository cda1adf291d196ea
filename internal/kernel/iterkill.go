package kernel

import (
	"cmp"
	"math"
	"slices"

	"atmosphere/internal/hw"
	"atmosphere/internal/pm"
)

// Teardown. kill_proc, kill_container and kill_container_bounded run
// one walk, reap, over the objects they destroy. §4.3 notes that
// Atmosphere's long-running kill syscalls hold the big lock for
// unbounded time and names bounded, seL4-style iterative kills as
// future work; SysKillContainerBounded implements that extension by
// running the walk for at most `budget` units per invocation and
// returning EAGAIN until the subtree is gone. Every unit leaves the
// kernel well-formed — the checker validates all invariants between
// invocations — and the freeze set keeps half-dead containers from
// issuing syscalls in the meantime.

// unbounded is the budget of a kill that runs to completion.
const unbounded = math.MaxInt

// SysKillContainerBounded terminates a strict descendant of the
// caller's container doing at most budget units of work. The first
// invocation freezes the subtree (its threads can no longer enter the
// kernel); subsequent invocations tear it down piecewise. Returns OK
// when the subtree is fully reclaimed, EAGAIN when work remains.
func (k *Kernel) SysKillContainerBounded(core int, tid pm.Ptr, cntr pm.Ptr, budget int) Ret {
	defer k.enterPlan(core, func() lockPlan { return k.planKillContainer(cntr) })()
	defer k.gcShards() // objects reclaimed this installment lose their shards
	t, okk := k.callerThread(tid)
	if !okk {
		return k.post("kill_container_bounded", tid, fail(EINVAL))
	}
	if budget <= 0 {
		return k.post("kill_container_bounded", tid, fail(EINVAL))
	}
	if _, exists := k.PM.TryCntr(cntr); !exists {
		return k.post("kill_container_bounded", tid, fail(ENOENT))
	}
	callerCntr := k.PM.Proc(t.OwningProc).Owner
	if !k.PM.IsAncestor(callerCntr, cntr) {
		return k.post("kill_container_bounded", tid, fail(EPERM))
	}
	// Freeze: one O(subtree) registration, after which threads of the
	// dying set cannot issue syscalls. Each unlink clears its own entry.
	if k.dying == nil {
		k.dying = make(map[pm.Ptr]bool)
	}
	if !k.dying[cntr] {
		for c := range k.PM.SubtreeOf(cntr) {
			k.dying[c] = true
		}
	}
	dying, procs := k.subtreeVictims(cntr)
	done, err := k.reap(dying, procs, budget)
	if err != nil {
		return k.post("kill_container_bounded", tid, fail(errnoOf(err)))
	}
	if !done {
		return k.post("kill_container_bounded", tid, fail(EAGAIN))
	}
	return k.post("kill_container_bounded", tid, ok())
}

// frozen reports whether a thread's container is in a dying subtree.
func (k *Kernel) frozen(t *pm.Thread) bool {
	return k.dying != nil && k.dying[t.OwningCntr]
}

// subtreeVictims returns cntr's subtree and its processes: container
// by container in pointer order, each process tree in preorder, so
// parents come before children.
func (k *Kernel) subtreeVictims(cntr pm.Ptr) (map[pm.Ptr]struct{}, []pm.Ptr) {
	dying := k.PM.SubtreeOf(cntr)
	var procs []pm.Ptr
	for _, c := range sortedKeys(dying) {
		for _, p := range sortedKeys(k.PM.Cntr(c).Procs) {
			// A parent lives in its child's container (ProcessesWF).
			if root, _ := k.PM.TryProc(p); root.Parent == 0 {
				procs = k.processSubtree(procs, p)
			}
		}
	}
	return dying, procs
}

// processSubtree appends proc and all its descendant processes to out,
// parents before children.
func (k *Kernel) processSubtree(out []pm.Ptr, proc pm.Ptr) []pm.Ptr {
	out = append(out, proc)
	for _, ch := range k.PM.Proc(proc).Children {
		out = k.processSubtree(out, ch)
	}
	return out
}

// reap tears down procs, listed parents before children, and the
// containers in dying, doing at most budget units of work; it reports
// whether it finished. A unit releases one object — a thread, endpoint,
// page, device binding, DMA page, domain, process or container — and
// charges only the work it does. The order is a function of the pre-state
// (output consistency, §4.3), and a walk cut into installments does
// the same units in the same order as one run to completion:
//  1. every thread, so no dying thread waits on an endpoint or can
//     refill a TLB;
//  2. every endpoint a dying container owns;
//  3. each process's pages in address order, then its IOMMU domain;
//  4. the processes, children first;
//  5. the containers, deepest first, then by pointer.
func (k *Kernel) reap(dying map[pm.Ptr]struct{}, procs []pm.Ptr, budget int) (bool, error) {
	unit := func() bool {
		if budget == 0 {
			return false
		}
		budget--
		return true
	}
	for _, p := range procs {
		proc := k.PM.Proc(p)
		for len(proc.Threads) > 0 {
			if !unit() {
				return false, nil
			}
			if err := k.reapThread(proc.Threads[0]); err != nil {
				return false, err
			}
		}
	}
	if len(dying) > 0 {
		for _, eptr := range sortedKeys(k.PM.EdptPerms) {
			if _, owned := dying[k.PM.EdptPerms[eptr].OwnerCntr]; !owned {
				continue
			}
			if !unit() {
				return false, nil
			}
			k.destroyEndpoint(eptr)
		}
	}
	for _, p := range procs {
		proc := k.PM.Proc(p)
		k.Ledger().SetContext(proc.Owner) // the dropped refs are the victim's, not the killer's
		if done, err := k.reapSpace(proc, unit); !done {
			return false, err
		}
		if done, err := k.reapDomain(proc, unit); !done {
			return false, err
		}
	}
	for i := len(procs) - 1; i >= 0; i-- {
		if !unit() {
			return false, nil
		}
		if err := k.PM.FreeProcess(procs[i]); err != nil {
			return false, err
		}
	}
	for _, c := range k.unlinkOrder(dying) {
		if !unit() {
			return false, nil
		}
		if err := k.PM.UnlinkContainer(c); err != nil {
			return false, err
		}
		delete(k.dying, c)
	}
	return true, nil
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

// reapSpace unmaps proc's pages, one unit each in address order,
// crediting quota and dropping each page's reference. Before the first
// it flushes the TLB of every core proc's container reserves, one IPI
// round each: no thread of proc is left to refill a TLB, so that one
// flush covers every page, and every free comes after it.
func (k *Kernel) reapSpace(proc *pm.Process, unit func() bool) (bool, error) {
	space := proc.PageTable.AddressSpace()
	for i, va := range sortedKeys(space) {
		if !unit() {
			return false, nil
		}
		if i == 0 {
			for _, c := range k.reservation(proc) {
				if k.mutant != MutantShootdownLocalOnly || c == k.cur.core {
					k.Machine.Core(c).TLB.Flush()
				}
				k.kclock.Charge(hw.CostInterruptDispatch / 2)
			}
		}
		e := space[va]
		if _, err := proc.PageTable.Unmap(va); err != nil {
			return false, err
		}
		k.PM.CreditPages(proc.Owner, pagesIn4K(e.Size))
		if _, err := k.Alloc.DecRef(e.Phys); err != nil {
			return false, err
		}
	}
	return true, nil
}

// reapDomain tears down proc's IOMMU domain: one unit per attached
// device, which it detaches; one per DMA page in IOVA order, which it
// unmaps and unpins; and one to destroy the empty domain and credit its
// table pages. With every device detached first, no DMA can reach a
// page once it is unpinned.
func (k *Kernel) reapDomain(proc *pm.Process, unit func() bool) (bool, error) {
	if proc.IOMMUDomain == 0 {
		return true, nil
	}
	d, err := k.IOMMU.Domain(proc.IOMMUDomain)
	if err != nil {
		return false, err
	}
	for _, dev := range sortedKeys(d.Devices) {
		if !unit() {
			return false, nil
		}
		if err := k.IOMMU.DetachDevice(dev); err != nil {
			return false, err
		}
	}
	space := d.Table.AddressSpace()
	for _, va := range sortedKeys(space) {
		if !unit() {
			return false, nil
		}
		if _, err := d.Table.Unmap(va); err != nil {
			return false, err
		}
		if _, err := k.Alloc.DecRef(space[va].Phys); err != nil {
			return false, err
		}
	}
	if !unit() {
		return false, nil
	}
	nodes := d.Table.NodeCount()
	if err := k.IOMMU.DestroyDomain(proc.IOMMUDomain); err != nil {
		return false, err
	}
	k.PM.CreditPages(proc.Owner, uint64(nodes))
	proc.IOMMUDomain = 0
	return true, nil
}

// unlinkOrder lists the dying containers deepest first, then by
// pointer, reading each one's depth once.
func (k *Kernel) unlinkOrder(dying map[pm.Ptr]struct{}) []pm.Ptr {
	depth := make(map[pm.Ptr]int, len(dying))
	for c := range dying {
		depth[c] = k.PM.Cntr(c).Depth
	}
	order := sortedKeys(depth)
	slices.SortStableFunc(order, func(a, b pm.Ptr) int { return cmp.Compare(depth[b], depth[a]) })
	return order
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	out := make([]K, 0, len(m))
	for key := range m {
		out = append(out, key)
	}
	slices.Sort(out)
	return out
}
