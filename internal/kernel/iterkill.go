package kernel

import (
	"sort"

	"atmosphere/internal/hw"
	"atmosphere/internal/pm"
)

// Iterative container termination. §4.3 notes that Atmosphere's
// long-running kill syscalls hold the big lock for unbounded time and
// names bounded, seL4-style iterative kills as future work; this file
// implements that extension. SysKillContainerBounded performs at most
// `budget` units of teardown per invocation and returns EAGAIN until
// the subtree is gone. Every unit leaves the kernel well-formed — the
// checker validates all invariants between invocations — and the
// freeze set keeps half-dead containers from issuing syscalls in the
// meantime.

// workUnit is one bounded teardown step's cost weight (every unit is
// O(1) kernel work plus at most one page free).
const killUnitCost = hw.CostCacheTouch * 8

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
		// Either never existed or already fully reclaimed by earlier
		// invocations; only the latter had a freeze entry.
		if k.dying[cntr] {
			delete(k.dying, cntr)
			return k.post("kill_container_bounded", tid, ok())
		}
		return k.post("kill_container_bounded", tid, fail(ENOENT))
	}
	callerCntr := k.PM.Proc(t.OwningProc).Owner
	if !k.PM.IsAncestor(callerCntr, cntr) {
		return k.post("kill_container_bounded", tid, fail(EPERM))
	}
	// Freeze: one O(subtree) registration, after which threads of the
	// dying set cannot issue syscalls.
	if k.dying == nil {
		k.dying = make(map[pm.Ptr]bool)
	}
	if !k.dying[cntr] {
		for c := range k.PM.SubtreeOf(cntr) {
			k.dying[c] = true
		}
	}

	for budget > 0 {
		k.kclock.Charge(killUnitCost)
		did, err := k.killOneUnit(cntr)
		if err != nil {
			return k.post("kill_container_bounded", tid, fail(errnoOf(err)))
		}
		if !did {
			break
		}
		budget--
	}
	if _, alive := k.PM.TryCntr(cntr); alive {
		return k.post("kill_container_bounded", tid, fail(EAGAIN))
	}
	// Fully reclaimed: clear the freeze entries (descendants were
	// removed as their containers died).
	delete(k.dying, cntr)
	return k.post("kill_container_bounded", tid, ok())
}

// killOneUnit performs one well-formedness-preserving teardown step in
// the dying subtree of cntr and reports whether it found work.
// Deterministic: candidates are visited in sorted pointer order,
// deepest containers first.
func (k *Kernel) killOneUnit(cntr pm.Ptr) (bool, error) {
	if _, alive := k.PM.TryCntr(cntr); !alive {
		return false, nil
	}
	subtree := make([]pm.Ptr, 0, 8)
	for c := range k.PM.SubtreeOf(cntr) {
		subtree = append(subtree, c)
	}
	sort.Slice(subtree, func(i, j int) bool {
		di, dj := k.PM.Cntr(subtree[i]).Depth, k.PM.Cntr(subtree[j]).Depth
		if di != dj {
			return di > dj
		}
		return subtree[i] < subtree[j]
	})
	for _, c := range subtree {
		cc := k.PM.Cntr(c)
		// 1. Endpoints owned here (their waiters may be anywhere).
		for _, eptr := range sortedEdpts(k.PM.EdptPerms) {
			e, still := k.PM.TryEdpt(eptr)
			if still && e.OwnerCntr == c {
				k.destroyEndpoint(eptr, k.PM.SubtreeOf(cntr))
				return true, nil
			}
		}
		// 2. Process work, smallest pointer first.
		procs := make([]pm.Ptr, 0, len(cc.Procs))
		for p := range cc.Procs {
			procs = append(procs, p)
		}
		sort.Slice(procs, func(i, j int) bool { return procs[i] < procs[j] })
		for _, p := range procs {
			proc := k.PM.Proc(p)
			// 2a. One page of address space.
			if space := proc.PageTable.AddressSpace(); len(space) > 0 {
				vas := make([]hw.VirtAddr, 0, len(space))
				for va := range space {
					vas = append(vas, va)
				}
				sort.Slice(vas, func(i, j int) bool { return vas[i] < vas[j] })
				va := vas[0]
				e := space[va]
				k.Ledger().SetContext(proc.Owner) // the dropped ref is the victim's
				if _, err := proc.PageTable.Unmap(va); err != nil {
					return false, err
				}
				k.PM.CreditPages(proc.Owner, pagesIn4K(e.Size))
				// Free after flush, as SysMunmap does; the core running
				// this installment initiates the shootdown.
				k.shootdown(k.cur.core, proc, va, e.Size)
				if _, err := k.Alloc.DecRef(e.Phys); err != nil {
					return false, err
				}
				return true, nil
			}
			// 2b. The IOMMU domain.
			if proc.IOMMUDomain != 0 {
				if err := k.destroyIOMMUDomain(proc); err != nil {
					return false, err
				}
				return true, nil
			}
			// 2c. One thread.
			if len(proc.Threads) > 0 {
				ths := append([]pm.Ptr(nil), proc.Threads...)
				sort.Slice(ths, func(i, j int) bool { return ths[i] < ths[j] })
				if err := k.reapThread(ths[0]); err != nil {
					return false, err
				}
				return true, nil
			}
			// 2d. The process itself, once childless.
			if len(proc.Children) == 0 {
				if err := k.PM.FreeProcess(p); err != nil {
					return false, err
				}
				return true, nil
			}
		}
		// 3. The container itself, once empty.
		if len(cc.Procs) == 0 && len(cc.Children) == 0 && c != cntr {
			if err := k.PM.UnlinkContainer(c); err != nil {
				return false, err
			}
			delete(k.dying, c)
			return true, nil
		}
		if c == cntr && len(cc.Procs) == 0 && len(cc.Children) == 0 {
			if err := k.PM.UnlinkContainer(c); err != nil {
				return false, err
			}
			return true, nil
		}
	}
	return false, nil
}

// frozen reports whether a thread's container is in a dying subtree.
func (k *Kernel) frozen(t *pm.Thread) bool {
	return k.dying != nil && k.dying[t.OwningCntr]
}
