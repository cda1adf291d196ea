package kernel

import (
	"atmosphere/internal/hw"
	"atmosphere/internal/pm"
	"atmosphere/internal/pt"
)

// Memory syscalls: mmap, munmap (Listing 1).

// pagesIn4K converts a mapping granularity to its 4 KiB page count for
// quota accounting.
func pagesIn4K(size hw.PageSize) uint64 { return size.Bytes() / hw.PageSize4K }

// validSize rejects granularities outside the three supported classes —
// a user-controlled value that must never reach the allocator raw.
func validSize(size hw.PageSize) bool {
	return size == hw.Size4K || size == hw.Size2M || size == hw.Size1G
}

// SysMmap allocates count fresh physical pages of the given size and maps
// them at consecutive virtual addresses starting at va in the caller's
// address space. Quota is charged for the user pages and for any
// page-table nodes the mapping materializes. On any failure the partial
// work is rolled back, so the syscall is atomic at the specification
// level (old state preserved on error).
func (k *Kernel) SysMmap(core int, tid pm.Ptr, va hw.VirtAddr, count int, size hw.PageSize, perm pt.Perm) Ret {
	defer k.enterPlan(core, func() lockPlan { return k.planMmap(core, tid, count, size) })()
	t, okk := k.callerThread(tid)
	if !okk {
		return k.post("mmap", tid, fail(EINVAL))
	}
	if count <= 0 || count > 1<<20 || !validSize(size) {
		return k.post("mmap", tid, fail(EINVAL))
	}
	// A misaligned base is a plain validation error; rejecting it here
	// keeps it off the charge-then-rollback path (where pt.Map would
	// refuse it only after quota was provisionally consumed).
	if va&hw.VirtAddr(size.Bytes()-1) != 0 {
		return k.post("mmap", tid, fail(EINVAL))
	}
	proc := k.PM.Proc(t.OwningProc)
	cntr := proc.Owner
	table := proc.PageTable
	step := hw.VirtAddr(size.Bytes())

	// Pre-validate the whole range so failure needs no page rollback.
	for i := 0; i < count; i++ {
		dst := va + hw.VirtAddr(i)*step
		if _, covered := table.Lookup(dst); covered {
			return k.post("mmap", tid, fail(EALREADY))
		}
	}

	nodesBefore := table.NodeCount()
	n := 0 // pages mapped so far
	rollback := func() {
		for i := 0; i < n; i++ {
			e, err := table.Unmap(va + hw.VirtAddr(i)*step)
			if err != nil {
				panic(err)
			}
			if _, err := k.Alloc.DecRef(e.Phys); err != nil {
				panic(err)
			}
			k.PM.CreditPages(cntr, pagesIn4K(size))
		}
		k.pruneNodes(cntr, table, nodesBefore)
	}

	for i := 0; i < count; i++ {
		dst := va + hw.VirtAddr(i)*step
		if err := k.PM.ChargePages(cntr, pagesIn4K(size)); err != nil {
			rollback()
			return k.post("mmap", tid, fail(EQUOTA))
		}
		phys, planted := k.mutantFrame(table, va, i)
		var err error
		if planted {
			err = k.Alloc.IncRef(phys)
		} else {
			phys, err = k.allocUser(core, size)
		}
		if err != nil {
			k.PM.CreditPages(cntr, pagesIn4K(size))
			rollback()
			return k.post("mmap", tid, fail(ENOMEM))
		}
		if err := table.Map(dst, phys, size, perm); err != nil {
			if _, derr := k.Alloc.DecRef(phys); derr != nil {
				panic(derr)
			}
			k.PM.CreditPages(cntr, pagesIn4K(size))
			rollback()
			return k.post("mmap", tid, fail(errnoOf(err)))
		}
		n++
	}
	// Charge the page-table nodes this mapping created.
	nodesAfter := table.NodeCount()
	if nodesAfter > nodesBefore {
		if err := k.PM.ChargePages(cntr, uint64(nodesAfter-nodesBefore)); err != nil {
			rollback()
			return k.post("mmap", tid, fail(EQUOTA))
		}
	}
	return k.post("mmap", tid, ok(uint64(va)))
}

// mutantFrame returns the frame a planted mmap mutant maps the range's
// page i onto instead of a fresh one (SetMutantForTest), if any.
func (k *Kernel) mutantFrame(table *pt.PageTable, va hw.VirtAddr, i int) (hw.PhysAddr, bool) {
	switch {
	case k.mutant == MutantMmapAlias && i == 1:
		e, _ := table.Lookup(va)
		return e.Phys, true
	case k.mutant == MutantMmapReuse && i == 0:
		e, ok := table.Lookup(va - hw.PageSize4K)
		return e.Phys, ok
	}
	return 0, false
}

// pruneNodes is the node half of every map site's rollback, run once
// the failed syscall's own mappings are gone: it frees each table node
// no mapping reaches any longer (this syscall's, and any earlier
// history left behind) and settles cntr's quota. The table held
// nodesBefore nodes, all charged, when the syscall began; the nodes it
// gained since were never charged, so only the prune's cut below
// nodesBefore is credited.
func (k *Kernel) pruneNodes(cntr pm.Ptr, table *pt.PageTable, nodesBefore int) {
	table.PruneEmpty()
	now := table.NodeCount()
	if now < nodesBefore {
		k.PM.CreditPages(cntr, uint64(nodesBefore-now))
	} else if now > nodesBefore {
		panic("kernel: rollback left uncharged page-table nodes")
	}
}

// allocUser hands out a user page of the requested size, merging free
// 4 KiB pages into a superpage on demand (§4.2: the allocator scans the
// page array and unlinks constituents in constant time via the metadata
// back pointers). With per-core caches enabled, the hot 4 KiB path goes
// through the invoking core's cache instead; the hand-out's cycles
// (pop + deferred zero) count as core-local work that does not extend
// the big-lock hold time the contention model reports.
func (k *Kernel) allocUser(core int, size hw.PageSize) (hw.PhysAddr, error) {
	if size == hw.Size4K && k.caches != nil {
		phys, local, err := k.caches.AllocUser4K(core)
		if err != nil {
			return 0, err
		}
		k.cur.local += local
		return phys, nil
	}
	switch size {
	case hw.Size2M:
		if k.Alloc.FreeCount2M() == 0 {
			if _, err := k.Alloc.Merge2M(); err != nil {
				return 0, err
			}
		}
	case hw.Size1G:
		if k.Alloc.FreeCount1G() == 0 {
			if _, err := k.Alloc.Merge1G(); err != nil {
				return 0, err
			}
		}
	}
	return k.Alloc.AllocUserPage(size)
}

// SysMunmap removes count mappings of the given size starting at va and
// releases the underlying pages (the page itself is freed only when its
// last mapping reference drops). Quota for the pages is credited back;
// page-table nodes stay installed (and stay charged), as in most kernels.
// Each page is freed after its flush, the order of Linux's mmu_gather:
// clear the PTE and credit quota, shoot the translation down on every
// core the container reserves, then drop the reference. The kernel must
// finish invalidating every TLB that can hold the translation before a
// frame is reused (§4.2), not before the container's other cores may
// touch its page table, so a shootdown whose frame stays in the invoking
// core's cache counts after release (flushAfterRelease).
func (k *Kernel) SysMunmap(core int, tid pm.Ptr, va hw.VirtAddr, count int, size hw.PageSize) Ret {
	defer k.enterPlan(core, func() lockPlan { return k.planMunmap(core, tid, count, size) })()
	t, okk := k.callerThread(tid)
	if !okk {
		return k.post("munmap", tid, fail(EINVAL))
	}
	if count <= 0 || !validSize(size) {
		return k.post("munmap", tid, fail(EINVAL))
	}
	// Align down to the granularity: Lookup below tolerates an interior
	// address, but Unmap wants the mapping's exact base — an unaligned va
	// would validate and then panic on the "validated above" invariant.
	va &^= hw.VirtAddr(size.Bytes() - 1)
	proc := k.PM.Proc(t.OwningProc)
	table := proc.PageTable
	step := hw.VirtAddr(size.Bytes())
	// Validate the whole range first: every base must be mapped at
	// exactly this granularity.
	for i := 0; i < count; i++ {
		dst := va + hw.VirtAddr(i)*step
		e, covered := table.Lookup(dst)
		if !covered || e.Size != size {
			return k.post("munmap", tid, fail(ENOENT))
		}
	}
	for i := 0; i < count; i++ {
		dst := va + hw.VirtAddr(i)*step
		e, err := table.Unmap(dst)
		if err != nil {
			panic(err) // validated above; kernel invariant if it fires
		}
		k.PM.CreditPages(proc.Owner, pagesIn4K(size))
		flushed := k.kclock.Cycles()
		k.shootdown(core, proc, dst, size)
		if k.flushAfterRelease(e.Phys, size) {
			k.cur.local += k.kclock.Cycles() - flushed
			k.emit(evFlushAfterRelease, uint64(e.Phys))
		}
		k.freeUser(core, e.Phys, size)
	}
	if k.mutant == MutantMunmapRemap {
		k.remap(core, table, va+hw.VirtAddr(count)*step, size)
	}
	return k.post("munmap", tid, ok())
}

// remap moves the mapping of the given size at va, if any, onto a
// fresh frame (MutantMunmapRemap).
func (k *Kernel) remap(core int, table *pt.PageTable, va hw.VirtAddr, size hw.PageSize) {
	e, mapped := table.Mapping(va)
	if !mapped || e.Size != size {
		return
	}
	fresh, err := k.allocUser(core, size)
	if err != nil {
		return
	}
	if _, err := table.Unmap(va); err != nil {
		panic(err)
	}
	k.freeUser(core, e.Phys, size)
	if err := table.Map(va, fresh, size, e.Perm); err != nil {
		panic(err)
	}
}

// flushAfterRelease reports whether an unmap's shootdown of phys may
// count after the entry releases its frontiers: dropping the frame's
// last reference parks it in the invoking core's own page cache, under
// a plan without the big lock, so no drain can publish it to the shared
// free lists. No other core can take the frame from there, and the
// invoking core zeroes it before reuse. Every other frame keeps its
// shootdown inside the hold: a draining munmap's, a shared frame's (an
// unmap of its other mapping could free it for reuse), a superpage's,
// an uncached kernel's. The armed post-release check
// (contend.Observatory.FlushedAfterRelease) holds the kernel to this.
func (k *Kernel) flushAfterRelease(phys hw.PhysAddr, size hw.PageSize) bool {
	return !k.cur.big && k.toPageCache(phys, size)
}

// toPageCache reports whether dropping one mapping reference to phys
// parks the frame in a page cache: caches on, a 4 KiB frame at its last
// reference.
func (k *Kernel) toPageCache(phys hw.PhysAddr, size hw.PageSize) bool {
	if k.caches == nil || size != hw.Size4K {
		return false
	}
	rc, err := k.Alloc.RefCount(phys)
	return err == nil && rc == 1
}

// freeUser releases one mapping reference from an unmap on core. The
// hot case — a 4 KiB page at its last reference, caches enabled — parks
// the frame in the core's page cache (core-local work); everything else
// takes the global DecRef path. Teardown (reap) and mmap's rollback
// keep plain DecRef: they have no natural core.
func (k *Kernel) freeUser(core int, phys hw.PhysAddr, size hw.PageSize) {
	if k.toPageCache(phys, size) {
		local, err := k.caches.FreeUser4K(core, phys)
		if err != nil {
			panic(err)
		}
		k.cur.local += local
		return
	}
	if _, err := k.Alloc.DecRef(phys); err != nil {
		panic(err)
	}
}

// shootdown performs the TLB maintenance unmapping one page of proc's
// address space architecturally requires (§4.2, "consistency of page
// table updates"): invalidate the page on every core proc's container
// reserves — the only cores its threads run on, so the only TLBs that
// can hold the translation, as Linux scopes a flush to mm_cpumask —
// charging the IPI round trip for each reserved core but the initiator.
// A superpage's translations, cached under each 4 KiB key, go in the
// same one invalidation per core. The local invlpg itself is charged by
// pt.Unmap.
func (k *Kernel) shootdown(core int, proc *pm.Process, va hw.VirtAddr, size hw.PageSize) {
	cr3 := proc.PageTable.CR3()
	for _, c := range k.reservation(proc) {
		if k.mutant != MutantShootdownLocalOnly || c == core {
			k.Machine.Core(c).TLB.InvalidateRange(cr3, va, size.Bytes())
		}
		if c != core {
			// IPI send + remote invlpg + ack, charged to the initiator,
			// which spins for the acks — inside its plan's hold unless
			// SysMunmap counts the flush after release.
			k.kclock.Charge(hw.CostInterruptDispatch/2 + hw.CostInvlpg)
		}
	}
}

// reservation returns the cores proc's container reserves. It charges
// nothing: each unmap site reads it next to crediting quota to that
// container, and PM.CreditPages charges the dereference (a teardown
// reads it for its flush, just before the first page it credits).
func (k *Kernel) reservation(proc *pm.Process) []int {
	c, _ := k.PM.TryCntr(proc.Owner)
	return c.CPUs
}
