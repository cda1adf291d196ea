package kernel

import (
	"sort"

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

	nodesBefore := table.PageClosure().Len()
	type mapped struct {
		va   hw.VirtAddr
		phys hw.PhysAddr
	}
	var done []mapped
	rollback := func() {
		for _, mpd := range done {
			if _, err := table.Unmap(mpd.va); err != nil {
				panic(err)
			}
			if _, err := k.Alloc.DecRef(mpd.phys); err != nil {
				panic(err)
			}
			k.PM.CreditPages(cntr, pagesIn4K(size))
		}
		// Drop any now-empty table nodes this syscall (or earlier
		// history) left behind, then settle the accounting delta.
		table.PruneEmpty()
		nodesNow := table.PageClosure().Len()
		if nodesNow < nodesBefore {
			k.PM.CreditPages(cntr, uint64(nodesBefore-nodesNow))
		} else if nodesNow > nodesBefore {
			panic("kernel: rollback left uncharged page-table nodes")
		}
	}

	for i := 0; i < count; i++ {
		dst := va + hw.VirtAddr(i)*step
		if err := k.PM.ChargePages(cntr, pagesIn4K(size)); err != nil {
			rollback()
			return k.post("mmap", tid, fail(EQUOTA))
		}
		phys, err := k.allocUser(core, size)
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
			return k.post("mmap", tid, fail(EINVAL))
		}
		done = append(done, mapped{dst, phys})
	}
	// Charge the page-table nodes this mapping created.
	nodesAfter := table.PageClosure().Len()
	if nodesAfter > nodesBefore {
		if err := k.PM.ChargePages(cntr, uint64(nodesAfter-nodesBefore)); err != nil {
			rollback()
			return k.post("mmap", tid, fail(EQUOTA))
		}
	}
	return k.post("mmap", tid, ok(uint64(va)))
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
		k.freeUser(core, e.Phys, size)
		k.PM.CreditPages(proc.Owner, pagesIn4K(size))
		k.shootdown(core, table.CR3(), dst, size)
	}
	return k.post("munmap", tid, ok())
}

// freeUser releases one mapping reference from an unmap on core. The
// hot case — a 4 KiB page at its last reference, caches enabled — parks
// the frame in the core's page cache (core-local work); everything else
// takes the global DecRef path. Teardown paths (unmapAll, rollback)
// keep plain DecRef: they have no natural core.
func (k *Kernel) freeUser(core int, phys hw.PhysAddr, size hw.PageSize) {
	if k.caches != nil && size == hw.Size4K {
		if rc, err := k.Alloc.RefCount(phys); err == nil && rc == 1 {
			local, err := k.caches.FreeUser4K(core, phys)
			if err != nil {
				panic(err)
			}
			k.cur.local += local
			return
		}
	}
	if _, err := k.Alloc.DecRef(phys); err != nil {
		panic(err)
	}
}

// shootdown performs the TLB maintenance an unmap architecturally
// requires: invalidate the translation on every core (threads of the
// same process may run anywhere, §4.2 "consistency of page table
// updates"), charging the IPI round trip for each remote core. The
// local invlpg itself is charged by pt.Unmap.
func (k *Kernel) shootdown(core int, cr3 hw.PhysAddr, va hw.VirtAddr, size hw.PageSize) {
	pages := int(size.Bytes() / hw.PageSize4K)
	if pages > 16 {
		pages = 16 // superpages flush in bulk; model the capped cost
	}
	for c := 0; c < k.Machine.NumCores(); c++ {
		tlb := k.Machine.Core(c).TLB
		for p := 0; p < pages; p++ {
			tlb.Invalidate(cr3, va+hw.VirtAddr(p*hw.PageSize4K))
		}
		if c != core {
			// IPI send + remote invlpg + ack, charged to the initiator
			// (it spins for the acks under the big lock).
			k.kclock.Charge(hw.CostInterruptDispatch/2 + hw.CostInvlpg)
		}
	}
}

// unmapAll tears down a process's entire address space, releasing page
// references and crediting quota. Used by process and container kill.
// Addresses are processed in sorted order so teardown (and hence the
// free-list order it produces) is deterministic — output consistency
// (§4.3) requires the kernel to be a function of its pre-state.
func (k *Kernel) unmapAll(proc *pm.Process) {
	k.Ledger().SetContext(proc.Owner) // the torn-down refs are the victim's, not the killer's
	space := proc.PageTable.AddressSpace()
	vas := make([]hw.VirtAddr, 0, len(space))
	for va := range space {
		vas = append(vas, va)
	}
	sort.Slice(vas, func(i, j int) bool { return vas[i] < vas[j] })
	for _, va := range vas {
		e := space[va]
		if _, err := proc.PageTable.Unmap(va); err != nil {
			panic(err)
		}
		if _, err := k.Alloc.DecRef(e.Phys); err != nil {
			panic(err)
		}
		k.PM.CreditPages(proc.Owner, pagesIn4K(e.Size))
	}
	// Whole-address-space teardown flushes rather than per-page
	// shootdowns: one IPI round per core.
	for c := 0; c < k.Machine.NumCores(); c++ {
		k.Machine.Core(c).TLB.Flush()
		k.kclock.Charge(hw.CostInterruptDispatch / 2)
	}
}
