package kernel

import (
	"atmosphere/internal/hw"
	"atmosphere/internal/iommu"
	"atmosphere/internal/pm"
)

// IOMMU syscalls (§3, §5): a process can create one DMA domain, map its
// own pages into it, and attach devices. DMA-mapped pages hold an extra
// reference so a device's view can never dangle, and the domain's
// translation-table pages are charged to the container like any other
// kernel memory.

func iommuDomainID(v uint64) iommu.DomainID { return iommu.DomainID(v) }

// SysIommuCreateDomain creates the caller process's DMA domain.
func (k *Kernel) SysIommuCreateDomain(core int, tid pm.Ptr) Ret {
	defer k.enter(core)()
	t, okk := k.callerThread(tid)
	if !okk {
		return k.post("iommu_create", tid, fail(EINVAL))
	}
	proc := k.PM.Proc(t.OwningProc)
	if proc.IOMMUDomain != 0 {
		return k.post("iommu_create", tid, fail(EALREADY))
	}
	// One page for the domain's translation root.
	if err := k.PM.ChargePages(proc.Owner, 1); err != nil {
		return k.post("iommu_create", tid, fail(EQUOTA))
	}
	d, err := k.IOMMU.CreateDomain()
	if err != nil {
		k.PM.CreditPages(proc.Owner, 1)
		return k.post("iommu_create", tid, fail(errnoOf(err)))
	}
	proc.IOMMUDomain = d.ID
	return k.post("iommu_create", tid, ok(uint64(d.ID)))
}

// SysIommuMap exposes the page backing va in the caller's address space
// to the caller's DMA domain at the same address (identity iova = va),
// pinning the page with an extra reference.
func (k *Kernel) SysIommuMap(core int, tid pm.Ptr, va hw.VirtAddr) Ret {
	defer k.enter(core)()
	t, okk := k.callerThread(tid)
	if !okk {
		return k.post("iommu_map", tid, fail(EINVAL))
	}
	proc := k.PM.Proc(t.OwningProc)
	if proc.IOMMUDomain == 0 {
		return k.post("iommu_map", tid, fail(ENOENT))
	}
	e, covered := proc.PageTable.Lookup(va)
	if !covered || e.Size != hw.Size4K {
		return k.post("iommu_map", tid, fail(ENOENT))
	}
	d, err := k.IOMMU.Domain(proc.IOMMUDomain)
	if err != nil {
		return k.post("iommu_map", tid, fail(errnoOf(err)))
	}
	phys := e.Phys
	if k.mutant == MutantIommuWrongFrame {
		if next, ok := proc.PageTable.Lookup(va + hw.PageSize4K); ok {
			phys = next.Phys
		}
	}
	nodesBefore := d.Table.NodeCount()
	if err := k.Alloc.IncRef(phys); err != nil {
		return k.post("iommu_map", tid, fail(EINVAL))
	}
	if err := k.IOMMU.Map(proc.IOMMUDomain, va, phys); err != nil {
		if _, derr := k.Alloc.DecRef(phys); derr != nil {
			panic(derr)
		}
		return k.post("iommu_map", tid, fail(errnoOf(err)))
	}
	nodesAfter := d.Table.NodeCount()
	if nodesAfter > nodesBefore {
		if err := k.PM.ChargePages(proc.Owner, uint64(nodesAfter-nodesBefore)); err != nil {
			// Roll the mapping back; prune the fresh nodes.
			if uerr := k.IOMMU.Unmap(proc.IOMMUDomain, va); uerr != nil {
				panic(uerr)
			}
			if _, derr := k.Alloc.DecRef(phys); derr != nil {
				panic(derr)
			}
			k.pruneNodes(proc.Owner, d.Table, nodesBefore)
			return k.post("iommu_map", tid, fail(EQUOTA))
		}
	}
	return k.post("iommu_map", tid, ok())
}

// SysIommuUnmap removes a DMA mapping and unpins the page.
func (k *Kernel) SysIommuUnmap(core int, tid pm.Ptr, va hw.VirtAddr) Ret {
	defer k.enter(core)()
	t, okk := k.callerThread(tid)
	if !okk {
		return k.post("iommu_unmap", tid, fail(EINVAL))
	}
	proc := k.PM.Proc(t.OwningProc)
	if proc.IOMMUDomain == 0 {
		return k.post("iommu_unmap", tid, fail(ENOENT))
	}
	d, err := k.IOMMU.Domain(proc.IOMMUDomain)
	if err != nil {
		return k.post("iommu_unmap", tid, fail(errnoOf(err)))
	}
	e, covered := d.Table.Lookup(va)
	if !covered {
		return k.post("iommu_unmap", tid, fail(ENOENT))
	}
	if err := k.IOMMU.Unmap(proc.IOMMUDomain, va); err != nil {
		return k.post("iommu_unmap", tid, fail(errnoOf(err)))
	}
	if _, err := k.Alloc.DecRef(e.Phys); err != nil {
		panic(err)
	}
	return k.post("iommu_unmap", tid, ok())
}

// SysIommuAttach binds a device to the caller process's DMA domain.
func (k *Kernel) SysIommuAttach(core int, tid pm.Ptr, dev iommu.DeviceID) Ret {
	defer k.enter(core)()
	t, okk := k.callerThread(tid)
	if !okk {
		return k.post("iommu_attach", tid, fail(EINVAL))
	}
	proc := k.PM.Proc(t.OwningProc)
	if proc.IOMMUDomain == 0 {
		return k.post("iommu_attach", tid, fail(ENOENT))
	}
	if err := k.IOMMU.AttachDevice(dev, proc.IOMMUDomain); err != nil {
		return k.post("iommu_attach", tid, fail(errnoOf(err)))
	}
	return k.post("iommu_attach", tid, ok())
}
