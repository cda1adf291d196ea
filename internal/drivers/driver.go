package drivers

import (
	"fmt"

	"atmosphere/internal/hw"
	"atmosphere/internal/iommu"
	"atmosphere/internal/kernel"
	"atmosphere/internal/obs/account"
	"atmosphere/internal/pm"
	"atmosphere/internal/pt"
)

// driver is what both user-space drivers share: the thread they run as
// and the core it occupies, the container their data-path cycles are
// billed to, and the DMA window their rings and buffers are mapped in.
type driver struct {
	K    *kernel.Kernel
	Tid  pm.Ptr
	Core int

	// Accounting (nil/zero when no ledger is attached to the kernel):
	// data-path cycles are billed to the driver's container.
	ledger *account.Ledger
	cntr   pm.Ptr

	// The DMA window: the driver process's page table, the next free
	// virtual address, and whether the device sits behind the IOMMU.
	name     string
	proc     *pm.Process
	nextVA   hw.VirtAddr
	useIOMMU bool
}

// newDriver describes the driver named name that thread tid runs on
// core, with its DMA window starting at base. It issues no syscall.
func newDriver(k *kernel.Kernel, tid pm.Ptr, core int, name string, base hw.VirtAddr, useIOMMU bool) driver {
	proc := k.PM.Proc(k.PM.Thrd(tid).OwningProc)
	return driver{K: k, Tid: tid, Core: core, ledger: k.Ledger(), cntr: proc.Owner,
		name: name, proc: proc, nextVA: base, useIOMMU: useIOMMU}
}

// attach puts device dev behind the driver process's IOMMU domain,
// creating the domain if it has none; without the IOMMU it does nothing.
func (d *driver) attach(dev iommu.DeviceID) error {
	if !d.useIOMMU {
		return nil
	}
	if r := d.K.SysIommuCreateDomain(d.Core, d.Tid); r.Errno != kernel.OK && r.Errno != kernel.EALREADY {
		return fmt.Errorf("drivers: iommu domain: %v", r.Errno)
	}
	if r := d.K.SysIommuAttach(d.Core, d.Tid, dev); r.Errno != kernel.OK {
		return fmt.Errorf("drivers: iommu attach: %v", r.Errno)
	}
	return nil
}

// mapDMA maps pages fresh pages at the window's next address, leaving a
// one-page gap after them, exposes each through the IOMMU when the
// device sits behind it, and returns the first page's physical address
// (what the driver touches) and its DMA address (what it programs into
// the device: the physical address in pass-through mode, the driver's
// virtual address behind the IOMMU).
func (d *driver) mapDMA(pages int) (phys, dma hw.PhysAddr, err error) {
	va := d.nextVA
	d.nextVA += hw.VirtAddr((pages + 1) * hw.PageSize4K)
	if r := d.K.SysMmap(d.Core, d.Tid, va, pages, hw.Size4K, pt.RW); r.Errno != kernel.OK {
		return 0, 0, fmt.Errorf("drivers: mmap: %v", r.Errno)
	}
	if d.useIOMMU {
		for i := 0; i < pages; i++ {
			if r := d.K.SysIommuMap(d.Core, d.Tid, va+hw.VirtAddr(i*hw.PageSize4K)); r.Errno != kernel.OK {
				return 0, 0, fmt.Errorf("drivers: iommu_map: %v", r.Errno)
			}
		}
	}
	e, ok := d.proc.PageTable.Lookup(va)
	if !ok {
		return 0, 0, fmt.Errorf("%w: %s va %#x", ErrUnmapped, d.name, va)
	}
	if d.useIOMMU {
		return e.Phys, hw.PhysAddr(va), nil
	}
	return e.Phys, e.Phys, nil
}

// mapBuffers maps n one-page buffers through mapDMA and returns their
// physical and DMA addresses.
func (d *driver) mapBuffers(n int) (phys, dma []hw.PhysAddr, err error) {
	phys, dma = make([]hw.PhysAddr, n), make([]hw.PhysAddr, n)
	for i := range phys {
		if phys[i], dma[i], err = d.mapDMA(1); err != nil {
			return nil, nil, err
		}
	}
	return phys, dma, nil
}

func (d *driver) clock() *hw.Clock { return &d.K.Machine.Core(d.Core).Clock }

// chargeLedger bills user-space driver cycles since start (direct MMIO
// and polling, no kernel crossing so no syscall attribution) to the
// driver's container.
func (d *driver) chargeLedger(start uint64) {
	if d.ledger != nil {
		d.ledger.ChargeCycles(d.cntr, d.clock().Cycles()-start)
	}
}
