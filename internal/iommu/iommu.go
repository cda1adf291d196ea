// Package iommu models the I/O memory management unit Atmosphere programs
// to confine DMA-capable devices (§3, §5). Devices are assigned to
// domains; each domain has its own 4-level translation table (same format
// as the CPU page table, walked by the device model before any DMA), and
// a root context table maps device identifiers to domains.
//
// Following the flat design, all domain and context state is stored in
// flat maps at the IOMMU top level; the per-domain translation tables
// account their node pages to the IOMMU's page closure, which the
// verifier checks for disjointness against every other subsystem.
package iommu

import (
	"errors"
	"fmt"

	"atmosphere/internal/hw"
	"atmosphere/internal/mem"
	"atmosphere/internal/pt"
)

// IOMMU errors.
var (
	ErrNoDomain       = errors.New("iommu: no such domain")
	ErrDeviceBound    = errors.New("iommu: device already bound")
	ErrDeviceNotBound = errors.New("iommu: device not bound")
	ErrDomainBusy     = errors.New("iommu: domain still has devices")
)

// DeviceID identifies a PCIe function (bus:device.function packed).
type DeviceID uint16

// DomainID identifies an isolation domain. Domain identifiers are the
// "IOMMU identifiers" threads pass over endpoints (§3).
type DomainID uint32

// Domain is one DMA isolation domain.
type Domain struct {
	ID      DomainID
	Table   *pt.PageTable
	Devices map[DeviceID]struct{}
}

// IOMMU is the simulated I/O MMU.
type IOMMU struct {
	alloc *mem.Allocator
	clock *hw.Clock
	// root is the context-table page (allocated, owner IOMMU).
	root hw.PhysAddr
	// Flat maps: every domain and every binding at the top level.
	domains  map[DomainID]*Domain
	contexts map[DeviceID]DomainID
	nextID   DomainID
}

// New initializes an IOMMU, allocating its root context page.
func New(alloc *mem.Allocator, clock *hw.Clock) (*IOMMU, error) {
	root, err := alloc.AllocPage4K(mem.OwnerIOMMU)
	if err != nil {
		return nil, err
	}
	return &IOMMU{
		alloc:    alloc,
		clock:    clock,
		root:     root,
		domains:  make(map[DomainID]*Domain),
		contexts: make(map[DeviceID]DomainID),
		nextID:   1,
	}, nil
}

// CreateDomain allocates a fresh domain with an empty translation table.
func (u *IOMMU) CreateDomain() (*Domain, error) {
	table, err := pt.NewOwned(u.alloc, u.clock, mem.OwnerIOMMU)
	if err != nil {
		return nil, err
	}
	d := &Domain{ID: u.nextID, Table: table, Devices: make(map[DeviceID]struct{})}
	u.nextID++
	u.domains[d.ID] = d
	u.clock.Charge(hw.CostMMIOWrite)
	return d, nil
}

// Domain returns the domain with the given id.
func (u *IOMMU) Domain(id DomainID) (*Domain, error) {
	d, ok := u.domains[id]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNoDomain, id)
	}
	return d, nil
}

// Domains returns the flat domain map (read-only use).
func (u *IOMMU) Domains() map[DomainID]*Domain { return u.domains }

// AttachDevice binds a device to a domain; subsequent DMA from the device
// translates through the domain's table.
func (u *IOMMU) AttachDevice(dev DeviceID, id DomainID) error {
	if _, ok := u.contexts[dev]; ok {
		return fmt.Errorf("%w: %d", ErrDeviceBound, dev)
	}
	d, ok := u.domains[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoDomain, id)
	}
	u.contexts[dev] = id
	d.Devices[dev] = struct{}{}
	u.clock.Charge(hw.CostMMIOWrite * 2) // context entry + flush
	return nil
}

// DetachDevice unbinds a device.
func (u *IOMMU) DetachDevice(dev DeviceID) error {
	id, ok := u.contexts[dev]
	if !ok {
		return fmt.Errorf("%w: %d", ErrDeviceNotBound, dev)
	}
	delete(u.contexts, dev)
	delete(u.domains[id].Devices, dev)
	u.clock.Charge(hw.CostMMIOWrite * 2)
	return nil
}

// DestroyDomain tears down an empty domain, returning its table pages.
// All mappings must have been removed first (matching the page-table
// destroy protocol).
func (u *IOMMU) DestroyDomain(id DomainID) error {
	d, ok := u.domains[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoDomain, id)
	}
	if len(d.Devices) != 0 {
		return fmt.Errorf("%w: %d devices", ErrDomainBusy, len(d.Devices))
	}
	for va := range d.Table.AddressSpace() {
		if _, err := d.Table.Unmap(va); err != nil {
			return err
		}
	}
	if err := d.Table.Destroy(); err != nil {
		return err
	}
	delete(u.domains, id)
	return nil
}

// Map adds iova -> phys to the device domain at 4 KiB granularity.
func (u *IOMMU) Map(id DomainID, iova hw.VirtAddr, phys hw.PhysAddr) error {
	d, ok := u.domains[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoDomain, id)
	}
	return d.Table.Map4K(iova, phys, pt.RW)
}

// Unmap removes iova from the device domain.
func (u *IOMMU) Unmap(id DomainID, iova hw.VirtAddr) error {
	d, ok := u.domains[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoDomain, id)
	}
	if _, err := d.Table.Unmap(iova); err != nil {
		return err
	}
	u.clock.Charge(hw.CostInvlpg) // IOTLB invalidation
	return nil
}

// Translate resolves a DMA address for a device; the device models call
// this before every DMA touch, so an unmapped access faults instead of
// corrupting memory — the property the paper relies on to exclude devices
// from the TCB (§5, item 11).
func (u *IOMMU) Translate(dev DeviceID, iova hw.VirtAddr) (hw.PhysAddr, bool) {
	id, ok := u.contexts[dev]
	if !ok {
		return 0, false
	}
	e, ok := u.domains[id].Table.Lookup(iova)
	if !ok {
		return 0, false
	}
	off := uint64(iova) & (e.Size.Bytes() - 1)
	return e.Phys + hw.PhysAddr(off), true
}

// PageClosureInto adds every page owned by the IOMMU subsystem to s:
// the root context page plus every domain's table nodes.
func (u *IOMMU) PageClosureInto(s *mem.PageSet) {
	s.Insert(u.root)
	for _, d := range u.domains {
		d.Table.PageClosureInto(s)
	}
}

// CheckWF validates the IOMMU structural invariants: context entries
// reference live domains, domain device sets mirror the context map, and
// every domain table passes its own structural check, which uses seen as
// scratch (see pt.PageTable.CheckStructure).
func (u *IOMMU) CheckWF(seen *mem.PageSet) error {
	for dev, id := range u.contexts {
		d, ok := u.domains[id]
		if !ok {
			return fmt.Errorf("iommu: device %d bound to dead domain %d", dev, id)
		}
		if _, ok := d.Devices[dev]; !ok {
			return fmt.Errorf("iommu: context/domain device sets disagree for %d", dev)
		}
	}
	for id, d := range u.domains {
		if d.ID != id {
			return fmt.Errorf("iommu: domain id mismatch %d != %d", d.ID, id)
		}
		for dev := range d.Devices {
			if u.contexts[dev] != id {
				return fmt.Errorf("iommu: domain %d lists device %d not bound to it", id, dev)
			}
		}
		if err := d.Table.CheckStructure(seen); err != nil {
			return fmt.Errorf("iommu domain %d: %w", id, err)
		}
	}
	return nil
}
