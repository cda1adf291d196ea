// Package pt implements Atmosphere's 4-level page table (§4.2, §6.2).
//
// The concrete state is a radix tree of 512-entry tables stored in
// simulated physical memory and walked by the hardware MMU model. The
// abstract state — the paper's ghost `Map<VAddr, MapEntry>`, one map per
// page size — is maintained eagerly alongside every update, and the
// refinement property of §6.2 (the abstract map equals what the MMU
// resolves, in both directions) is checked by internal/verify and by this
// package's own CheckRefinement.
//
// Following the flat permission design, permissions to all table nodes of
// every level are stored at the top level of the page table (the Nodes
// set), not threaded through the hierarchy.
package pt

import (
	"errors"
	"fmt"

	"atmosphere/internal/hw"
	"atmosphere/internal/mem"
)

// Mapping errors.
var (
	ErrAlreadyMapped = errors.New("pt: virtual address already mapped")
	ErrNotMapped     = errors.New("pt: virtual address not mapped")
	ErrMisaligned    = errors.New("pt: misaligned address")
	ErrConflict      = errors.New("pt: conflicting mapping granularity")
)

// Perm is the access permission of a mapping.
type Perm struct {
	Write bool
	User  bool
	Exec  bool
}

// RW is the common read-write user permission.
var RW = Perm{Write: true, User: true, Exec: false}

// RX is a read-execute user permission.
var RX = Perm{Write: false, User: true, Exec: true}

func (p Perm) bits() uint64 {
	b := hw.PtePresent
	if p.Write {
		b |= hw.PteWritable
	}
	if p.User {
		b |= hw.PteUser
	}
	if !p.Exec {
		b |= hw.PteNX
	}
	return b
}

// MapEntry is one entry of the abstract address-space map: the physical
// page a virtual address maps to, at which granularity, with which
// permissions (Listing 1, line 3).
type MapEntry struct {
	Phys hw.PhysAddr
	Size hw.PageSize
	Perm Perm
}

// tableFlags are the permissions on non-leaf entries: maximally permissive
// so leaves control effective permissions (standard x86-64 practice).
const tableFlags = hw.PtePresent | hw.PteWritable | hw.PteUser

// PageTable is one address space's page table.
type PageTable struct {
	alloc *mem.Allocator
	clock *hw.Clock
	cr3   hw.PhysAddr
	owner mem.Owner

	// Nodes is the flat set of all table-node pages of every level —
	// the flat permission storage of §4.1 applied to the page table
	// (tracked permissions of each PML level stored at the top, §6.2).
	nodes *mem.PageSet

	// Ghost abstract state: one map per page size (§6.2).
	ghost4K map[hw.VirtAddr]MapEntry
	ghost2M map[hw.VirtAddr]MapEntry
	ghost1G map[hw.VirtAddr]MapEntry

	// OnStep, when set, is invoked after every individual page-table
	// entry write with whether the write touched a last-level entry.
	// The §4.2 consistency property — non-leaf steps leave the abstract
	// address space unchanged; a leaf step changes exactly one entry —
	// is checked through this hook.
	OnStep func(leafWrite bool)
}

// New allocates an empty page table (one zeroed PML4 node) whose node
// pages account to the CPU page-table subsystem.
func New(alloc *mem.Allocator, clock *hw.Clock) (*PageTable, error) {
	return NewOwned(alloc, clock, mem.OwnerPageTable)
}

// NewOwned allocates an empty page table whose node pages account to the
// given subsystem (the IOMMU uses the same 4-level format with its own
// closure, §4.2).
func NewOwned(alloc *mem.Allocator, clock *hw.Clock, owner mem.Owner) (*PageTable, error) {
	root, err := alloc.AllocPage4K(owner)
	if err != nil {
		return nil, err
	}
	return &PageTable{
		alloc:   alloc,
		clock:   clock,
		cr3:     root,
		owner:   owner,
		nodes:   mem.NewPageSet(root),
		ghost4K: make(map[hw.VirtAddr]MapEntry),
		ghost2M: make(map[hw.VirtAddr]MapEntry),
		ghost1G: make(map[hw.VirtAddr]MapEntry),
	}, nil
}

// CR3 returns the physical address of the root table.
func (t *PageTable) CR3() hw.PhysAddr { return t.cr3 }

// Mem returns the physical memory holding the table (ghost access for
// verification code).
func (t *PageTable) Mem() *hw.PhysMem { return t.alloc.Mem() }

// AddressSpace returns a fresh merged view of all three abstract maps —
// the Ψ.get_address_space(proc) of the paper's specifications.
func (t *PageTable) AddressSpace() map[hw.VirtAddr]MapEntry { return t.AddressSpaceInto(nil) }

// AddressSpaceInto clears out, refills it with the merged view of all
// three abstract maps, and returns it; a nil out gets a new map.
func (t *PageTable) AddressSpaceInto(out map[hw.VirtAddr]MapEntry) map[hw.VirtAddr]MapEntry {
	if out == nil {
		out = make(map[hw.VirtAddr]MapEntry, t.MappedCount())
	} else {
		clear(out)
	}
	for va, e := range t.ghost4K {
		out[va] = e
	}
	for va, e := range t.ghost2M {
		out[va] = e
	}
	for va, e := range t.ghost1G {
		out[va] = e
	}
	return out
}

// Mapping returns the abstract mapping whose base is exactly va, looking
// up 1G, then 2M, then 4K: the entry AddressSpace holds for va.
func (t *PageTable) Mapping(va hw.VirtAddr) (MapEntry, bool) {
	if e, ok := t.ghost1G[va]; ok {
		return e, true
	}
	if e, ok := t.ghost2M[va]; ok {
		return e, true
	}
	e, ok := t.ghost4K[va]
	return e, ok
}

// MappedCount returns the number of abstract mappings.
func (t *PageTable) MappedCount() int {
	return len(t.ghost4K) + len(t.ghost2M) + len(t.ghost1G)
}

// MappedPages4K returns how many 4 KiB pages the abstract maps cover:
// each mapping weighted by its page size.
func (t *PageTable) MappedPages4K() uint64 {
	return uint64(len(t.ghost4K)) + uint64(len(t.ghost2M))*hw.Pages4KPer2M +
		uint64(len(t.ghost1G))*hw.Pages4KPer1G
}

// CountMappingsInto adds one to refs[e.Phys] for every abstract mapping
// e: the references the table holds on the frames it maps.
func (t *PageTable) CountMappingsInto(refs map[hw.PhysAddr]uint32) {
	for _, e := range t.ghost4K {
		refs[e.Phys]++
	}
	for _, e := range t.ghost2M {
		refs[e.Phys]++
	}
	for _, e := range t.ghost1G {
		refs[e.Phys]++
	}
}

// PageClosureInto adds the pages used by the page table itself, its
// table nodes, to s, and reports whether none of them was in s already.
// A page table owns no other objects (§4.2).
func (t *PageTable) PageClosureInto(s *mem.PageSet) (disjoint bool) {
	disjoint = t.nodes.Disjoint(s)
	s.Union(t.nodes)
	return disjoint
}

// NodeCount returns the number of table nodes.
func (t *PageTable) NodeCount() int { return t.nodes.Len() }

// MappedFrames returns the set of physical pages currently mapped, for
// isolation checks.
func (t *PageTable) MappedFrames() *mem.PageSet {
	s := mem.NewPageSet()
	for _, e := range t.ghost4K {
		s.Insert(e.Phys)
	}
	for _, e := range t.ghost2M {
		s.Insert(e.Phys)
	}
	for _, e := range t.ghost1G {
		s.Insert(e.Phys)
	}
	return s
}

func (t *PageTable) write(addr hw.PhysAddr, v uint64, leaf bool) {
	t.clock.Charge(hw.CostPTWrite)
	t.alloc.Mem().WriteU64(addr, v)
	if t.OnStep != nil {
		t.OnStep(leaf)
	}
}

func (t *PageTable) read(addr hw.PhysAddr) uint64 {
	t.clock.Charge(hw.CostPTWalkLevel)
	return t.alloc.Mem().ReadU64(addr)
}

// fresh logs the table nodes one map call installs, root-most first.
type fresh struct {
	slots, nodes [3]hw.PhysAddr
	n            int
}

// ensureTable returns the next-level table pointed to by the entry at
// slot, allocating and installing a zeroed node if the entry is empty
// and logging it in f. If the node cannot be allocated, the nodes f
// logs are taken out again, so a map that fails for want of memory
// leaves the table as it found it. (No later step of a map can fail
// once it has installed a node: everything below a fresh node is
// empty.)
func (t *PageTable) ensureTable(f *fresh, slot hw.PhysAddr) (hw.PhysAddr, error) {
	e := t.read(slot)
	if e&hw.PtePresent != 0 {
		if e&hw.PteHuge != 0 {
			return 0, ErrConflict
		}
		return hw.PhysAddr(e & hw.PteAddrMask), nil
	}
	node, err := t.alloc.AllocPage4K(t.owner)
	if err != nil {
		for f.n > 0 {
			f.n--
			t.write(f.slots[f.n], 0, false)
			t.nodes.Remove(f.nodes[f.n])
			if ferr := t.alloc.FreePage(f.nodes[f.n]); ferr != nil {
				panic(ferr)
			}
		}
		return 0, err
	}
	t.nodes.Insert(node)
	t.write(slot, uint64(node)|tableFlags, false)
	f.slots[f.n], f.nodes[f.n] = slot, node
	f.n++
	return node, nil
}

func slotAddr(table hw.PhysAddr, index int) hw.PhysAddr {
	return table + hw.PhysAddr(index*hw.PtrSize)
}

// Map4K installs va -> phys at 4 KiB granularity.
func (t *PageTable) Map4K(va hw.VirtAddr, phys hw.PhysAddr, perm Perm) error {
	if !hw.Aligned4K(uint64(va)) || !hw.Aligned4K(uint64(phys)) {
		return fmt.Errorf("%w: va=%#x phys=%#x", ErrMisaligned, va, phys)
	}
	if t.covered(va) {
		return fmt.Errorf("%w: %#x", ErrAlreadyMapped, va)
	}
	var f fresh
	l3, err := t.ensureTable(&f, slotAddr(t.cr3, hw.L4Index(va)))
	if err != nil {
		return err
	}
	l2, err := t.ensureTable(&f, slotAddr(l3, hw.L3Index(va)))
	if err != nil {
		return err
	}
	l1, err := t.ensureTable(&f, slotAddr(l2, hw.L2Index(va)))
	if err != nil {
		return err
	}
	slot := slotAddr(l1, hw.L1Index(va))
	if t.read(slot)&hw.PtePresent != 0 {
		return fmt.Errorf("%w: %#x", ErrAlreadyMapped, va)
	}
	t.write(slot, uint64(phys)|perm.bits(), true)
	t.ghost4K[va] = MapEntry{Phys: phys, Size: hw.Size4K, Perm: perm}
	return nil
}

// Map2M installs va -> phys at 2 MiB granularity.
func (t *PageTable) Map2M(va hw.VirtAddr, phys hw.PhysAddr, perm Perm) error {
	if !hw.Aligned2M(uint64(va)) || !hw.Aligned2M(uint64(phys)) {
		return fmt.Errorf("%w: va=%#x phys=%#x", ErrMisaligned, va, phys)
	}
	if t.covered(va) {
		return fmt.Errorf("%w: %#x", ErrAlreadyMapped, va)
	}
	var f fresh
	l3, err := t.ensureTable(&f, slotAddr(t.cr3, hw.L4Index(va)))
	if err != nil {
		return err
	}
	l2, err := t.ensureTable(&f, slotAddr(l3, hw.L3Index(va)))
	if err != nil {
		return err
	}
	slot := slotAddr(l2, hw.L2Index(va))
	if t.read(slot)&hw.PtePresent != 0 {
		return fmt.Errorf("%w: %#x", ErrConflict, va)
	}
	t.write(slot, uint64(phys)|perm.bits()|hw.PteHuge, true)
	t.ghost2M[va] = MapEntry{Phys: phys, Size: hw.Size2M, Perm: perm}
	return nil
}

// Map1G installs va -> phys at 1 GiB granularity.
func (t *PageTable) Map1G(va hw.VirtAddr, phys hw.PhysAddr, perm Perm) error {
	if !hw.Aligned1G(uint64(va)) || !hw.Aligned1G(uint64(phys)) {
		return fmt.Errorf("%w: va=%#x phys=%#x", ErrMisaligned, va, phys)
	}
	if t.covered(va) {
		return fmt.Errorf("%w: %#x", ErrAlreadyMapped, va)
	}
	var f fresh
	l3, err := t.ensureTable(&f, slotAddr(t.cr3, hw.L4Index(va)))
	if err != nil {
		return err
	}
	slot := slotAddr(l3, hw.L3Index(va))
	if t.read(slot)&hw.PtePresent != 0 {
		return fmt.Errorf("%w: %#x", ErrConflict, va)
	}
	t.write(slot, uint64(phys)|perm.bits()|hw.PteHuge, true)
	t.ghost1G[va] = MapEntry{Phys: phys, Size: hw.Size1G, Perm: perm}
	return nil
}

// Map dispatches on size. Each Map* either installs the mapping or
// fails and leaves the table as it found it.
func (t *PageTable) Map(va hw.VirtAddr, phys hw.PhysAddr, size hw.PageSize, perm Perm) error {
	switch size {
	case hw.Size4K:
		return t.Map4K(va, phys, perm)
	case hw.Size2M:
		return t.Map2M(va, phys, perm)
	case hw.Size1G:
		return t.Map1G(va, phys, perm)
	}
	return fmt.Errorf("pt: invalid page size %v", size)
}

// covered reports whether va falls inside any existing mapping (of any
// granularity) — the abstract domain-disjointness precondition.
func (t *PageTable) covered(va hw.VirtAddr) bool {
	if _, ok := t.ghost4K[va&^hw.VirtAddr(hw.PageSize4K-1)]; ok {
		return true
	}
	if _, ok := t.ghost2M[va&^hw.VirtAddr(hw.PageSize2M-1)]; ok {
		return true
	}
	if _, ok := t.ghost1G[va&^hw.VirtAddr(hw.PageSize1G-1)]; ok {
		return true
	}
	return false
}

// Lookup returns the abstract mapping covering va, if any.
func (t *PageTable) Lookup(va hw.VirtAddr) (MapEntry, bool) {
	if e, ok := t.ghost4K[va&^hw.VirtAddr(hw.PageSize4K-1)]; ok {
		return e, true
	}
	if e, ok := t.ghost2M[va&^hw.VirtAddr(hw.PageSize2M-1)]; ok {
		return e, true
	}
	if e, ok := t.ghost1G[va&^hw.VirtAddr(hw.PageSize1G-1)]; ok {
		return e, true
	}
	return MapEntry{}, false
}

// Unmap removes the mapping whose base is exactly va and returns its
// entry. It charges the TLB invalidation the architecture requires.
func (t *PageTable) Unmap(va hw.VirtAddr) (MapEntry, error) {
	if e, ok := t.ghost4K[va]; ok {
		l1, err := t.leafTable(va, 3)
		if err != nil {
			return MapEntry{}, err
		}
		t.write(slotAddr(l1, hw.L1Index(va)), 0, true)
		delete(t.ghost4K, va)
		t.clock.Charge(hw.CostInvlpg)
		return e, nil
	}
	if e, ok := t.ghost2M[va]; ok {
		l2, err := t.leafTable(va, 2)
		if err != nil {
			return MapEntry{}, err
		}
		t.write(slotAddr(l2, hw.L2Index(va)), 0, true)
		delete(t.ghost2M, va)
		t.clock.Charge(hw.CostInvlpg)
		return e, nil
	}
	if e, ok := t.ghost1G[va]; ok {
		l3, err := t.leafTable(va, 1)
		if err != nil {
			return MapEntry{}, err
		}
		t.write(slotAddr(l3, hw.L3Index(va)), 0, true)
		delete(t.ghost1G, va)
		t.clock.Charge(hw.CostInvlpg)
		return e, nil
	}
	return MapEntry{}, fmt.Errorf("%w: %#x", ErrNotMapped, va)
}

// leafTable walks depth levels below the root and returns the table that
// holds va's leaf entry at that depth (1 = PDPT, 2 = PD, 3 = PT).
func (t *PageTable) leafTable(va hw.VirtAddr, depth int) (hw.PhysAddr, error) {
	table := t.cr3
	idx := []int{hw.L4Index(va), hw.L3Index(va), hw.L2Index(va)}
	for d := 0; d < depth; d++ {
		e := t.read(slotAddr(table, idx[d]))
		if e&hw.PtePresent == 0 || e&hw.PteHuge != 0 {
			return 0, fmt.Errorf("%w: broken walk at depth %d for %#x", ErrNotMapped, d, va)
		}
		table = hw.PhysAddr(e & hw.PteAddrMask)
	}
	return table, nil
}

// Resolve performs a software walk (charging per-level cost) and returns
// the mapping covering va. This is the kernel's own walk; the MMU model
// in hw performs the hardware walk for refinement checks.
func (t *PageTable) Resolve(va hw.VirtAddr) (MapEntry, bool) {
	table := t.cr3
	e := t.read(slotAddr(table, hw.L4Index(va)))
	if e&hw.PtePresent == 0 {
		return MapEntry{}, false
	}
	e = t.read(slotAddr(hw.PhysAddr(e&hw.PteAddrMask), hw.L3Index(va)))
	if e&hw.PtePresent == 0 {
		return MapEntry{}, false
	}
	if e&hw.PteHuge != 0 {
		return entryFromPte(e, hw.Size1G), true
	}
	e = t.read(slotAddr(hw.PhysAddr(e&hw.PteAddrMask), hw.L2Index(va)))
	if e&hw.PtePresent == 0 {
		return MapEntry{}, false
	}
	if e&hw.PteHuge != 0 {
		return entryFromPte(e, hw.Size2M), true
	}
	e = t.read(slotAddr(hw.PhysAddr(e&hw.PteAddrMask), hw.L1Index(va)))
	if e&hw.PtePresent == 0 {
		return MapEntry{}, false
	}
	return entryFromPte(e, hw.Size4K), true
}

func entryFromPte(e uint64, size hw.PageSize) MapEntry {
	base := e & hw.PteAddrMask &^ (size.Bytes() - 1)
	return MapEntry{
		Phys: hw.PhysAddr(base),
		Size: size,
		Perm: Perm{
			Write: e&hw.PteWritable != 0,
			User:  e&hw.PteUser != 0,
			Exec:  e&hw.PteNX == 0,
		},
	}
}

// Destroy frees all table nodes. The abstract mapping must already be
// empty (the kernel unmaps and releases user frames first); this mirrors
// Atmosphere's rule that permissions are consumed at deallocation.
func (t *PageTable) Destroy() error {
	if t.MappedCount() != 0 {
		return fmt.Errorf("pt: destroy with %d live mappings", t.MappedCount())
	}
	for _, p := range t.nodes.Sorted() {
		if err := t.alloc.FreePage(p); err != nil {
			return err
		}
	}
	t.nodes = mem.NewPageSet()
	t.cr3 = 0
	return nil
}
