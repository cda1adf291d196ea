package pt

import (
	"fmt"

	"atmosphere/internal/hw"
	"atmosphere/internal/mem"
)

// This file holds the executable form of the page-table refinement
// theorem (§6.2): the abstract mapping equals, in both directions, what
// the hardware MMU resolves from the concrete tables. These functions
// never charge cycles — they are ghost code, the analogue of proof
// functions erased at compile time.

// eachMapping walks the concrete radix tree in ascending virtual-address
// order and calls fn on every terminal mapping it encodes, stopping at
// the first error fn returns. This is the "resolve_mapping" side of the
// §6.2 forall, visited in place rather than materialized.
func (t *PageTable) eachMapping(fn func(va hw.VirtAddr, e MapEntry) error) error {
	m := t.alloc.Mem()
	for i4 := 0; i4 < hw.EntriesPerTable; i4++ {
		e4 := m.ReadU64(slotAddr(t.cr3, i4))
		if e4&hw.PtePresent == 0 {
			continue
		}
		l3 := hw.PhysAddr(e4 & hw.PteAddrMask)
		for i3 := 0; i3 < hw.EntriesPerTable; i3++ {
			e3 := m.ReadU64(slotAddr(l3, i3))
			if e3&hw.PtePresent == 0 {
				continue
			}
			if e3&hw.PteHuge != 0 {
				if err := fn(hw.VAFromIndices(i4, i3, 0, 0), entryFromPte(e3, hw.Size1G)); err != nil {
					return err
				}
				continue
			}
			l2 := hw.PhysAddr(e3 & hw.PteAddrMask)
			for i2 := 0; i2 < hw.EntriesPerTable; i2++ {
				e2 := m.ReadU64(slotAddr(l2, i2))
				if e2&hw.PtePresent == 0 {
					continue
				}
				if e2&hw.PteHuge != 0 {
					if err := fn(hw.VAFromIndices(i4, i3, i2, 0), entryFromPte(e2, hw.Size2M)); err != nil {
						return err
					}
					continue
				}
				l1 := hw.PhysAddr(e2 & hw.PteAddrMask)
				for i1 := 0; i1 < hw.EntriesPerTable; i1++ {
					e1 := m.ReadU64(slotAddr(l1, i1))
					if e1&hw.PtePresent == 0 {
						continue
					}
					if err := fn(hw.VAFromIndices(i4, i3, i2, i1), entryFromPte(e1, hw.Size4K)); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

// CheckRefinement validates both directions of the refinement theorem:
//
//  1. for every entry of the abstract maps, an MMU walk from CR3 resolves
//     to the same physical address, size, and permissions;
//  2. every terminal mapping present in the concrete tables appears in
//     the abstract maps (no hidden mappings).
func (t *PageTable) CheckRefinement(mmu *hw.MMU) error {
	check := func(ghost map[hw.VirtAddr]MapEntry, size hw.PageSize) error {
		for va, e := range ghost {
			tr, ok := mmu.Walk(t.cr3, va)
			if !ok {
				return fmt.Errorf("pt: ghost %v mapping %#x not resolved by MMU", size, va)
			}
			if tr.Size != size {
				return fmt.Errorf("pt: %#x resolves at %v, ghost says %v", va, tr.Size, size)
			}
			if tr.Phys != e.Phys {
				return fmt.Errorf("pt: %#x resolves to %#x, ghost says %#x", va, tr.Phys, e.Phys)
			}
			if tr.Writable != e.Perm.Write || tr.User != e.Perm.User || tr.NX == e.Perm.Exec {
				return fmt.Errorf("pt: %#x permission mismatch: hw=%+v ghost=%+v", va, tr, e.Perm)
			}
		}
		return nil
	}
	if err := check(t.ghost4K, hw.Size4K); err != nil {
		return err
	}
	if err := check(t.ghost2M, hw.Size2M); err != nil {
		return err
	}
	if err := check(t.ghost1G, hw.Size1G); err != nil {
		return err
	}
	// Direction 2 checks each concrete mapping against the ghost maps
	// during one ascending walk, counting as it goes: the flat design
	// needs no reconstruction of the address space, so this pass
	// allocates nothing, and a hidden mapping is reported at its lowest
	// virtual address.
	n := 0
	if err := t.eachMapping(func(va hw.VirtAddr, ce MapEntry) error {
		n++
		var ae MapEntry
		var ok bool
		switch ce.Size {
		case hw.Size4K:
			ae, ok = t.ghost4K[va]
		case hw.Size2M:
			ae, ok = t.ghost2M[va]
		case hw.Size1G:
			ae, ok = t.ghost1G[va]
		}
		if !ok {
			return fmt.Errorf("pt: concrete mapping %#x missing from abstract state", va)
		}
		if ae != ce {
			return fmt.Errorf("pt: %#x concrete %+v != abstract %+v", va, ce, ae)
		}
		return nil
	}); err != nil {
		return err
	}
	if n != t.MappedCount() {
		return fmt.Errorf("pt: concrete has %d mappings, abstract %d", n, t.MappedCount())
	}
	return nil
}

// CheckStructure validates the structural invariants of the radix tree:
// every non-leaf present entry points at a page in the flat node set,
// every node page is allocated to the page-table subsystem, and no node
// is reachable twice (acyclicity / no sharing). seen is scratch: the
// check clears it and fills it with the reachable nodes, and a nil seen
// gets a fresh set.
func (t *PageTable) CheckStructure(seen *mem.PageSet) error {
	if seen == nil {
		seen = mem.NewPageSet()
	}
	seen.Clear()
	if err := t.checkNode(t.cr3); err != nil {
		return err
	}
	seen.Insert(t.cr3)
	if err := t.checkSubtree(seen, t.cr3, 4); err != nil {
		return err
	}
	if !seen.Equal(t.nodes) {
		return fmt.Errorf("pt: flat node set has %d pages, %d reachable", t.nodes.Len(), seen.Len())
	}
	return nil
}

// checkNode checks one reachable node: it is in the flat node set and
// allocated to the table's owner.
func (t *PageTable) checkNode(table hw.PhysAddr) error {
	if !t.nodes.Contains(table) {
		return fmt.Errorf("pt: reachable node %#x not in flat node set", table)
	}
	meta, err := t.alloc.Meta(table)
	if err != nil {
		return err
	}
	if meta.State != mem.StateAllocated || meta.Owner != t.owner {
		return fmt.Errorf("pt: node %#x is %v/%v, want allocated/%v", table, meta.State, meta.Owner, t.owner)
	}
	return nil
}

// checkSubtree checks the nodes below table, a node at level (4 is the
// root), adding each to seen once it passes checkNode.
func (t *PageTable) checkSubtree(seen *mem.PageSet, table hw.PhysAddr, level int) error {
	m := t.alloc.Mem()
	for i := 0; i < hw.EntriesPerTable; i++ {
		e := m.ReadU64(slotAddr(table, i))
		if e&hw.PtePresent == 0 || level == 1 || e&hw.PteHuge != 0 {
			continue // empty, or a terminal mapping rather than a node
		}
		next := hw.PhysAddr(e & hw.PteAddrMask)
		if seen.Contains(next) {
			return fmt.Errorf("pt: node %#x reachable twice", next)
		}
		if err := t.checkNode(next); err != nil {
			return err
		}
		seen.Insert(next)
		if err := t.checkSubtree(seen, next, level-1); err != nil {
			return err
		}
	}
	return nil
}
