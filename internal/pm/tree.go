package pm

import (
	"fmt"

	"atmosphere/internal/mem"
)

// Container tree operations (§3, §4.1). Every mutation maintains the
// ghost Path and Subtree of the affected containers eagerly, the way
// Atmosphere's proofs update ghost state inside the executable functions;
// internal/verify re-derives both from the raw parent/children pointers
// and checks they agree (the non-recursive resolve_path_wf of §4.1).

// NewContainer creates a child of parent with the given quota carved out
// of the parent's reservation and a CPU set that must be a subset of the
// parent's. The child's own object page is paid from the child's quota
// (so quota must be at least 1). A zero quota returns ErrQuotaExceeded
// and a CPU the parent does not reserve ErrBadCPU, unwrapped, so a
// rejected call allocates nothing. The child keeps a copy of cpus.
func (m *ProcessManager) NewContainer(parent Ptr, quota uint64, cpus []int) (Ptr, error) {
	pc := m.Cntr(parent)
	if quota < 1 {
		return 0, ErrQuotaExceeded
	}
	for _, cpu := range cpus {
		if !pc.Reserves(cpu) {
			return 0, ErrBadCPU
		}
	}
	// Carve the child's quota out of the parent's.
	if err := m.ChargePages(parent, quota); err != nil {
		return 0, err
	}
	page, err := m.alloc.AllocPage4K(mem.OwnerProcessMgr)
	if err != nil {
		m.CreditPages(parent, quota)
		return 0, err
	}
	child := &Container{
		Ptr:          page,
		Parent:       parent,
		Depth:        pc.Depth + 1,
		QuotaPages:   quota,
		UsedPages:    1, // its own page
		CPUs:         append([]int(nil), cpus...),
		Procs:        make(map[Ptr]struct{}),
		OwnedThreads: make(map[Ptr]struct{}),
		Subtree:      make(map[Ptr]struct{}),
	}
	// Ghost path: parent's path plus the parent itself (Listing 2).
	child.Path = append(append([]Ptr(nil), pc.Path...), parent)
	m.CntrPerms[page] = child
	pc.Children = append(pc.Children, page)
	// Extend the subtree ghost of every direct and indirect parent —
	// the new_container_ensures() postcondition (Listing 3).
	for _, anc := range child.Path {
		m.Cntr(anc).Subtree[page] = struct{}{}
	}
	return page, nil
}

// UnlinkContainer detaches an empty container from the tree and releases
// its page, crediting the carved quota back to the parent. The container
// must have no processes and no children.
func (m *ProcessManager) UnlinkContainer(cntr Ptr) error {
	c := m.Cntr(cntr)
	if len(c.Procs) != 0 || len(c.Children) != 0 {
		return fmt.Errorf("%w: container %#x has %d procs, %d children",
			ErrBusy, cntr, len(c.Procs), len(c.Children))
	}
	if c.Parent == 0 {
		return fmt.Errorf("pm: cannot remove the root container")
	}
	parent := m.Cntr(c.Parent)
	parent.Children = removePtr(parent.Children, cntr)
	for _, anc := range c.Path {
		delete(m.Cntr(anc).Subtree, cntr)
	}
	delete(m.CntrPerms, cntr)
	if err := m.alloc.FreePage(cntr); err != nil {
		return err
	}
	// Return the whole carved reservation to the parent.
	m.CreditPages(c.Parent, c.QuotaPages)
	return nil
}

// IsAncestor reports whether anc is a strict ancestor of cntr, using the
// ghost subtree (O(1) via the flat view rather than a recursive walk).
func (m *ProcessManager) IsAncestor(anc, cntr Ptr) bool {
	a, ok := m.TryCntr(anc)
	if !ok {
		return false
	}
	return a.InSubtree(cntr)
}

// SubtreeOf returns cntr plus every reachable descendant — the C_A
// construction of §4.3, directly from the flat ghost state.
func (m *ProcessManager) SubtreeOf(cntr Ptr) map[Ptr]struct{} {
	c := m.Cntr(cntr)
	out := make(map[Ptr]struct{}, len(c.Subtree)+1)
	out[cntr] = struct{}{}
	for p := range c.Subtree {
		out[p] = struct{}{}
	}
	return out
}

// ThreadsOf returns every thread owned by cntr's subtree — the T_A
// construction of §4.3 (flat, non-recursive).
func (m *ProcessManager) ThreadsOf(cntr Ptr) map[Ptr]struct{} {
	out := make(map[Ptr]struct{})
	for cp := range m.SubtreeOf(cntr) {
		for t := range m.Cntr(cp).OwnedThreads {
			out[t] = struct{}{}
		}
	}
	return out
}

// ProcsOf returns every process in cntr's subtree — the P_A construction
// of §4.3.
func (m *ProcessManager) ProcsOf(cntr Ptr) map[Ptr]struct{} {
	out := make(map[Ptr]struct{})
	for cp := range m.SubtreeOf(cntr) {
		for p := range m.Cntr(cp).Procs {
			out[p] = struct{}{}
		}
	}
	return out
}

// ResolvePathRecursive recomputes a container's path by walking parent
// pointers — the recursive formulation the paper contrasts with flat
// storage (§4.1). It exists for the ablation benchmark and as an oracle
// for the ghost Path.
func (m *ProcessManager) ResolvePathRecursive(cntr Ptr) []Ptr {
	var rec func(p Ptr) []Ptr
	rec = func(p Ptr) []Ptr {
		c := m.Cntr(p)
		if c.Parent == 0 {
			return nil
		}
		return append(rec(c.Parent), c.Parent)
	}
	return rec(cntr)
}

// SubtreeRecursive recomputes the reachable-children set by recursive
// descent through the children lists (the unbounded recursive spec the
// flat design avoids).
func (m *ProcessManager) SubtreeRecursive(cntr Ptr) map[Ptr]struct{} {
	out := make(map[Ptr]struct{})
	var rec func(p Ptr)
	rec = func(p Ptr) {
		for _, ch := range m.Cntr(p).Children {
			out[ch] = struct{}{}
			rec(ch)
		}
	}
	rec(cntr)
	return out
}
