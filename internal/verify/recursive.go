package verify

import (
	"fmt"

	"atmosphere/internal/hw"
	"atmosphere/internal/kernel"
	"atmosphere/internal/pm"
	"atmosphere/internal/pt"
)

// Recursive formulations of the structural invariants — the shape the
// paper argues against (§4.1, §6.2). They compute the same properties as
// the flat checks in invariants.go but by recursive descent through the
// object graph, re-deriving ghost state instead of validating it in one
// pass. The ablation benchmark (bench/ablation) compares their running
// time against the flat versions, reproducing the §6.2 argument that
// flat storage makes the obligations cheaper to discharge.

// ContainerTreeWFRecursive checks the same properties as the flat
// ContainerTreeWF, but the way a recursive specification forces: each
// node's path is re-derived by recursing through its parents
// (child_resolve_path_wf unrolled, §4.1), and each node's subtree is
// re-derived by full recursive descent through its children. Without
// the flat global view these per-node derivations cannot be shared, so
// the total work is O(n · depth) for paths and O(Σ subtree sizes) for
// subtrees — the blowup that makes recursive obligations expensive to
// discharge (§6.2).
func ContainerTreeWFRecursive(k *kernel.Kernel) error {
	cm := k.PM.CntrPerms
	// Reachability and acyclicity by one recursive descent.
	visited := make(map[pm.Ptr]bool, len(cm))
	var reach func(ptr pm.Ptr) error
	reach = func(ptr pm.Ptr) error {
		if visited[ptr] {
			return fmt.Errorf("container %#x reachable twice (cycle or sharing)", ptr)
		}
		visited[ptr] = true
		c, ok := cm[ptr]
		if !ok {
			return fmt.Errorf("reachable container %#x has no permission", ptr)
		}
		for _, ch := range c.Children {
			if err := reach(ch); err != nil {
				return err
			}
		}
		return nil
	}
	if err := reach(k.PM.RootContainer); err != nil {
		return err
	}
	if len(visited) != len(cm) {
		return fmt.Errorf("%d containers unreachable from root", len(cm)-len(visited))
	}
	// Per-node recursive re-derivation (no sharing between nodes).
	for ptr, c := range cm {
		path := k.PM.ResolvePathRecursive(ptr)
		if len(path) != len(c.Path) || len(path) != c.Depth {
			return fmt.Errorf("container %#x ghost path length %d, derived %d (depth %d)",
				ptr, len(c.Path), len(path), c.Depth)
		}
		for i := range path {
			if path[i] != c.Path[i] {
				return fmt.Errorf("container %#x ghost path diverges at %d", ptr, i)
			}
		}
		subtree := k.PM.SubtreeRecursive(ptr)
		if len(subtree) != len(c.Subtree) {
			return fmt.Errorf("container %#x ghost subtree %d, derived %d",
				ptr, len(c.Subtree), len(subtree))
		}
		for s := range subtree {
			if _, ok := c.Subtree[s]; !ok {
				return fmt.Errorf("container %#x ghost subtree missing %#x", ptr, s)
			}
		}
	}
	return nil
}

// DomainThreadsRecursive computes T_A — all threads of a container
// subtree — the recursive way the paper describes (§4.3): walk the
// container tree level by level, then each container's processes, then
// each process's threads. Contrast pm.ThreadsOf, which reads the flat
// ghost sets directly.
func DomainThreadsRecursive(k *kernel.Kernel, cntr pm.Ptr) map[pm.Ptr]struct{} {
	out := make(map[pm.Ptr]struct{})
	var walk func(c pm.Ptr)
	walk = func(c pm.Ptr) {
		cc := k.PM.Cntr(c)
		for p := range cc.Procs {
			for _, th := range k.PM.Proc(p).Threads {
				out[th] = struct{}{}
			}
		}
		for _, ch := range cc.Children {
			walk(ch)
		}
	}
	walk(cntr)
	return out
}

// PTRefinementRecursive checks the page-table refinement the way a
// recursive, hierarchically-owned specification forces (the NrOS shape
// the paper contrasts with flat storage, §6.2): the address space is
// reconstructed by recursive descent, merging each subtree's mapping
// set level by level, and at every level of the merge the accumulated
// mappings are re-validated against a hardware walk — the unrolling of
// the recursive spec through the PML levels. Work is O(entries × depth)
// in walks plus O(entries × depth) in map merging, against the flat
// variant's single pass (pt.CheckRefinement).
func PTRefinementRecursive(table *pt.PageTable, mmu *hw.MMU) error {
	abstract := table.AddressSpace()
	merged, err := recurseLevel(table, mmu, table.CR3(), 4, 0)
	if err != nil {
		return err
	}
	if len(merged) != len(abstract) {
		return fmt.Errorf("recursive refinement: %d derived vs %d abstract", len(merged), len(abstract))
	}
	for va, e := range merged {
		ae, ok := abstract[va]
		if !ok || ae != e {
			return fmt.Errorf("recursive refinement: %#x derived %+v abstract %+v ok=%v", va, e, ae, ok)
		}
	}
	return nil
}

// recurseLevel rebuilds the mapping set of the subtree rooted at one
// table node and re-validates every mapping it returns against the MMU
// — at each level, so an entry at depth d is re-checked d times, as the
// unrolled recursive proof re-establishes subtree properties per level.
// Like the flat walk, it visits only the entries written into each node
// (hw.PhysMem.EachWord), so the two differ in formulation only.
func recurseLevel(table *pt.PageTable, mmu *hw.MMU, node hw.PhysAddr, level int, vaBase uint64) (map[hw.VirtAddr]pt.MapEntry, error) {
	out := make(map[hw.VirtAddr]pt.MapEntry)
	shift := uint(12 + 9*(level-1))
	if err := table.Mem().EachWord(node, func(i int, e uint64) error {
		if e&hw.PtePresent == 0 {
			return nil
		}
		va := vaBase | uint64(i)<<shift
		if level == 1 || e&hw.PteHuge != 0 {
			cva := canonical(va)
			entry, ok := table.Lookup(cva)
			if !ok {
				return fmt.Errorf("recursive refinement: concrete leaf %#x missing from ghost", cva)
			}
			out[cva] = entry
			return nil
		}
		sub, err := recurseLevel(table, mmu, hw.PhysAddr(e&hw.PteAddrMask), level-1, va)
		if err != nil {
			return err
		}
		// Merge the child's set and re-validate it at this level (the
		// per-level re-derivation flat storage avoids).
		for sva, se := range sub {
			tr, ok := mmu.Walk(table.CR3(), sva)
			if !ok || tr.Phys != se.Phys {
				return fmt.Errorf("recursive refinement: MMU disagrees at %#x (level %d)", sva, level)
			}
			out[sva] = se
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

func canonical(va uint64) hw.VirtAddr {
	if va&(1<<47) != 0 {
		va |= 0xffff_0000_0000_0000
	}
	return hw.VirtAddr(va)
}
