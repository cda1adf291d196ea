package spec

import (
	"fmt"

	"atmosphere/internal/hw"
	"atmosphere/internal/kernel"
	"atmosphere/internal/mem"
	"atmosphere/internal/pm"
	"atmosphere/internal/pt"
)

// Executable syscall specifications. Each function is the analogue of a
// paper spec function like syscall_mmap_spec (Listing 1): a predicate
// over the abstract pre-state Ψ, post-state Ψ', the syscall arguments,
// and the return value. Each returns nil when the transition satisfies
// the specification and a descriptive error otherwise.
//
// Scheduler-only state transitions (runnable <-> running) are permitted
// by the frame conditions — the scheduler's own correctness is a global
// well-formedness invariant checked separately — so the specifications
// here correspond to the paper's specs, which do not mention which
// thread currently holds a core.

// threadEqualModSched compares threads allowing runnable<->running moves.
func threadEqualModSched(a, b Thread) bool {
	if a.State != b.State {
		schedOnly := func(s pm.ThreadState) bool {
			return s == pm.ThreadRunnable || s == pm.ThreadRunning
		}
		if !schedOnly(a.State) || !schedOnly(b.State) {
			return false
		}
		a.State = b.State
	}
	return a == b
}

// threadsUnchangedModSched is the Listing 1 thread frame condition with
// scheduler transitions allowed.
func threadsUnchangedModSched(old, new State, except ...Ptr) error {
	ex := make(map[Ptr]bool, len(except))
	for _, p := range except {
		ex[p] = true
	}
	for ptr, ot := range old.Threads {
		if ex[ptr] {
			continue
		}
		nt, ok := new.Threads[ptr]
		if !ok {
			return fmt.Errorf("thread %#x disappeared", ptr)
		}
		if !threadEqualModSched(ot, nt) {
			return fmt.Errorf("thread %#x changed: %+v -> %+v", ptr, ot, nt)
		}
	}
	for ptr := range new.Threads {
		if !ex[ptr] {
			if _, ok := old.Threads[ptr]; !ok {
				return fmt.Errorf("thread %#x appeared", ptr)
			}
		}
	}
	return nil
}

func check(cond bool, format string, args ...any) error {
	if cond {
		return nil
	}
	return fmt.Errorf(format, args...)
}

func firstErr(errs ...error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// callerCntr resolves the caller's container in a state.
func callerCntr(st State, tid Ptr) (Ptr, error) {
	t, ok := st.Threads[tid]
	if !ok {
		return 0, fmt.Errorf("caller thread %#x not in pre-state", tid)
	}
	p, ok := st.Procs[t.OwningProc]
	if !ok {
		return 0, fmt.Errorf("caller process %#x not in pre-state", t.OwningProc)
	}
	return p.Owner, nil
}

// MmapSpec is syscall_mmap_spec (Listing 1): on success, each virtual
// address in the range maps a fresh, unique, previously free physical
// page; addresses outside the range are unchanged; all other kernel
// objects are unchanged; the container is charged for the user pages and
// any new page-table nodes. On failure the address spaces and object
// maps are untouched (quota and the allocated set may only shrink, from
// empty-table cleanup).
func MmapSpec(old, new State, tid Ptr, va hw.VirtAddr, count int, size hw.PageSize, perm pt.Perm, ret kernel.Ret) error {
	t, okCaller := old.Threads[tid]
	if ret.Errno != kernel.OK {
		return firstErr(
			check(ContainersUnchangedExcept(old, new, allCntrs(old)...), "mmap-fail touched container structure"),
			mmapFailFrame(old, new, tid),
		)
	}
	if !okCaller {
		return fmt.Errorf("mmap succeeded for unknown thread %#x", tid)
	}
	proc := t.OwningProc
	cntr, err := callerCntr(old, tid)
	if err != nil {
		return err
	}
	oldAS, newAS := old.AddressSpaces[proc], new.AddressSpaces[proc]
	step := hw.VirtAddr(size.Bytes())

	// Expected new domain.
	want := make(map[hw.VirtAddr]bool, count)
	for i := 0; i < count; i++ {
		want[va+hw.VirtAddr(i)*step] = true
	}
	if err := check(len(newAS) == len(oldAS)+count, "mmap: domain grew by %d, want %d",
		len(newAS)-len(oldAS), count); err != nil {
		return err
	}
	// Virtual addresses outside va_range are not changed (Listing 1,
	// lines 13-18).
	for a, e := range oldAS {
		ne, ok := newAS[a]
		if !ok || ne != e {
			return fmt.Errorf("mmap: pre-existing mapping %#x changed", a)
		}
	}
	// Each address in the range gets a unique, previously free page
	// (lines 19-26).
	seen := make(map[hw.PhysAddr]bool, count)
	for a := range want {
		e, ok := newAS[a]
		if !ok {
			return fmt.Errorf("mmap: %#x not mapped", a)
		}
		if e.Size != size || e.Perm != perm {
			return fmt.Errorf("mmap: %#x mapped with %v/%+v", a, e.Size, e.Perm)
		}
		if seen[e.Phys] {
			return fmt.Errorf("mmap: physical page %#x mapped twice", e.Phys)
		}
		seen[e.Phys] = true
		if !pageWasFree(old, e.Phys, size) {
			return fmt.Errorf("mmap: page %#x was not free before", e.Phys)
		}
		if !new.Mem.Mapped.Contains(e.Phys) {
			return fmt.Errorf("mmap: page %#x not in mapped set after", e.Phys)
		}
	}
	// Frame conditions: every other object unchanged.
	if err := firstErr(
		threadsUnchangedModSched(old, new),
		check(ProcsUnchangedExcept(old, new), "mmap changed a process"),
		check(EndpointsUnchangedExcept(old, new), "mmap changed an endpoint"),
		check(SpacesUnchangedExcept(old, new, proc), "mmap changed another address space"),
		check(ContainersUnchangedExcept(old, new, cntr), "mmap changed another container"),
	); err != nil {
		return err
	}
	// Quota: used grows by the user pages plus new table nodes. Frames
	// that moved into (or out of) the per-core page caches during the
	// syscall are allocated but belong to no container, so the cached
	// subset is excluded from the node delta.
	nodeDelta := (new.Mem.Allocated.Len() - new.Mem.PCache.Len()) -
		(old.Mem.Allocated.Len() - old.Mem.PCache.Len())
	oc, nc := old.Containers[cntr], new.Containers[cntr]
	wantDelta := uint64(count)*(size.Bytes()/hw.PageSize4K) + uint64(nodeDelta)
	if err := check(nc.UsedPages == oc.UsedPages+wantDelta,
		"mmap: used %d -> %d, want +%d", oc.UsedPages, nc.UsedPages, wantDelta); err != nil {
		return err
	}
	if err := check(containerEqualExceptUsed(oc, nc), "mmap changed caller container beyond quota"); err != nil {
		return err
	}
	return nil
}

func allCntrs(st State) []Ptr {
	out := make([]Ptr, 0, len(st.Containers))
	for p := range st.Containers {
		out = append(out, p)
	}
	return out
}

// mmapFailFrame: failure leaves every object and address space untouched;
// quota and the allocated set may shrink by empty-table cleanup, with the
// freed pages landing on the 4K free list.
func mmapFailFrame(old, new State, tid Ptr) error {
	if err := firstErr(
		threadsUnchangedModSched(old, new),
		check(ProcsUnchangedExcept(old, new), "mmap-fail changed a process"),
		check(EndpointsUnchangedExcept(old, new), "mmap-fail changed an endpoint"),
		check(SpacesUnchangedExcept(old, new), "mmap-fail changed an address space"),
		check(old.Mem.Mapped.Equal(new.Mem.Mapped), "mmap-fail changed mapped pages"),
		// A failed attempt may still have refilled a per-core cache
		// before running out of memory or quota, so only the
		// container-owned part of the allocated set must not grow.
		check(allocatedSansCache(new).Subset(old.Mem.Allocated), "mmap-fail grew allocated set"),
	); err != nil {
		return err
	}
	// Containers: only the caller's quota may shrink.
	cntr, err := callerCntr(old, tid)
	if err != nil {
		return nil // unknown caller: EINVAL path, nothing else to check
	}
	for p, oc := range old.Containers {
		nc, ok := new.Containers[p]
		if !ok {
			return fmt.Errorf("mmap-fail removed container %#x", p)
		}
		if p == cntr {
			if nc.UsedPages > oc.UsedPages || !containerEqualExceptUsed(oc, nc) {
				return fmt.Errorf("mmap-fail grew caller quota or structure")
			}
			continue
		}
		if !ContainerEqual(oc, nc) {
			return fmt.Errorf("mmap-fail changed container %#x", p)
		}
	}
	return nil
}

// allocatedSansCache returns the allocated pages that belong to kernel
// subsystems — the allocated set minus the per-core page-cache frames.
func allocatedSansCache(st State) *mem.PageSet {
	s := st.Mem.Allocated.Clone()
	for _, p := range st.Mem.PCache.Sorted() {
		s.Remove(p)
	}
	return s
}

func containerEqualExceptUsed(a, b Container) bool {
	a.UsedPages = b.UsedPages
	return ContainerEqual(a, b)
}

func pageWasFree(old State, phys hw.PhysAddr, size hw.PageSize) bool {
	switch size {
	case hw.Size4K:
		// A frame parked in a per-core page cache is free at the
		// abstract level: not mapped anywhere, owned by no container,
		// merely staged inside the allocator for the next hand-out.
		return old.Mem.Free4K.Contains(phys) || old.Mem.PCache.Contains(phys)
	case hw.Size2M:
		return old.Mem.Free2M.Contains(phys)
	case hw.Size1G:
		return old.Mem.Free1G.Contains(phys)
	}
	return false
}

// MunmapSpec: on success exactly the range disappears from the caller's
// address space, each page's mapping reference is released, quota is
// credited, and nothing else changes.
func MunmapSpec(old, new State, tid Ptr, va hw.VirtAddr, count int, size hw.PageSize, ret kernel.Ret) error {
	if ret.Errno != kernel.OK {
		return check(Unchanged(old, new), "munmap-fail changed state")
	}
	t := old.Threads[tid]
	proc := t.OwningProc
	cntr, err := callerCntr(old, tid)
	if err != nil {
		return err
	}
	// The kernel truncates a misaligned address to its page, like the
	// hardware walker; the specification ranges over the same base.
	va &^= hw.VirtAddr(size.Bytes() - 1)
	oldAS, newAS := old.AddressSpaces[proc], new.AddressSpaces[proc]
	step := hw.VirtAddr(size.Bytes())
	if err := check(len(newAS) == len(oldAS)-count, "munmap: domain shrank by %d, want %d",
		len(oldAS)-len(newAS), count); err != nil {
		return err
	}
	for i := 0; i < count; i++ {
		a := va + hw.VirtAddr(i)*step
		if _, ok := newAS[a]; ok {
			return fmt.Errorf("munmap: %#x still mapped", a)
		}
		if _, ok := oldAS[a]; !ok {
			return fmt.Errorf("munmap succeeded on unmapped %#x", a)
		}
	}
	for a, e := range newAS {
		oe, ok := oldAS[a]
		if !ok || oe != e {
			return fmt.Errorf("munmap changed surviving mapping %#x", a)
		}
	}
	oc, nc := old.Containers[cntr], new.Containers[cntr]
	wantDelta := uint64(count) * (size.Bytes() / hw.PageSize4K)
	return firstErr(
		threadsUnchangedModSched(old, new),
		check(ProcsUnchangedExcept(old, new), "munmap changed a process"),
		check(EndpointsUnchangedExcept(old, new), "munmap changed an endpoint"),
		check(SpacesUnchangedExcept(old, new, proc), "munmap changed another address space"),
		check(ContainersUnchangedExcept(old, new, cntr), "munmap changed another container"),
		check(oc.UsedPages == nc.UsedPages+wantDelta, "munmap: used %d -> %d, want -%d",
			oc.UsedPages, nc.UsedPages, wantDelta),
		check(containerEqualExceptUsed(oc, nc), "munmap changed container structure"),
	)
}

// NewContainerSpec mirrors new_container_ensures (Listing 3): on success
// a fresh container appears as a child of the caller's container; the
// subtree ghost of every direct and indirect parent is extended by
// exactly the child; the parent is charged the carved quota; every other
// container is unchanged.
func NewContainerSpec(old, new State, tid Ptr, quota uint64, cpus []int, ret kernel.Ret) error {
	if ret.Errno != kernel.OK {
		return check(Unchanged(old, new), "new_container-fail changed state")
	}
	parent, err := callerCntr(old, tid)
	if err != nil {
		return err
	}
	child := Ptr(ret.Vals[0])
	if _, existed := old.Containers[child]; existed {
		return fmt.Errorf("new_container returned an existing pointer %#x", child)
	}
	nc, ok := new.Containers[child]
	if !ok {
		return fmt.Errorf("new container %#x not in post-state", child)
	}
	op, np := old.Containers[parent], new.Containers[parent]
	if err := firstErr(
		check(nc.Parent == parent, "child parent = %#x", nc.Parent),
		check(nc.Depth == op.Depth+1, "child depth = %d", nc.Depth),
		check(len(nc.Path) == len(op.Path)+1 && nc.Path[len(nc.Path)-1] == parent,
			"child path wrong"),
		check(nc.QuotaPages == quota && nc.UsedPages == 1, "child accounting wrong: %+v", nc),
		check(len(nc.Subtree) == 0 && len(nc.Procs) == 0 && len(nc.OwnedThreads) == 0,
			"child not empty"),
		check(intsEqual(nc.CPUs, cpus), "child cpus = %v", nc.CPUs),
		check(np.UsedPages == op.UsedPages+quota, "parent not charged the carved quota"),
		check(len(np.Children) == len(op.Children)+1 &&
			np.Children[len(np.Children)-1] == child, "parent children not extended"),
	); err != nil {
		return err
	}
	// Every ancestor's subtree extended by exactly the child; containers
	// off the path unchanged (Listing 3 lines 14-21).
	ancestors := append([]Ptr(nil), nc.Path...)
	anc := make(map[Ptr]bool, len(ancestors))
	for _, a := range ancestors {
		anc[a] = true
	}
	for p, oc := range old.Containers {
		ncur := new.Containers[p]
		if anc[p] {
			wantSub := make(map[Ptr]bool, len(oc.Subtree)+1)
			for s := range oc.Subtree {
				wantSub[s] = true
			}
			wantSub[child] = true
			if !setsEqual(ncur.Subtree, wantSub) {
				return fmt.Errorf("ancestor %#x subtree not extended by exactly the child", p)
			}
			if p != parent && !ContainerEqual(oc, withSubtree(ncur, oc.Subtree)) {
				return fmt.Errorf("ancestor %#x changed beyond its subtree", p)
			}
		} else if p != parent {
			if !ContainerEqual(oc, ncur) {
				return fmt.Errorf("unrelated container %#x changed", p)
			}
		}
	}
	return firstErr(
		threadsUnchangedModSched(old, new),
		check(ProcsUnchangedExcept(old, new), "new_container changed a process"),
		check(EndpointsUnchangedExcept(old, new), "new_container changed an endpoint"),
		check(SpacesUnchangedExcept(old, new), "new_container changed an address space"),
		check(old.Mem.Free4K.Contains(child), "child page was not free"),
	)
}

// withSubtree returns c with its subtree replaced (for comparing all
// other fields).
func withSubtree(c Container, sub map[Ptr]bool) Container {
	c.Subtree = sub
	return c
}

// NewProcSpec: on success a fresh empty process appears in the target
// container with an empty address space; the container is charged two
// pages (object + root table); nothing else changes.
func NewProcSpec(old, new State, tid Ptr, cntr Ptr, parentProc Ptr, ret kernel.Ret) error {
	if ret.Errno != kernel.OK {
		return check(Unchanged(old, new), "new_proc-fail changed state")
	}
	proc := Ptr(ret.Vals[0])
	np, ok := new.Procs[proc]
	if !ok {
		return fmt.Errorf("new process %#x not in post-state", proc)
	}
	if _, existed := old.Procs[proc]; existed {
		return fmt.Errorf("new_proc returned existing pointer")
	}
	oc, nc := old.Containers[cntr], new.Containers[cntr]
	if err := firstErr(
		check(np.Owner == cntr, "proc owner = %#x", np.Owner),
		check(np.Parent == parentProc, "proc parent = %#x", np.Parent),
		check(len(np.Threads) == 0 && len(np.Children) == 0, "proc not empty"),
		check(len(new.AddressSpaces[proc]) == 0, "new proc has mappings"),
		check(nc.Procs[proc], "container missing new proc"),
		check(nc.UsedPages == oc.UsedPages+2, "container charged %d, want 2",
			nc.UsedPages-oc.UsedPages),
	); err != nil {
		return err
	}
	exceptProcs := []Ptr{proc}
	if parentProc != 0 {
		exceptProcs = append(exceptProcs, parentProc)
		opp, npp := old.Procs[parentProc], new.Procs[parentProc]
		if len(npp.Children) != len(opp.Children)+1 ||
			npp.Children[len(npp.Children)-1] != proc {
			return fmt.Errorf("parent process children not extended")
		}
	}
	return firstErr(
		threadsUnchangedModSched(old, new),
		check(ProcsUnchangedExcept(old, new, exceptProcs...), "new_proc changed another process"),
		check(EndpointsUnchangedExcept(old, new), "new_proc changed an endpoint"),
		check(SpacesUnchangedExcept(old, new, proc), "new_proc changed an address space"),
		check(ContainersUnchangedExcept(old, new, cntr), "new_proc changed another container"),
	)
}

// NewThreadSpec: a fresh runnable thread appears in the target process,
// registered in the container's owned_thrds ghost, charged one page.
func NewThreadSpec(old, new State, tid Ptr, proc Ptr, onCore int, ret kernel.Ret) error {
	if ret.Errno != kernel.OK {
		return check(Unchanged(old, new), "new_thread-fail changed state")
	}
	th := Ptr(ret.Vals[0])
	nt, ok := new.Threads[th]
	if !ok {
		return fmt.Errorf("new thread %#x not in post-state", th)
	}
	cntr := old.Procs[proc].Owner
	oc, nc := old.Containers[cntr], new.Containers[cntr]
	op, np := old.Procs[proc], new.Procs[proc]
	return firstErr(
		check(nt.OwningProc == proc && nt.OwningCntr == cntr, "thread ownership wrong"),
		check(nt.Core == onCore, "thread core = %d", nt.Core),
		check(len(np.Threads) == len(op.Threads)+1 &&
			np.Threads[len(np.Threads)-1] == th, "process threads not extended"),
		check(nc.OwnedThreads[th], "owned_thrds ghost missing thread"),
		check(nc.UsedPages == oc.UsedPages+1, "container charged %d, want 1",
			nc.UsedPages-oc.UsedPages),
		threadsUnchangedModSched(old, new, th),
		check(ProcsUnchangedExcept(old, new, proc), "new_thread changed another process"),
		check(EndpointsUnchangedExcept(old, new), "new_thread changed an endpoint"),
		check(SpacesUnchangedExcept(old, new), "new_thread changed an address space"),
		check(ContainersUnchangedExcept(old, new, cntr), "new_thread changed another container"),
	)
}

// NewEndpointSpec: a fresh endpoint with refcount 1 appears, installed in
// the caller's requested slot, charged one page to the caller's container.
func NewEndpointSpec(old, new State, tid Ptr, slot int, ret kernel.Ret) error {
	if ret.Errno != kernel.OK {
		return check(Unchanged(old, new), "new_endpoint-fail changed state")
	}
	ep := Ptr(ret.Vals[0])
	ne, ok := new.Endpoints[ep]
	if !ok {
		return fmt.Errorf("new endpoint %#x not in post-state", ep)
	}
	cntr, err := callerCntr(old, tid)
	if err != nil {
		return err
	}
	oc, nc := old.Containers[cntr], new.Containers[cntr]
	ot, nt := old.Threads[tid], new.Threads[tid]
	wantEndpoints := ot.Endpoints
	wantEndpoints[slot] = ep
	return firstErr(
		check(ne.RefCount == 1 && len(ne.Queue) == 0 && ne.OwnerCntr == cntr,
			"endpoint shape wrong: %+v", ne),
		check(nt.Endpoints == wantEndpoints, "descriptor not installed"),
		check(nc.UsedPages == oc.UsedPages+1, "container charged %d, want 1",
			nc.UsedPages-oc.UsedPages),
		threadsUnchangedModSched(old, new, tid),
		check(ProcsUnchangedExcept(old, new), "new_endpoint changed a process"),
		check(EndpointsUnchangedExcept(old, new, ep), "new_endpoint changed another endpoint"),
		check(SpacesUnchangedExcept(old, new), "new_endpoint changed an address space"),
		check(ContainersUnchangedExcept(old, new, cntr), "new_endpoint changed another container"),
	)
}

// YieldSpec: yields change nothing but scheduler state.
func YieldSpec(old, new State, tid Ptr, ret kernel.Ret) error {
	return firstErr(
		threadsUnchangedModSched(old, new),
		check(ProcsUnchangedExcept(old, new), "yield changed a process"),
		check(EndpointsUnchangedExcept(old, new), "yield changed an endpoint"),
		check(SpacesUnchangedExcept(old, new), "yield changed an address space"),
		check(ContainersUnchangedExcept(old, new), "yield changed a container"),
		check(MemEqual(old.Mem, new.Mem), "yield changed memory"),
	)
}

// ExitThreadSpec: the caller disappears from every structure; its
// endpoint descriptors are released (endpoints may die when their last
// reference drops); the container is credited.
func ExitThreadSpec(old, new State, tid Ptr, ret kernel.Ret) error {
	if ret.Errno != kernel.OK {
		return check(Unchanged(old, new), "exit-fail changed state")
	}
	ot, ok := old.Threads[tid]
	if !ok {
		return fmt.Errorf("exit succeeded for unknown thread")
	}
	if _, still := new.Threads[tid]; still {
		return fmt.Errorf("exited thread still present")
	}
	proc, cntr := ot.OwningProc, ot.OwningCntr
	np := new.Procs[proc]
	for _, th := range np.Threads {
		if th == tid {
			return fmt.Errorf("process still lists exited thread")
		}
	}
	if new.Containers[cntr].OwnedThreads[tid] {
		return fmt.Errorf("owned_thrds still lists exited thread")
	}
	// Endpoints referenced by the dead thread lose one reference each.
	refs := make(map[Ptr]int)
	for _, e := range ot.Endpoints {
		if e != 0 {
			refs[e]++
		}
	}
	var touched []Ptr
	for e, n := range refs {
		touched = append(touched, e)
		oe := old.Endpoints[e]
		if ne, still := new.Endpoints[e]; still {
			if ne.RefCount != oe.RefCount-n {
				return fmt.Errorf("endpoint %#x refcount %d -> %d, want -%d",
					e, oe.RefCount, ne.RefCount, n)
			}
		} else if oe.RefCount != n {
			return fmt.Errorf("endpoint %#x died with %d refs, thread held %d",
				e, oe.RefCount, n)
		}
	}
	return firstErr(
		threadsUnchangedModSched(old, new, tid),
		check(ProcsUnchangedExcept(old, new, proc), "exit changed another process"),
		check(EndpointsUnchangedExcept(old, new, touched...), "exit changed unrelated endpoint"),
		check(SpacesUnchangedExcept(old, new), "exit changed an address space"),
	)
}
