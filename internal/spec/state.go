// Package spec defines the abstract state of the Atmosphere kernel — the
// paper's Ψ — and the executable specification of every system call.
//
// In the paper, the abstract state is ghost data maintained by Verus and
// the syscall specifications are spec functions discharged statically by
// the SMT solver. Here the abstract state is a plain value produced by an
// abstraction function over the concrete kernel, and the specification
// is one executable interpreter, Interp: each syscall's step fixes Ψ′
// from Ψ, the arguments and the kernel's witnesses, and Diff compares
// the kernel against Ψ′. internal/verify's Checker steps it after every
// transition of a checked trace — the dynamic analogue of the refinement
// theorem (§4).
//
// The specifications are deliberately written in the paper's "flat" style:
// they quantify over the flat object maps directly (all threads, all
// containers) instead of navigating the object hierarchy (§4.3).
package spec

import (
	"sort"

	"atmosphere/internal/hw"
	"atmosphere/internal/iommu"
	"atmosphere/internal/pm"
	"atmosphere/internal/pt"
)

// Ptr re-exports the kernel object pointer type.
type Ptr = pm.Ptr

// Container is the abstract view of one container.
type Container struct {
	Parent       Ptr
	Children     []Ptr
	Depth        int
	Path         []Ptr
	Subtree      map[Ptr]bool
	QuotaPages   uint64
	UsedPages    uint64
	CPUs         []int
	Procs        map[Ptr]bool
	OwnedThreads map[Ptr]bool
}

// Proc is the abstract view of one process.
type Proc struct {
	Owner       Ptr
	Parent      Ptr
	Children    []Ptr
	Threads     []Ptr
	IOMMUDomain iommu.DomainID
}

// Thread is the abstract view of one thread.
type Thread struct {
	OwningProc Ptr
	OwningCntr Ptr
	State      pm.ThreadState
	Core       int
	Endpoints  [pm.MaxEndpoints]Ptr
	WaitingOn  Ptr
}

// BufMsg is the abstract image of one buffered (or in-flight) message's
// capability payload. Scalar registers are below the abstraction line —
// Ψ tracks what authority a message carries, not its data.
type BufMsg struct {
	HasPage bool
	Size    hw.PageSize
	Perm    pt.Perm
}

// Endpoint is the abstract view of one endpoint.
type Endpoint struct {
	Queue      []Ptr
	QueuedRecv bool
	RefCount   int
	OwnerCntr  Ptr
	// Buffered mirrors the endpoint's asynchronous message buffer
	// (send_async appends, receives pop FIFO ahead of the sender queue).
	Buffered []BufMsg
}

// State is the abstract kernel state Ψ.
type State struct {
	RootContainer Ptr
	Containers    map[Ptr]Container
	Procs         map[Ptr]Proc
	Threads       map[Ptr]Thread
	Endpoints     map[Ptr]Endpoint

	// AddressSpaces maps each process to its abstract address space —
	// the Ψ.get_address_space(proc) of Listing 1.
	AddressSpaces map[Ptr]map[hw.VirtAddr]pt.MapEntry

	// DMASpaces maps each IOMMU domain to its translation map.
	DMASpaces map[iommu.DomainID]map[hw.VirtAddr]pt.MapEntry
}

// LoadObjects is the abstraction function: it fills st with Ψ of the
// concrete kernel components, deep-copied, reusing the maps and slices a
// previous LoadObjects left in it. Every entry is overwritten and the
// entries of dead objects are deleted, so a reused st ends up equal to a
// fresh one.
func (st *State) LoadObjects(p *pm.ProcessManager, iom *iommu.IOMMU) {
	st.RootContainer = p.RootContainer
	st.Containers = prune(st.Containers, p.CntrPerms)
	for ptr, c := range p.CntrPerms {
		ac := st.Containers[ptr]
		loadContainer(&ac, c)
		st.Containers[ptr] = ac
	}
	st.Procs = prune(st.Procs, p.ProcPerms)
	st.AddressSpaces = prune(st.AddressSpaces, p.ProcPerms)
	for ptr, pr := range p.ProcPerms {
		ap := st.Procs[ptr]
		loadProc(&ap, pr)
		st.Procs[ptr] = ap
		st.AddressSpaces[ptr] = pr.PageTable.AddressSpaceInto(st.AddressSpaces[ptr])
	}
	st.Threads = prune(st.Threads, p.ThrdPerms)
	for ptr, t := range p.ThrdPerms {
		st.Threads[ptr] = loadThread(t)
	}
	st.Endpoints = prune(st.Endpoints, p.EdptPerms)
	for ptr, e := range p.EdptPerms {
		ae := st.Endpoints[ptr]
		loadEndpoint(&ae, e)
		st.Endpoints[ptr] = ae
	}
	domains := domainsOf(iom)
	st.DMASpaces = prune(st.DMASpaces, domains)
	for id, d := range domains {
		st.DMASpaces[id] = d.Table.AddressSpaceInto(st.DMASpaces[id])
	}
}

// The loaders are the abstraction function of one kernel object each,
// used by LoadObjects and, for every kind but containers (compared in
// place), by Interp.Diff. Each overwrites every field of dst, reusing
// its slices and sets; a thread holds none, so loadThread returns its
// view.

func loadContainer(dst *Container, c *pm.Container) {
	*dst = Container{
		Parent:       c.Parent,
		Children:     append(dst.Children[:0], c.Children...),
		Depth:        c.Depth,
		Path:         append(dst.Path[:0], c.Path...),
		Subtree:      refillSet(dst.Subtree, c.Subtree),
		QuotaPages:   c.QuotaPages,
		UsedPages:    c.UsedPages,
		CPUs:         append(dst.CPUs[:0], c.CPUs...),
		Procs:        refillSet(dst.Procs, c.Procs),
		OwnedThreads: refillSet(dst.OwnedThreads, c.OwnedThreads),
	}
}

func loadProc(dst *Proc, pr *pm.Process) {
	*dst = Proc{
		Owner:       pr.Owner,
		Parent:      pr.Parent,
		Children:    append(dst.Children[:0], pr.Children...),
		Threads:     append(dst.Threads[:0], pr.Threads...),
		IOMMUDomain: pr.IOMMUDomain,
	}
}

func loadThread(t *pm.Thread) Thread {
	return Thread{
		OwningProc: t.OwningProc,
		OwningCntr: t.OwningCntr,
		State:      t.State,
		Core:       t.Core,
		Endpoints:  t.Endpoints,
		WaitingOn:  t.IPC.WaitingOn,
	}
}

func loadEndpoint(dst *Endpoint, e *pm.Endpoint) {
	buf := dst.Buffered[:0]
	for _, m := range e.Buffer {
		buf = append(buf, BufMsg{HasPage: m.HasPage, Size: m.PageSize, Perm: m.PagePerm})
	}
	*dst = Endpoint{
		Queue:      append(dst.Queue[:0], e.Queue...),
		QueuedRecv: e.QueuedRecv,
		RefCount:   e.RefCount,
		OwnerCntr:  e.OwnerCntr,
		Buffered:   buf,
	}
}

// domainsOf returns the IOMMU's live domains, none for a nil IOMMU.
func domainsOf(iom *iommu.IOMMU) map[iommu.DomainID]*iommu.Domain {
	if iom == nil {
		return nil
	}
	return iom.Domains()
}

// prune returns m with every key absent from live deleted, or a new map
// sized to live when m is nil.
func prune[K comparable, V, L any](m map[K]V, live map[K]L) map[K]V {
	if m == nil {
		return make(map[K]V, len(live))
	}
	for k := range m {
		if _, ok := live[k]; !ok {
			delete(m, k)
		}
	}
	return m
}

// refillSet returns set holding exactly the keys of src, reusing set.
func refillSet[V any](set map[Ptr]bool, src map[Ptr]V) map[Ptr]bool {
	if set == nil {
		set = make(map[Ptr]bool, len(src))
	} else {
		clear(set)
	}
	for k := range src {
		set[k] = true
	}
	return set
}

// --- equality helpers (Diff's field comparisons) ----------------------------

func ptrsEqual(a, b []Ptr) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// setsEqual compares a pointer set of any value type (a kernel set
// holds empty structs) with a spec set: length first, then membership.
func setsEqual[V any](a map[Ptr]V, b map[Ptr]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func bufsEqual(a, b []BufMsg) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// SortedPtrs returns the keys of a pointer set in ascending order.
func SortedPtrs[V any](s map[Ptr]V) []Ptr {
	out := make([]Ptr, 0, len(s))
	for p := range s {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
