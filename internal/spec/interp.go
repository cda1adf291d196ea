package spec

// The executable specification: Interp evolves Ψ by applying each
// syscall's specification directly, with no concrete kernel underneath.
// internal/verify's Checker steps it after every syscall it issues, and
// the differential oracle (internal/mck) drives generated programs
// through that Checker; after each step Diff compares the kernel, read
// through the abstraction function, against the independently evolved
// Ψ′ — the dynamic analogue of the refinement theorem run in both
// directions at once: the kernel must land exactly where the
// specification says it lands.
//
// Nondeterminism is handled with witnesses: the kernel's returned object
// pointers and IOMMU domain identifiers are taken from Ret and validated
// for freshness, the frames mmap maps are read from the kernel and must
// each hold exactly one reference, and ENOMEM is trusted whenever
// argument validation has already passed (allocator exhaustion is below
// Ψ's abstraction line — the failed syscall must still leave Ψ unchanged,
// or roll back to the specified prune transition). Every other frame in
// Ψ′ is copied from its source: a shared or granted page lands on the
// sender's frame, and iommu_map pins the frame the caller's address
// space maps.
//
// Scope: every syscall the Checker exposes, plus the two kernel writes
// no syscall expresses — a parent installing an endpoint descriptor in a
// child's slot (Install) and a device raising an interrupt (RaiseIRQ).

import (
	"cmp"
	"fmt"
	"slices"

	"atmosphere/internal/hw"
	"atmosphere/internal/iommu"
	"atmosphere/internal/kernel"
	"atmosphere/internal/pm"
	"atmosphere/internal/pt"
)

// Interp holds the independently evolved abstract state Ψ′ plus the ghost
// state the specification needs that Ψ deliberately abstracts away.
type Interp struct {
	St State

	// k is the kernel Diff compares against and the frame witnesses are
	// read from.
	k *kernel.Kernel

	// keys tracks, per process, the non-root page-table node pages that
	// have been materialized (and charged) — encoded as level<<58 | va
	// prefix. Nodes outlive their mappings (munmap leaves them charged),
	// so this is ghost state: it cannot be recomputed from AddressSpaces.
	// dmaKeys is the same for each IOMMU domain's translation table.
	keys    map[Ptr]map[uint64]bool
	dmaKeys map[iommu.DomainID]map[uint64]bool

	// devices binds each attached device to its domain.
	devices map[iommu.DeviceID]iommu.DomainID

	// irqs is the interrupt binding table: each bound line's endpoint
	// (the binding holds a reference) and its pending, coalesced count.
	irqs map[int]*irqLine

	// dying holds the containers an unfinished bounded kill has frozen.
	dying map[Ptr]bool

	// recvSlot and recvVA record, for a thread blocked receiving, where
	// it asked an incoming endpoint descriptor (-1: first free slot) and
	// an incoming page to land — the abstract image of Thread.IPC's
	// RecvEdptSlot and RecvVA.
	recvSlot map[Ptr]int
	recvVA   map[Ptr]hw.VirtAddr

	// sent records, for a thread blocked sending, its pending message's
	// capabilities — the abstract image of Thread.IPC.Msg.
	sent map[Ptr]message

	// bufFrames holds, per endpoint, the frame of each buffered message
	// in Buffered's order (0 for a scalar-only message).
	bufFrames map[Ptr][]hw.PhysAddr

	// kp and ke hold the kernel object Diff is comparing, one reused
	// scratch value per kind that owns slices (a thread owns none, and a
	// container is compared in place).
	kp Proc
	ke Endpoint
}

// irqLine is one bound interrupt line.
type irqLine struct {
	ep      Ptr
	pending uint64
}

// message is the capability payload of a resolved message: a page (with
// the frame it maps) and a transferred endpoint (0: none).
type message struct {
	page  BufMsg
	frame hw.PhysAddr
	xfer  Ptr
}

// NewInterp builds an interpreter whose Ψ′ starts as the kernel's Ψ and
// whose ghost state starts as the kernel's bindings: its page-table and
// DMA nodes, devices and interrupt lines. Its IPC ghost state and dying
// set start empty and its lines' pending counts at zero, so it steps
// correctly only from a kernel with no thread blocked, no bounded kill
// unfinished and no interrupt pending.
func NewInterp(k *kernel.Kernel) *Interp {
	ip := &Interp{
		k:         k,
		keys:      make(map[Ptr]map[uint64]bool, len(k.PM.ProcPerms)),
		dmaKeys:   make(map[iommu.DomainID]map[uint64]bool),
		devices:   make(map[iommu.DeviceID]iommu.DomainID),
		irqs:      make(map[int]*irqLine),
		dying:     make(map[Ptr]bool),
		recvSlot:  make(map[Ptr]int),
		recvVA:    make(map[Ptr]hw.VirtAddr),
		sent:      make(map[Ptr]message),
		bufFrames: make(map[Ptr][]hw.PhysAddr),
	}
	ip.St.LoadObjects(k.PM, k.IOMMU)
	for proc, as := range ip.St.AddressSpaces {
		ip.keys[proc] = closureKeys(as)
	}
	for id, ds := range ip.St.DMASpaces {
		ip.dmaKeys[id] = closureKeys(ds)
		for dev := range k.IOMMU.Domains()[id].Devices {
			ip.devices[dev] = id
		}
	}
	for irq, ep := range k.IRQBindings() {
		ip.irqs[irq] = &irqLine{ep: ep}
	}
	for ep, e := range k.PM.EdptPerms {
		for _, m := range e.Buffer {
			ip.bufFrames[ep] = append(ip.bufFrames[ep], m.Page)
		}
	}
	return ip
}

// nodeKeys returns the ghost keys of the table nodes a mapping of the
// given granularity at va requires, in ks[:n]: its L3 table always, plus
// L2 and L1 tables for the finer granularities.
func nodeKeys(va hw.VirtAddr, size hw.PageSize) (ks [3]uint64, n int) {
	ks = [3]uint64{3<<58 | uint64(va)>>39, 2<<58 | uint64(va)>>30, 1<<58 | uint64(va)>>21}
	switch size {
	case hw.Size1G:
		return ks, 1
	case hw.Size2M:
		return ks, 2
	}
	return ks, 3
}

// conflicts reports whether a superpage at va would land on a table
// node its leaf slot already points at (pt.ErrConflict): an L1 table
// under a 2 MiB page, an L2 table under a 1 GiB one, mapped or empty.
func conflicts(kset map[uint64]bool, va hw.VirtAddr, size hw.PageSize) bool {
	ks, _ := nodeKeys(va, hw.Size4K)
	switch size {
	case hw.Size2M:
		return kset[ks[2]]
	case hw.Size1G:
		return kset[ks[1]]
	}
	return false
}

// closureKeys computes the exact node set a standing address space needs —
// what the concrete table holds right after a PruneEmpty.
func closureKeys(as map[hw.VirtAddr]pt.MapEntry) map[uint64]bool {
	out := make(map[uint64]bool)
	for va, e := range as {
		ks, n := nodeKeys(va, e.Size)
		for _, k := range ks[:n] {
			out[k] = true
		}
	}
	return out
}

// newKeys adds to need the keys of a mapping at va that kset lacks.
func newKeys(need, kset map[uint64]bool, va hw.VirtAddr, size hw.PageSize) {
	ks, n := nodeKeys(va, size)
	for _, k := range ks[:n] {
		if !kset[k] {
			need[k] = true
		}
	}
}

// --- small state helpers ----------------------------------------------------

// caller mirrors kernel.runnable: the invoking thread must exist, must
// not be blocked on an endpoint, must not belong to a container an
// unfinished bounded kill has frozen, and must trap on a core its
// container reserves.
func (ip *Interp) caller(core int, tid Ptr) (Thread, bool) {
	t, ok := ip.St.Threads[tid]
	if !ok || t.State == pm.ThreadBlockedSend || t.State == pm.ThreadBlockedRecv || ip.dying[t.OwningCntr] {
		return t, false
	}
	return t, slices.Contains(ip.St.Containers[t.OwningCntr].CPUs, core)
}

// callerEndpoint mirrors kernel.callerEndpoint: a valid caller and the
// endpoint its descriptor slot names.
func (ip *Interp) callerEndpoint(core int, tid Ptr, slot int) (Thread, Ptr, bool) {
	t, ok := ip.caller(core, tid)
	if !ok || slot < 0 || slot >= pm.MaxEndpoints || t.Endpoints[slot] == 0 {
		return t, 0, false
	}
	return t, t.Endpoints[slot], true
}

// fresh reports whether a returned object-pointer witness is usable: it
// must be nonzero and must not collide with any live object.
func (ip *Interp) fresh(p Ptr) bool {
	if p == 0 {
		return false
	}
	if _, ok := ip.St.Containers[p]; ok {
		return false
	}
	if _, ok := ip.St.Procs[p]; ok {
		return false
	}
	if _, ok := ip.St.Threads[p]; ok {
		return false
	}
	if _, ok := ip.St.Endpoints[p]; ok {
		return false
	}
	return true
}

func (ip *Interp) chargeFits(cntr Ptr, n uint64) bool {
	c := ip.St.Containers[cntr]
	return c.UsedPages+n <= c.QuotaPages
}

func (ip *Interp) charge(cntr Ptr, n uint64) {
	c := ip.St.Containers[cntr]
	c.UsedPages += n
	ip.St.Containers[cntr] = c
}

func (ip *Interp) credit(cntr Ptr, n uint64) {
	c, ok := ip.St.Containers[cntr]
	if !ok {
		return
	}
	if c.UsedPages < n {
		// Mirrors the CreditPages underflow panic — surfaced as a
		// divergence by the next Diff instead of crashing the harness.
		c.UsedPages = 0
	} else {
		c.UsedPages -= n
	}
	ip.St.Containers[cntr] = c
}

// decref mirrors pm.EndpointDecRef: the endpoint dies (its buffered
// messages with it, and its page is credited to its owner) when the last
// reference drops and no thread is queued.
func (ip *Interp) decref(ep Ptr) {
	e, ok := ip.St.Endpoints[ep]
	if !ok {
		return
	}
	e.RefCount--
	if e.RefCount > 0 || len(e.Queue) > 0 {
		ip.St.Endpoints[ep] = e
		return
	}
	delete(ip.St.Endpoints, ep)
	delete(ip.bufFrames, ep)
	ip.credit(e.OwnerCntr, 1)
}

func (ip *Interp) isAncestor(anc, cntr Ptr) bool {
	a, ok := ip.St.Containers[anc]
	return ok && a.Subtree[cntr]
}

// controls mirrors kernel.controlsProcess.
func (ip *Interp) controls(callerProc, targetProc Ptr) bool {
	if callerProc == targetProc {
		return true
	}
	cp := ip.St.Procs[callerProc]
	tp := ip.St.Procs[targetProc]
	if ip.isAncestor(cp.Owner, tp.Owner) {
		return true
	}
	if cp.Owner == tp.Owner {
		for p := tp.Parent; p != 0; {
			if p == callerProc {
				return true
			}
			pp, ok := ip.St.Procs[p]
			if !ok {
				break
			}
			p = pp.Parent
		}
	}
	return false
}

func expect(op string, want kernel.Errno, ret kernel.Ret) error {
	if ret.Errno != want {
		return fmt.Errorf("%s: spec predicts %v, kernel returned %v", op, want, ret.Errno)
	}
	return nil
}

func removePtrOnce(s []Ptr, p Ptr) []Ptr {
	for i, v := range s {
		if v == p {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	out := make([]K, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

func validSize(size hw.PageSize) bool {
	return size == hw.Size4K || size == hw.Size2M || size == hw.Size1G
}

// pages is a mapping's charge in 4 KiB pages.
func pages(size hw.PageSize) uint64 { return size.Bytes() / hw.PageSize4K }

// --- memory -----------------------------------------------------------------

// Mmap applies the mmap specification (Listing 1): count fresh pages of
// the given size and permission at consecutive addresses from va. The
// kernel charges each page before it maps it and the table nodes the
// range materialized at the end, and a superpage whose leaf slot holds a
// table fails to map; any failure after validation rolls back to the
// prune transition. Each new mapping's frame is the kernel's witness,
// which must hold exactly one reference: no other mapping, pin or
// message may share a freshly allocated page. A batch's mmaps are
// stepped after its doorbell returns, so a page the same batch already
// unmapped or granted away has no frame left to witness: Ψ′ records
// frame 0, which boot reserves, and the page takes the kernel's frame
// where it lands again (deliverPage).
func (ip *Interp) Mmap(core int, tid Ptr, va hw.VirtAddr, count int, size hw.PageSize, perm pt.Perm, ret kernel.Ret) error {
	t, okc := ip.caller(core, tid)
	if !okc || count <= 0 || count > 1<<20 || !validSize(size) || va&hw.VirtAddr(size.Bytes()-1) != 0 {
		return expect("mmap", kernel.EINVAL, ret)
	}
	proc := t.OwningProc
	owner := ip.St.Procs[proc].Owner
	as := ip.St.AddressSpaces[proc]
	step := hw.VirtAddr(size.Bytes())
	if rangeCovered(as, va, count, step) {
		return expect("mmap", kernel.EALREADY, ret)
	}
	if ret.Errno == kernel.ENOMEM {
		// Allocator exhaustion after validation: trusted; the rollback
		// ran and pruned every empty node.
		ip.prune(proc, owner)
		return nil
	}
	kset := ip.keys[proc]
	need := make(map[uint64]bool)
	for i := 0; i < count; i++ {
		dst := va + hw.VirtAddr(i)*step
		errno := kernel.OK
		switch {
		case !ip.chargeFits(owner, uint64(i+1)*pages(size)):
			errno = kernel.EQUOTA
		case conflicts(kset, dst, size):
			errno = kernel.EINVAL
		}
		if errno != kernel.OK {
			ip.prune(proc, owner)
			return expect("mmap", errno, ret)
		}
		newKeys(need, kset, dst, size)
	}
	if !ip.chargeFits(owner, uint64(count)*pages(size)+uint64(len(need))) {
		ip.prune(proc, owner)
		return expect("mmap", kernel.EQUOTA, ret)
	}
	if err := expect("mmap", kernel.OK, ret); err != nil {
		return err
	}
	if ret.Vals[0] != uint64(va) {
		return fmt.Errorf("mmap: returned va %#x, want %#x", ret.Vals[0], uint64(va))
	}
	table := ip.k.PM.ProcPerms[proc].PageTable
	for i := 0; i < count; i++ {
		dst := va + hw.VirtAddr(i)*step
		// A kernel that maps nothing at dst after a lone mmap shows in
		// Diff.
		e, _ := table.Mapping(dst)
		if e.Phys != 0 {
			if refs, err := ip.k.Alloc.RefCount(e.Phys); err != nil || refs != 1 {
				return fmt.Errorf("mmap: va %#x maps frame %#x holding %d references (%v), want a fresh frame",
					uint64(dst), uint64(e.Phys), refs, err)
			}
		}
		as[dst] = pt.MapEntry{Phys: e.Phys, Size: size, Perm: perm}
	}
	for k := range need {
		kset[k] = true
	}
	ip.charge(owner, uint64(count)*pages(size)+uint64(len(need)))
	return nil
}

// spaceCovers reports whether dst falls inside any standing mapping.
func spaceCovers(as map[hw.VirtAddr]pt.MapEntry, dst hw.VirtAddr) bool {
	_, _, ok := lookup(as, dst)
	return ok
}

// rangeCovered reports whether a standing mapping covers any of count
// page bases step apart from va, as the kernel's per-page Lookup finds
// them. It visits the pages or the mappings, whichever are fewer, so a
// huge refused range costs what the address space holds.
func rangeCovered(as map[hw.VirtAddr]pt.MapEntry, va hw.VirtAddr, count int, step hw.VirtAddr) bool {
	if count <= len(as) {
		for i := 0; i < count; i++ {
			if spaceCovers(as, va+hw.VirtAddr(i)*step) {
				return true
			}
		}
		return false
	}
	end := va + hw.VirtAddr(count)*step
	for base, e := range as {
		first := va // the first page base at or above the mapping's base
		if base > va {
			first += (base - va + step - 1) / step * step
		}
		if first < end && first < base+hw.VirtAddr(e.Size.Bytes()) {
			return true
		}
	}
	return false
}

// lookup mirrors pt.Lookup: the mapping covering va, and its base.
func lookup(as map[hw.VirtAddr]pt.MapEntry, va hw.VirtAddr) (hw.VirtAddr, pt.MapEntry, bool) {
	for _, size := range [...]hw.PageSize{hw.Size4K, hw.Size2M, hw.Size1G} {
		base := va &^ hw.VirtAddr(size.Bytes()-1)
		if e, ok := as[base]; ok && e.Size == size {
			return base, e, true
		}
	}
	return 0, pt.MapEntry{}, false
}

// prune applies the failed-mmap rollback transition: the address space
// is untouched, but the rollback's PruneEmpty dropped every node no
// standing mapping needs (including stale ones older munmaps left
// behind), crediting them back to the owner.
func (ip *Interp) prune(proc, owner Ptr) {
	ip.keys[proc] = ip.pruneKeys(ip.keys[proc], ip.St.AddressSpaces[proc], owner)
}

// pruneKeys returns the node keys a table holds after PruneEmpty, its
// standing mappings' closure, crediting owner the nodes it dropped.
func (ip *Interp) pruneKeys(old map[uint64]bool, as map[hw.VirtAddr]pt.MapEntry, owner Ptr) map[uint64]bool {
	now := closureKeys(as)
	if len(now) < len(old) {
		ip.credit(owner, uint64(len(old)-len(now)))
	}
	return now
}

// Munmap applies the munmap specification for count pages of the given
// size at va (aligned down, as the kernel does): every base must be
// mapped at exactly that size. Table nodes stay installed and charged.
func (ip *Interp) Munmap(core int, tid Ptr, va hw.VirtAddr, count int, size hw.PageSize, ret kernel.Ret) error {
	t, okc := ip.caller(core, tid)
	if !okc || count <= 0 || !validSize(size) {
		return expect("munmap", kernel.EINVAL, ret)
	}
	va &^= hw.VirtAddr(size.Bytes() - 1)
	step := hw.VirtAddr(size.Bytes())
	proc := t.OwningProc
	as := ip.St.AddressSpaces[proc]
	for i := 0; i < count; i++ {
		e, ok := as[va+hw.VirtAddr(i)*step]
		if !ok || e.Size != size {
			return expect("munmap", kernel.ENOENT, ret)
		}
	}
	if err := expect("munmap", kernel.OK, ret); err != nil {
		return err
	}
	for i := 0; i < count; i++ {
		delete(as, va+hw.VirtAddr(i)*step)
	}
	ip.credit(ip.St.Procs[proc].Owner, uint64(count)*pages(size))
	return nil
}

// --- containers, processes, threads ----------------------------------------

// NewContainer applies the new_container specification (Listing 3).
func (ip *Interp) NewContainer(core int, tid Ptr, quota uint64, cpus []int, ret kernel.Ret) error {
	t, okc := ip.caller(core, tid)
	if !okc {
		return expect("new_container", kernel.EINVAL, ret)
	}
	parent := ip.St.Procs[t.OwningProc].Owner
	pc := ip.St.Containers[parent]
	if quota < 1 {
		return expect("new_container", kernel.EQUOTA, ret)
	}
	for _, cpu := range cpus {
		if !slices.Contains(pc.CPUs, cpu) {
			return expect("new_container", kernel.EINVAL, ret)
		}
	}
	if !ip.chargeFits(parent, quota) {
		return expect("new_container", kernel.EQUOTA, ret)
	}
	if ret.Errno == kernel.ENOMEM {
		return nil
	}
	if err := expect("new_container", kernel.OK, ret); err != nil {
		return err
	}
	child := Ptr(ret.Vals[0])
	if !ip.fresh(child) {
		return fmt.Errorf("new_container: stale witness %#x", child)
	}
	ip.charge(parent, quota)
	pc = ip.St.Containers[parent]
	pc.Children = append(pc.Children, child)
	ip.St.Containers[parent] = pc
	cc := Container{
		Parent:       parent,
		Depth:        pc.Depth + 1,
		Path:         append(append([]Ptr(nil), pc.Path...), parent),
		Subtree:      make(map[Ptr]bool),
		QuotaPages:   quota,
		UsedPages:    1,
		CPUs:         append([]int(nil), cpus...),
		Procs:        make(map[Ptr]bool),
		OwnedThreads: make(map[Ptr]bool),
	}
	for _, anc := range cc.Path {
		ip.St.Containers[anc].Subtree[child] = true
	}
	ip.St.Containers[child] = cc
	return nil
}

// newProcessIn is the shared new_proc / new_proc_in creation transition.
func (ip *Interp) newProcessIn(op string, cntr, parentProc Ptr, ret kernel.Ret) error {
	if !ip.chargeFits(cntr, 2) {
		return expect(op, kernel.EQUOTA, ret)
	}
	if ret.Errno == kernel.ENOMEM {
		return nil
	}
	if err := expect(op, kernel.OK, ret); err != nil {
		return err
	}
	proc := Ptr(ret.Vals[0])
	if !ip.fresh(proc) {
		return fmt.Errorf("%s: stale witness %#x", op, proc)
	}
	ip.charge(cntr, 2)
	ip.St.Procs[proc] = Proc{Owner: cntr, Parent: parentProc}
	ip.St.Containers[cntr].Procs[proc] = true
	if parentProc != 0 {
		pp := ip.St.Procs[parentProc]
		pp.Children = append(pp.Children, proc)
		ip.St.Procs[parentProc] = pp
	}
	ip.St.AddressSpaces[proc] = make(map[hw.VirtAddr]pt.MapEntry)
	ip.keys[proc] = make(map[uint64]bool)
	return nil
}

// NewProcess applies the new_proc specification (child of the caller's
// process, in the caller's container).
func (ip *Interp) NewProcess(core int, tid Ptr, ret kernel.Ret) error {
	t, okc := ip.caller(core, tid)
	if !okc {
		return expect("new_proc", kernel.EINVAL, ret)
	}
	return ip.newProcessIn("new_proc", ip.St.Procs[t.OwningProc].Owner, t.OwningProc, ret)
}

// NewProcessIn applies the new_proc_in specification (first process of a
// descendant container; no process parent).
func (ip *Interp) NewProcessIn(core int, tid Ptr, cntr Ptr, ret kernel.Ret) error {
	t, okc := ip.caller(core, tid)
	if !okc {
		return expect("new_proc_in", kernel.EINVAL, ret)
	}
	if _, ok := ip.St.Containers[cntr]; !ok {
		return expect("new_proc_in", kernel.ENOENT, ret)
	}
	if !ip.isAncestor(ip.St.Procs[t.OwningProc].Owner, cntr) {
		return expect("new_proc_in", kernel.EPERM, ret)
	}
	return ip.newProcessIn("new_proc_in", cntr, 0, ret)
}

// NewThread applies the new_thread specification: a thread in the
// caller's own process.
func (ip *Interp) NewThread(core int, tid Ptr, onCore int, ret kernel.Ret) error {
	t, okc := ip.caller(core, tid)
	if !okc {
		return expect("new_thread", kernel.EINVAL, ret)
	}
	return ip.newThread("new_thread", t.OwningProc, onCore, ret)
}

// NewThreadIn applies the new_thread_in specification: a thread in a
// process the caller controls.
func (ip *Interp) NewThreadIn(core int, tid Ptr, proc Ptr, onCore int, ret kernel.Ret) error {
	t, okc := ip.caller(core, tid)
	if !okc {
		return expect("new_thread_in", kernel.EINVAL, ret)
	}
	if _, ok := ip.St.Procs[proc]; !ok {
		return expect("new_thread_in", kernel.ENOENT, ret)
	}
	if !ip.controls(t.OwningProc, proc) {
		return expect("new_thread_in", kernel.EPERM, ret)
	}
	return ip.newThread("new_thread_in", proc, onCore, ret)
}

// newThread is the shared thread creation transition (pm.NewThread): a
// runnable thread on a core its container reserves, charged one page.
func (ip *Interp) newThread(op string, proc Ptr, onCore int, ret kernel.Ret) error {
	owner := ip.St.Procs[proc].Owner
	if !slices.Contains(ip.St.Containers[owner].CPUs, onCore) {
		return expect(op, kernel.EINVAL, ret)
	}
	if !ip.chargeFits(owner, 1) {
		return expect(op, kernel.EQUOTA, ret)
	}
	if ret.Errno == kernel.ENOMEM {
		return nil
	}
	if err := expect(op, kernel.OK, ret); err != nil {
		return err
	}
	th := Ptr(ret.Vals[0])
	if !ip.fresh(th) {
		return fmt.Errorf("%s: stale witness %#x", op, th)
	}
	ip.charge(owner, 1)
	ip.St.Threads[th] = Thread{OwningProc: proc, OwningCntr: owner, State: pm.ThreadRunnable, Core: onCore}
	p := ip.St.Procs[proc]
	p.Threads = append(p.Threads, th)
	ip.St.Procs[proc] = p
	ip.St.Containers[owner].OwnedThreads[th] = true
	return nil
}

// ExitThread applies the exit_thread specification.
func (ip *Interp) ExitThread(core int, tid Ptr, ret kernel.Ret) error {
	if _, okc := ip.caller(core, tid); !okc {
		return expect("exit_thread", kernel.EINVAL, ret)
	}
	if err := expect("exit_thread", kernel.OK, ret); err != nil {
		return err
	}
	ip.freeThread(tid)
	return nil
}

// freeThread mirrors pm.FreeThread: descriptor references drop in slot
// order (endpoints may die, crediting their owners), then the thread
// leaves its process and container and its page is credited back.
func (ip *Interp) freeThread(th Ptr) {
	t, ok := ip.St.Threads[th]
	if !ok {
		return
	}
	for i := 0; i < pm.MaxEndpoints; i++ {
		ep := t.Endpoints[i]
		if ep == 0 {
			continue
		}
		t.Endpoints[i] = 0
		ip.St.Threads[th] = t
		ip.decref(ep)
	}
	p := ip.St.Procs[t.OwningProc]
	p.Threads = removePtrOnce(p.Threads, th)
	ip.St.Procs[t.OwningProc] = p
	delete(ip.St.Containers[t.OwningCntr].OwnedThreads, th)
	delete(ip.St.Threads, th)
	ip.credit(t.OwningCntr, 1)
	ip.forget(th)
}

// forget drops a thread's IPC ghost state: it waits for nothing now.
func (ip *Interp) forget(th Ptr) {
	delete(ip.recvSlot, th)
	delete(ip.recvVA, th)
	delete(ip.sent, th)
}

// --- endpoints and IPC ------------------------------------------------------

// NewEndpoint applies the new_endpoint specification.
func (ip *Interp) NewEndpoint(core int, tid Ptr, slot int, ret kernel.Ret) error {
	t, okc := ip.caller(core, tid)
	if !okc || slot < 0 || slot >= pm.MaxEndpoints || t.Endpoints[slot] != 0 {
		return expect("new_endpoint", kernel.EINVAL, ret)
	}
	cntr := ip.St.Procs[t.OwningProc].Owner
	if !ip.chargeFits(cntr, 1) {
		return expect("new_endpoint", kernel.EQUOTA, ret)
	}
	if ret.Errno == kernel.ENOMEM {
		return nil
	}
	if err := expect("new_endpoint", kernel.OK, ret); err != nil {
		return err
	}
	ep := Ptr(ret.Vals[0])
	if !ip.fresh(ep) {
		return fmt.Errorf("new_endpoint: stale witness %#x", ep)
	}
	ip.charge(cntr, 1)
	ip.St.Endpoints[ep] = Endpoint{RefCount: 1, OwnerCntr: cntr}
	t.Endpoints[slot] = ep
	ip.St.Threads[tid] = t
	return nil
}

// Install specifies the one descriptor write no syscall performs: a
// parent setting up a channel puts a descriptor to ep in tid's slot,
// taking a reference. It does nothing unless ep is alive, tid exists and
// the slot is empty, and reports whether it installed one.
func (ip *Interp) Install(tid Ptr, slot int, ep Ptr) bool {
	e, alive := ip.St.Endpoints[ep]
	t, ok := ip.St.Threads[tid]
	if !alive || !ok || slot < 0 || slot >= pm.MaxEndpoints || t.Endpoints[slot] != 0 {
		return false
	}
	t.Endpoints[slot] = ep
	ip.St.Threads[tid] = t
	e.RefCount++
	ip.St.Endpoints[ep] = e
	return true
}

// CloseEndpoint applies the close_endpoint specification.
func (ip *Interp) CloseEndpoint(core int, tid Ptr, slot int, ret kernel.Ret) error {
	t, ep, okc := ip.callerEndpoint(core, tid, slot)
	if !okc {
		return expect("close_endpoint", kernel.EINVAL, ret)
	}
	if err := expect("close_endpoint", kernel.OK, ret); err != nil {
		return err
	}
	t.Endpoints[slot] = 0
	ip.St.Threads[tid] = t
	ip.decref(ep)
	return nil
}

// resolveMsg mirrors kernel.resolveMsg: a shared or granted page is the
// mapping covering args.PageVA, at any size, and a grant revokes it from
// the sender's address space and quota at once; an endpoint transfer
// names the endpoint in the sender's args.EdptSlot. A failed endpoint
// half leaves a grant standing: the page is simply gone with the
// message.
func (ip *Interp) resolveMsg(op string, t Thread, args kernel.SendArgs, ret kernel.Ret) (message, error, bool) {
	var m message
	if args.SendPage || args.GrantPage {
		as := ip.St.AddressSpaces[t.OwningProc]
		base, e, ok := lookup(as, args.PageVA)
		if !ok {
			return m, expect(op, kernel.ENOENT, ret), false
		}
		m.page = BufMsg{HasPage: true, Size: e.Size, Perm: e.Perm}
		m.frame = e.Phys
		if args.GrantPage {
			delete(as, base)
			ip.credit(ip.St.Procs[t.OwningProc].Owner, pages(e.Size))
		}
	}
	if args.SendEdpt {
		if args.EdptSlot < 0 || args.EdptSlot >= pm.MaxEndpoints {
			return m, expect(op, kernel.EINVAL, ret), false
		}
		if m.xfer = t.Endpoints[args.EdptSlot]; m.xfer == 0 {
			return m, expect(op, kernel.ENOENT, ret), false
		}
	}
	return m, nil, true
}

// deliverPage mirrors the page half of kernel.deliver, with the
// kernel's exact failure order: the page count is charged first
// (EQUOTA), then the mapping is validated (EINVAL), then the table
// nodes it materializes are allocated (ENOMEM), then they are charged
// (EQUOTA, rolled back with the same prune the failed-mmap transition
// runs). refused reports that the observed delivery returned ENOMEM:
// allocator exhaustion is trusted once validation has passed and a
// node is needed, and Ψ stays as it was, since the kernel's failed map
// leaves the table unchanged. A failed delivery drops the message's
// page reference below the abstraction line.
func (ip *Interp) deliverPage(proc Ptr, va hw.VirtAddr, m message, refused bool) kernel.Errno {
	owner := ip.St.Procs[proc].Owner
	n := pages(m.page.Size)
	if !ip.chargeFits(owner, n) {
		return kernel.EQUOTA
	}
	as := ip.St.AddressSpaces[proc]
	kset := ip.keys[proc]
	if va&hw.VirtAddr(m.page.Size.Bytes()-1) != 0 || spaceCovers(as, va) || conflicts(kset, va, m.page.Size) {
		return kernel.EINVAL
	}
	need := make(map[uint64]bool)
	newKeys(need, kset, va, m.page.Size)
	if refused && len(need) > 0 {
		return kernel.ENOMEM
	}
	if !ip.chargeFits(owner, n+uint64(len(need))) {
		ip.prune(proc, owner)
		return kernel.EQUOTA
	}
	frame := m.frame
	if frame == 0 {
		// A page its batch mapped and sent on unwitnessed (Mmap).
		e, _ := ip.k.PM.ProcPerms[proc].PageTable.Mapping(va)
		frame = e.Phys
	}
	as[va] = pt.MapEntry{Phys: frame, Size: m.page.Size, Perm: m.page.Perm}
	for k := range need {
		kset[k] = true
	}
	ip.charge(owner, n+uint64(len(need)))
	return kernel.OK
}

// deliver mirrors kernel.deliver to receiver rptr: the page lands first
// at the receiver's recvVA (its failure voids the rest — the kernel
// returns early), then the endpoint descriptor in its requested slot
// (-1: first free), taking a reference. A transferred endpoint that has
// died since the send, or no usable slot, is EDEADOBJ; the page stands.
func (ip *Interp) deliver(rptr Ptr, m message, recvVA hw.VirtAddr, reqSlot int, refused bool) kernel.Errno {
	if m.page.HasPage {
		if errno := ip.deliverPage(ip.St.Threads[rptr].OwningProc, recvVA, m, refused); errno != kernel.OK {
			return errno
		}
	}
	if m.xfer == 0 {
		return kernel.OK
	}
	e, alive := ip.St.Endpoints[m.xfer]
	rt := ip.St.Threads[rptr]
	slot := reqSlot
	if slot < 0 {
		for i := 0; i < pm.MaxEndpoints; i++ {
			if rt.Endpoints[i] == 0 {
				slot = i
				break
			}
		}
	}
	if !alive || slot < 0 || slot >= pm.MaxEndpoints || rt.Endpoints[slot] != 0 {
		return kernel.EDEADOBJ
	}
	rt.Endpoints[slot] = m.xfer
	ip.St.Threads[rptr] = rt
	e.RefCount++
	ip.St.Endpoints[m.xfer] = e
	return kernel.OK
}

// wake mirrors pm.Wake: the thread waits on nothing and is runnable.
func (ip *Interp) wake(th Ptr) {
	t := ip.St.Threads[th]
	t.State = pm.ThreadRunnable
	t.WaitingOn = 0
	ip.St.Threads[th] = t
	ip.forget(th)
}

// handOff mirrors kernel.handOff: it pops the receiver at the head of
// ep's queue, delivers m to it and wakes it. The woken receiver's errno
// is below the abstraction line (it surfaces through its own syscall's
// return, which no caller observes for a wake), so no refused node can
// be witnessed here. It returns the receiver.
func (ip *Interp) handOff(ep Ptr, m message) Ptr {
	e := ip.St.Endpoints[ep]
	rptr := e.Queue[0]
	e.Queue = e.Queue[1:]
	// Write the pop back before delivering: when the transferred
	// endpoint is ep itself, deliver bumps ip.St.Endpoints[ep] and a
	// stale local copy written afterwards would lose that reference.
	ip.St.Endpoints[ep] = e
	ip.deliver(rptr, m, ip.recvVA[rptr], ip.recvSlot[rptr], false)
	ip.wake(rptr)
	return rptr
}

// receive mirrors kernel.receive for caller tid: a buffered message
// first (just the buffer pop), else the head sender's pending one, which
// wakes that sender. It returns the delivery's errno, and false when
// nothing waits.
func (ip *Interp) receive(tid, ep Ptr, args kernel.RecvArgs, refused bool) (kernel.Errno, bool) {
	e := ip.St.Endpoints[ep]
	var m message
	switch {
	case len(e.Buffered) > 0:
		m.page = e.Buffered[0]
		e.Buffered = e.Buffered[1:]
		frames := ip.bufFrames[ep]
		m.frame, ip.bufFrames[ep] = frames[0], frames[1:]
		ip.St.Endpoints[ep] = e
	case !e.QueuedRecv && len(e.Queue) > 0:
		sptr := e.Queue[0]
		e.Queue = e.Queue[1:]
		ip.St.Endpoints[ep] = e
		m = ip.sent[sptr]
		ip.wake(sptr)
	default:
		return kernel.OK, false
	}
	return ip.deliver(tid, m, args.PageVA, args.EdptSlot, refused), true
}

// block mirrors kernel.block: tid parks at the tail of ep's queue in
// state, which sets the queue's direction.
func (ip *Interp) block(tid, ep Ptr, state pm.ThreadState) {
	t := ip.St.Threads[tid]
	t.State = state
	t.WaitingOn = ep
	ip.St.Threads[tid] = t
	e := ip.St.Endpoints[ep]
	e.QueuedRecv = state == pm.ThreadBlockedRecv
	e.Queue = append(e.Queue, tid)
	ip.St.Endpoints[ep] = e
}

// blockRecv parks tid receiving on ep, recording where its message
// lands.
func (ip *Interp) blockRecv(tid, ep Ptr, args kernel.RecvArgs) {
	ip.block(tid, ep, pm.ThreadBlockedRecv)
	ip.recvVA[tid] = args.PageVA
	ip.recvSlot[tid] = args.EdptSlot
}

// rendezvous reports whether a receiver waits at ep.
func (ip *Interp) rendezvous(ep Ptr) bool {
	e := ip.St.Endpoints[ep]
	return e.QueuedRecv && len(e.Queue) > 0
}

// Send applies the send specification: with a receiver waiting the
// message is handed off and the send completes; otherwise the caller
// blocks with its message pending.
func (ip *Interp) Send(core int, tid Ptr, slot int, args kernel.SendArgs, ret kernel.Ret) error {
	t, ep, okc := ip.callerEndpoint(core, tid, slot)
	if !okc {
		return expect("send", kernel.EINVAL, ret)
	}
	m, err, ok := ip.resolveMsg("send", t, args, ret)
	if !ok {
		return err
	}
	if ip.rendezvous(ep) {
		ip.handOff(ep, m)
		return expect("send", kernel.OK, ret)
	}
	ip.block(tid, ep, pm.ThreadBlockedSend)
	ip.sent[tid] = m
	return expect("send", kernel.EWOULDBLOCK, ret)
}

// SendAsync applies the send_async specification: it never blocks — a
// parked receiver gets an ordinary hand-off, otherwise the message joins
// the endpoint's bounded buffer (EAGAIN when full, refused before the
// message resolves). Endpoint transfers are refused with EINVAL.
func (ip *Interp) SendAsync(core int, tid Ptr, slot int, args kernel.SendArgs, ret kernel.Ret) error {
	t, ep, okc := ip.callerEndpoint(core, tid, slot)
	if !okc || args.SendEdpt {
		return expect("send_async", kernel.EINVAL, ret)
	}
	rendezvous := ip.rendezvous(ep)
	if !rendezvous && len(ip.St.Endpoints[ep].Buffered) >= pm.MaxEndpointBuffer {
		return expect("send_async", kernel.EAGAIN, ret)
	}
	m, err, ok := ip.resolveMsg("send_async", t, args, ret)
	if !ok {
		return err
	}
	if rendezvous {
		ip.handOff(ep, m)
	} else {
		e := ip.St.Endpoints[ep]
		e.Buffered = append(e.Buffered, m.page)
		ip.St.Endpoints[ep] = e
		ip.bufFrames[ep] = append(ip.bufFrames[ep], m.frame)
	}
	return expect("send_async", kernel.OK, ret)
}

// Recv applies the recv specification: a waiting message is delivered
// at once, its failure the caller's errno; otherwise the caller blocks.
func (ip *Interp) Recv(core int, tid Ptr, slot int, args kernel.RecvArgs, ret kernel.Ret) error {
	_, ep, okc := ip.callerEndpoint(core, tid, slot)
	if !okc {
		return expect("recv", kernel.EINVAL, ret)
	}
	if errno, got := ip.receive(tid, ep, args, ret.Errno == kernel.ENOMEM); got {
		return expect("recv", errno, ret)
	}
	ip.blockRecv(tid, ep, args)
	return expect("recv", kernel.EWOULDBLOCK, ret)
}

// Call applies the call specification: it requires a server already
// blocked receiving, hands the request off to it, and leaves the caller
// blocked awaiting the reply on the same endpoint (reported
// EWOULDBLOCK).
func (ip *Interp) Call(core int, tid Ptr, slot int, args kernel.SendArgs, ret kernel.Ret) error {
	t, ep, okc := ip.callerEndpoint(core, tid, slot)
	if !okc {
		return expect("call", kernel.EINVAL, ret)
	}
	if !ip.rendezvous(ep) {
		return expect("call", kernel.EWOULDBLOCK, ret)
	}
	m, err, ok := ip.resolveMsg("call", t, args, ret)
	if !ok {
		return err
	}
	ip.handOff(ep, m)
	ip.blockRecv(tid, ep, kernel.RecvArgs{EdptSlot: -1})
	return expect("call", kernel.EWOULDBLOCK, ret)
}

// Reply applies the reply specification: it hands the reply off to a
// client blocked receiving.
func (ip *Interp) Reply(core int, tid Ptr, slot int, args kernel.SendArgs, ret kernel.Ret) error {
	t, ep, okc := ip.callerEndpoint(core, tid, slot)
	if !okc {
		return expect("reply", kernel.EINVAL, ret)
	}
	if !ip.rendezvous(ep) {
		return expect("reply", kernel.EWOULDBLOCK, ret)
	}
	m, err, ok := ip.resolveMsg("reply", t, args, ret)
	if !ok {
		return err
	}
	ip.handOff(ep, m)
	return expect("reply", kernel.OK, ret)
}

// ReplyRecv applies the reply_recv specification: the reply half of
// Reply when a client waits, then the receive half of Recv.
func (ip *Interp) ReplyRecv(core int, tid Ptr, slot int, args kernel.SendArgs, recv kernel.RecvArgs, ret kernel.Ret) error {
	t, ep, okc := ip.callerEndpoint(core, tid, slot)
	if !okc {
		return expect("reply_recv", kernel.EINVAL, ret)
	}
	if ip.rendezvous(ep) {
		m, err, ok := ip.resolveMsg("reply_recv", t, args, ret)
		if !ok {
			return err
		}
		ip.handOff(ep, m)
	}
	if errno, got := ip.receive(tid, ep, recv, ret.Errno == kernel.ENOMEM); got {
		return expect("reply_recv", errno, ret)
	}
	ip.blockRecv(tid, ep, recv)
	return expect("reply_recv", kernel.EWOULDBLOCK, ret)
}

// Yield applies the yield specification: scheduling only, Ψ unchanged.
func (ip *Interp) Yield(core int, tid Ptr, ret kernel.Ret) error {
	if _, okc := ip.caller(core, tid); !okc {
		return expect("yield", kernel.EINVAL, ret)
	}
	return expect("yield", kernel.OK, ret)
}

// --- interrupts -------------------------------------------------------------

// IrqRegister applies the irq_register specification: the line binds
// to the endpoint in the caller's slot, and the binding takes a
// reference.
func (ip *Interp) IrqRegister(core int, tid Ptr, irq, slot int, ret kernel.Ret) error {
	_, ep, okc := ip.callerEndpoint(core, tid, slot)
	if !okc || irq < 0 || irq >= 256 {
		return expect("irq_register", kernel.EINVAL, ret)
	}
	if _, bound := ip.irqs[irq]; bound {
		return expect("irq_register", kernel.EALREADY, ret)
	}
	if err := expect("irq_register", kernel.OK, ret); err != nil {
		return err
	}
	ip.irqs[irq] = &irqLine{ep: ep}
	e := ip.St.Endpoints[ep]
	e.RefCount++
	ip.St.Endpoints[ep] = e
	return nil
}

// boundLine validates a caller's use of line irq: it must be bound to
// an endpoint the caller holds a descriptor to.
func (ip *Interp) boundLine(op string, core int, tid Ptr, irq int, ret kernel.Ret) (*irqLine, error, bool) {
	t, okc := ip.caller(core, tid)
	if !okc {
		return nil, expect(op, kernel.EINVAL, ret), false
	}
	line, bound := ip.irqs[irq]
	if !bound {
		return nil, expect(op, kernel.ENOENT, ret), false
	}
	if !slices.Contains(t.Endpoints[:], line.ep) {
		return nil, expect(op, kernel.EPERM, ret), false
	}
	return line, nil, true
}

// IrqUnregister applies the irq_unregister specification: the binding
// goes and drops its reference.
func (ip *Interp) IrqUnregister(core int, tid Ptr, irq int, ret kernel.Ret) error {
	line, err, ok := ip.boundLine("irq_unregister", core, tid, irq, ret)
	if !ok {
		return err
	}
	if err := expect("irq_unregister", kernel.OK, ret); err != nil {
		return err
	}
	delete(ip.irqs, irq)
	ip.decref(line.ep)
	return nil
}

// IrqWait applies the irq_wait specification: pending interrupts are
// consumed at once and their count returned; with senders queued on the
// bound endpoint the wait is refused with EAGAIN; otherwise the caller
// blocks receiving on it.
func (ip *Interp) IrqWait(core int, tid Ptr, irq int, ret kernel.Ret) error {
	line, err, ok := ip.boundLine("irq_wait", core, tid, irq, ret)
	if !ok {
		return err
	}
	if line.pending > 0 {
		if err := expect("irq_wait", kernel.OK, ret); err != nil {
			return err
		}
		if ret.Vals[0] != uint64(irq) || ret.Vals[1] != line.pending {
			return fmt.Errorf("irq_wait: returned line %d count %d, want %d and %d",
				ret.Vals[0], ret.Vals[1], irq, line.pending)
		}
		line.pending = 0
		return nil
	}
	if e := ip.St.Endpoints[line.ep]; !e.QueuedRecv && len(e.Queue) > 0 {
		return expect("irq_wait", kernel.EAGAIN, ret)
	}
	ip.blockRecv(tid, line.ep, kernel.RecvArgs{EdptSlot: -1})
	return expect("irq_wait", kernel.EWOULDBLOCK, ret)
}

// RaiseIRQ specifies an interrupt on line irq: an unbound line drops
// it; a bound one hands a scalar message to a waiting receiver, or
// pends the edge.
func (ip *Interp) RaiseIRQ(irq int) {
	line, bound := ip.irqs[irq]
	if !bound {
		return
	}
	if ip.rendezvous(line.ep) {
		ip.handOff(line.ep, message{})
		line.pending = 0
		return
	}
	line.pending++
}

// --- IOMMU ------------------------------------------------------------------

// IommuCreate applies the iommu_create specification.
func (ip *Interp) IommuCreate(core int, tid Ptr, ret kernel.Ret) error {
	t, okc := ip.caller(core, tid)
	if !okc {
		return expect("iommu_create", kernel.EINVAL, ret)
	}
	p := ip.St.Procs[t.OwningProc]
	if p.IOMMUDomain != 0 {
		return expect("iommu_create", kernel.EALREADY, ret)
	}
	if !ip.chargeFits(p.Owner, 1) {
		return expect("iommu_create", kernel.EQUOTA, ret)
	}
	if ret.Errno == kernel.ENOMEM {
		return nil
	}
	if err := expect("iommu_create", kernel.OK, ret); err != nil {
		return err
	}
	id := iommu.DomainID(ret.Vals[0])
	if id == 0 {
		return fmt.Errorf("iommu_create: zero domain witness")
	}
	if _, exists := ip.St.DMASpaces[id]; exists {
		return fmt.Errorf("iommu_create: stale domain witness %d", id)
	}
	ip.charge(p.Owner, 1)
	p.IOMMUDomain = id
	ip.St.Procs[t.OwningProc] = p
	ip.St.DMASpaces[id] = make(map[hw.VirtAddr]pt.MapEntry)
	ip.dmaKeys[id] = make(map[uint64]bool)
	return nil
}

// domainOf validates an IOMMU caller: it must have a domain.
func (ip *Interp) domainOf(op string, core int, tid Ptr, ret kernel.Ret) (Thread, iommu.DomainID, error, bool) {
	t, okc := ip.caller(core, tid)
	if !okc {
		return t, 0, expect(op, kernel.EINVAL, ret), false
	}
	dom := ip.St.Procs[t.OwningProc].IOMMUDomain
	if dom == 0 {
		return t, 0, expect(op, kernel.ENOENT, ret), false
	}
	return t, dom, nil, true
}

// IommuMap applies the iommu_map specification: the 4 KiB page the
// caller maps at va is pinned into its domain at the same address, on
// the same frame. The domain's table nodes are charged like page-table
// nodes, and a refused charge rolls back to the prune transition.
func (ip *Interp) IommuMap(core int, tid Ptr, va hw.VirtAddr, ret kernel.Ret) error {
	t, dom, err, ok := ip.domainOf("iommu_map", core, tid, ret)
	if !ok {
		return err
	}
	_, e, covered := lookup(ip.St.AddressSpaces[t.OwningProc], va)
	if !covered || e.Size != hw.Size4K {
		return expect("iommu_map", kernel.ENOENT, ret)
	}
	ds := ip.St.DMASpaces[dom]
	if va&(hw.PageSize4K-1) != 0 || spaceCovers(ds, va) {
		return expect("iommu_map", kernel.EINVAL, ret)
	}
	kset := ip.dmaKeys[dom]
	need := make(map[uint64]bool)
	newKeys(need, kset, va, hw.Size4K)
	if ret.Errno == kernel.ENOMEM && len(need) > 0 {
		return nil
	}
	owner := ip.St.Procs[t.OwningProc].Owner
	if !ip.chargeFits(owner, uint64(len(need))) {
		ip.dmaKeys[dom] = ip.pruneKeys(kset, ds, owner)
		return expect("iommu_map", kernel.EQUOTA, ret)
	}
	if err := expect("iommu_map", kernel.OK, ret); err != nil {
		return err
	}
	ds[va] = pt.MapEntry{Phys: e.Phys, Size: hw.Size4K, Perm: pt.RW}
	for k := range need {
		kset[k] = true
	}
	ip.charge(owner, uint64(len(need)))
	return nil
}

// IommuUnmap applies the iommu_unmap specification: the DMA mapping
// based at va goes and unpins its page; the table's nodes stay charged.
func (ip *Interp) IommuUnmap(core int, tid Ptr, va hw.VirtAddr, ret kernel.Ret) error {
	_, dom, err, ok := ip.domainOf("iommu_unmap", core, tid, ret)
	if !ok {
		return err
	}
	ds := ip.St.DMASpaces[dom]
	base, _, covered := lookup(ds, va)
	if !covered {
		return expect("iommu_unmap", kernel.ENOENT, ret)
	}
	if base != va {
		return expect("iommu_unmap", kernel.EINVAL, ret)
	}
	if err := expect("iommu_unmap", kernel.OK, ret); err != nil {
		return err
	}
	delete(ds, va)
	return nil
}

// IommuAttach applies the iommu_attach specification: an unbound device
// binds to the caller's domain.
func (ip *Interp) IommuAttach(core int, tid Ptr, dev iommu.DeviceID, ret kernel.Ret) error {
	_, dom, err, ok := ip.domainOf("iommu_attach", core, tid, ret)
	if !ok {
		return err
	}
	if _, bound := ip.devices[dev]; bound {
		return expect("iommu_attach", kernel.EINVAL, ret)
	}
	if err := expect("iommu_attach", kernel.OK, ret); err != nil {
		return err
	}
	ip.devices[dev] = dom
	return nil
}

// --- revocation -------------------------------------------------------------

// KillProcess applies the kill_proc specification: the target and its
// descendant processes are reaped.
func (ip *Interp) KillProcess(core int, tid Ptr, proc Ptr, ret kernel.Ret) error {
	t, okc := ip.caller(core, tid)
	if !okc {
		return expect("kill_proc", kernel.EINVAL, ret)
	}
	if _, ok := ip.St.Procs[proc]; !ok {
		return expect("kill_proc", kernel.ENOENT, ret)
	}
	if proc == t.OwningProc || !ip.controls(t.OwningProc, proc) {
		return expect("kill_proc", kernel.EPERM, ret)
	}
	ip.reap(nil, ip.procSubtree(nil, proc), -1)
	return expect("kill_proc", kernel.OK, ret)
}

// killable validates a container kill: cntr must be a strict descendant
// of the caller's container.
func (ip *Interp) killable(op string, core int, tid, cntr Ptr, ret kernel.Ret) (error, bool) {
	t, okc := ip.caller(core, tid)
	if !okc {
		return expect(op, kernel.EINVAL, ret), false
	}
	if _, ok := ip.St.Containers[cntr]; !ok {
		return expect(op, kernel.ENOENT, ret), false
	}
	if !ip.isAncestor(ip.St.Procs[t.OwningProc].Owner, cntr) {
		return expect(op, kernel.EPERM, ret), false
	}
	return nil, true
}

// KillContainer applies the kill_container specification: the paper's
// terminate-and-harvest revocation (§3), the whole subtree reaped at
// once.
func (ip *Interp) KillContainer(core int, tid Ptr, cntr Ptr, ret kernel.Ret) error {
	if err, ok := ip.killable("kill_container", core, tid, cntr, ret); !ok {
		return err
	}
	dying, procs := ip.victims(cntr)
	ip.reap(dying, procs, -1)
	return expect("kill_container", kernel.OK, ret)
}

// KillContainerBounded applies the kill_container_bounded
// specification: the first installment freezes the subtree, and each
// one does at most budget units of the same walk kill_container runs,
// reporting EAGAIN until the subtree is gone.
func (ip *Interp) KillContainerBounded(core int, tid Ptr, cntr Ptr, budget int, ret kernel.Ret) error {
	if _, okc := ip.caller(core, tid); !okc || budget <= 0 {
		return expect("kill_container_bounded", kernel.EINVAL, ret)
	}
	if err, ok := ip.killable("kill_container_bounded", core, tid, cntr, ret); !ok {
		return err
	}
	dying, procs := ip.victims(cntr)
	if !ip.dying[cntr] {
		for c := range dying {
			ip.dying[c] = true
		}
	}
	if ip.reap(dying, procs, budget) {
		return expect("kill_container_bounded", kernel.OK, ret)
	}
	return expect("kill_container_bounded", kernel.EAGAIN, ret)
}

// victims mirrors kernel.subtreeVictims: cntr's subtree, and its
// processes container by container in pointer order, each process tree
// in preorder.
func (ip *Interp) victims(cntr Ptr) (map[Ptr]bool, []Ptr) {
	dying := map[Ptr]bool{cntr: true}
	for c := range ip.St.Containers[cntr].Subtree {
		dying[c] = true
	}
	var procs []Ptr
	for _, c := range sortedKeys(dying) {
		for _, p := range sortedKeys(ip.St.Containers[c].Procs) {
			if ip.St.Procs[p].Parent == 0 {
				procs = ip.procSubtree(procs, p)
			}
		}
	}
	return dying, procs
}

// procSubtree appends proc and its descendant processes to out, parents
// before children.
func (ip *Interp) procSubtree(out []Ptr, proc Ptr) []Ptr {
	out = append(out, proc)
	for _, ch := range ip.St.Procs[proc].Children {
		out = ip.procSubtree(out, ch)
	}
	return out
}

// reap specifies kernel.reap, the one teardown walk every kill runs: at
// most budget units (negative: unbounded) in the kernel's unit order —
// every thread; every endpoint a dying container owns, by pointer; each
// process's pages by address, then its domain's devices, DMA pages and
// the domain itself; the processes, children first; the containers,
// deepest first, then by pointer. It reports whether it finished.
func (ip *Interp) reap(dying map[Ptr]bool, procs []Ptr, budget int) bool {
	unit := func() bool {
		if budget == 0 {
			return false
		}
		budget--
		return true
	}
	for _, p := range procs {
		for len(ip.St.Procs[p].Threads) > 0 {
			if !unit() {
				return false
			}
			ip.reapThread(ip.St.Procs[p].Threads[0])
		}
	}
	if len(dying) > 0 {
		for _, ep := range sortedKeys(ip.St.Endpoints) {
			if !dying[ip.St.Endpoints[ep].OwnerCntr] {
				continue
			}
			if !unit() {
				return false
			}
			ip.destroyEndpoint(ep)
		}
	}
	for _, p := range procs {
		owner := ip.St.Procs[p].Owner
		as := ip.St.AddressSpaces[p]
		for _, va := range sortedKeys(as) {
			if !unit() {
				return false
			}
			ip.credit(owner, pages(as[va].Size))
			delete(as, va)
		}
		if !ip.reapDomain(p, unit) {
			return false
		}
	}
	for i := len(procs) - 1; i >= 0; i-- {
		if !unit() {
			return false
		}
		ip.freeProcess(procs[i])
	}
	for _, c := range ip.unlinkOrder(dying) {
		if !unit() {
			return false
		}
		ip.unlinkContainer(c)
		delete(ip.dying, c)
	}
	return true
}

// reapThread mirrors kernel.reapThread: a blocked thread leaves the
// queue it waits on, its pending message dying with it, then it is
// freed.
func (ip *Interp) reapThread(th Ptr) {
	if t := ip.St.Threads[th]; t.WaitingOn != 0 {
		if e, ok := ip.St.Endpoints[t.WaitingOn]; ok {
			e.Queue = removePtrOnce(e.Queue, th)
			ip.St.Endpoints[t.WaitingOn] = e
		}
		t.WaitingOn = 0
		ip.St.Threads[th] = t
	}
	ip.freeThread(th)
}

// reapDomain mirrors kernel.reapDomain: a unit per attached device,
// detached by device number, one per DMA page by address, and one to
// destroy the domain, crediting its root and table nodes.
func (ip *Interp) reapDomain(p Ptr, unit func() bool) bool {
	pr := ip.St.Procs[p]
	dom := pr.IOMMUDomain
	if dom == 0 {
		return true
	}
	for _, dev := range sortedKeys(ip.devices) {
		if ip.devices[dev] != dom {
			continue
		}
		if !unit() {
			return false
		}
		delete(ip.devices, dev)
	}
	ds := ip.St.DMASpaces[dom]
	for _, va := range sortedKeys(ds) {
		if !unit() {
			return false
		}
		delete(ds, va)
	}
	if !unit() {
		return false
	}
	ip.credit(pr.Owner, 1+uint64(len(ip.dmaKeys[dom])))
	delete(ip.St.DMASpaces, dom)
	delete(ip.dmaKeys, dom)
	pr.IOMMUDomain = 0
	ip.St.Procs[p] = pr
	return true
}

// destroyEndpoint mirrors kernel.destroyEndpoint for an endpoint whose
// owner is dying: every queued waiter wakes, the buffered messages die,
// every descriptor naming it is revoked, in any thread, the interrupt
// lines bound to it go silent, pending messages that transfer it are
// scrubbed, and its page returns to its owner.
func (ip *Interp) destroyEndpoint(ep Ptr) {
	e := ip.St.Endpoints[ep]
	for _, q := range e.Queue {
		ip.wake(q)
	}
	for th, t := range ip.St.Threads {
		changed := false
		for i := range t.Endpoints {
			if t.Endpoints[i] == ep {
				t.Endpoints[i] = 0
				changed = true
			}
		}
		if changed {
			ip.St.Threads[th] = t
		}
	}
	for irq, line := range ip.irqs {
		if line.ep == ep {
			delete(ip.irqs, irq)
		}
	}
	for th, m := range ip.sent {
		if m.xfer == ep {
			m.xfer = 0
			ip.sent[th] = m
		}
	}
	delete(ip.St.Endpoints, ep)
	delete(ip.bufFrames, ep)
	ip.credit(e.OwnerCntr, 1)
}

// freeProcess mirrors pm.FreeProcess: table nodes (ghost keys plus the
// root) and the object page are credited, the process leaves its parent
// and container.
func (ip *Interp) freeProcess(v Ptr) {
	p := ip.St.Procs[v]
	ip.credit(p.Owner, uint64(len(ip.keys[v]))+1)
	if pp, ok := ip.St.Procs[p.Parent]; ok && p.Parent != 0 {
		pp.Children = removePtrOnce(pp.Children, v)
		ip.St.Procs[p.Parent] = pp
	}
	delete(ip.St.Containers[p.Owner].Procs, v)
	delete(ip.St.Procs, v)
	delete(ip.St.AddressSpaces, v)
	delete(ip.keys, v)
	ip.credit(p.Owner, 1)
}

// unlinkOrder mirrors kernel.unlinkOrder: the dying containers deepest
// first, then by pointer.
func (ip *Interp) unlinkOrder(dying map[Ptr]bool) []Ptr {
	order := sortedKeys(dying)
	slices.SortStableFunc(order, func(a, b Ptr) int {
		return cmp.Compare(ip.St.Containers[b].Depth, ip.St.Containers[a].Depth)
	})
	return order
}

// unlinkContainer mirrors pm.UnlinkContainer: the empty container leaves
// its parent and every ancestor's subtree, and its carved quota returns
// to the parent.
func (ip *Interp) unlinkContainer(c Ptr) {
	cc := ip.St.Containers[c]
	pc := ip.St.Containers[cc.Parent]
	pc.Children = removePtrOnce(pc.Children, c)
	ip.St.Containers[cc.Parent] = pc
	for _, anc := range cc.Path {
		delete(ip.St.Containers[anc].Subtree, c)
	}
	delete(ip.St.Containers, c)
	ip.credit(cc.Parent, cc.QuotaPages)
}
