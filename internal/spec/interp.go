package spec

// The pure spec interpreter: it evolves Ψ by applying each syscall's
// specification directly, with no concrete kernel underneath. The
// differential oracle (internal/mck) runs a generated program in lockstep
// on a booted kernel and on an Interp seeded from the boot-time
// Abstract(), then compares Abstract(kernel) against the independently
// evolved Ψ′ after every step — the dynamic analogue of the refinement
// theorem run in both directions at once: the kernel must land exactly
// where the specification says it lands.
//
// Nondeterminism is handled with witnesses: the kernel's returned object
// pointers (fresh pages) and IOMMU domain identifiers are taken from Ret
// and validated for freshness, and ENOMEM is trusted whenever argument
// validation has already passed (allocator exhaustion is below Ψ's
// abstraction line — the failed syscall must still leave Ψ unchanged, or
// roll back to the specified prune transition for mmap).
//
// Scope: the interpreter covers the op set the program generator emits.
// Page grants over IPC (SendArgs.GrantPage, 4 KiB) are modeled — the
// page leaves the sender's space at send and lands in the receiver's at
// delivery. Shared page transfers (SendArgs.SendPage) and IOMMU
// map/unmap are not — the generator never produces them.

import (
	"cmp"
	"fmt"
	"sort"

	"atmosphere/internal/hw"
	"atmosphere/internal/iommu"
	"atmosphere/internal/kernel"
	"atmosphere/internal/mem"
	"atmosphere/internal/pm"
	"atmosphere/internal/pt"
)

// Interp holds the independently evolved abstract state Ψ′ plus the ghost
// state the specification needs that Ψ deliberately abstracts away.
type Interp struct {
	St State

	// keys tracks, per process, the non-root page-table node pages that
	// have been materialized (and charged) — encoded as level<<58 | va
	// prefix. Nodes outlive their mappings (munmap leaves them charged),
	// so this is ghost state: it cannot be recomputed from AddressSpaces.
	keys map[Ptr]map[uint64]bool

	// recvSlot records, for a thread blocked receiving, the descriptor
	// slot it asked an incoming endpoint to be installed in (-1: first
	// free) — the abstract image of Thread.IPC.RecvEdptSlot.
	recvSlot map[Ptr]int

	// sendEdpt records, for a thread blocked sending, the endpoint its
	// pending message transfers (0: scalars only) — the abstract image of
	// Thread.IPC.Msg.Endpoint.
	sendEdpt map[Ptr]Ptr

	// sendPage records, for a thread blocked sending, the granted page
	// riding its pending message — the abstract image of
	// Thread.IPC.Msg's page half (grants only; shares are unmodeled).
	sendPage map[Ptr]BufMsg

	// recvVA records, for a thread blocked receiving, where it asked an
	// incoming page to be mapped — the abstract image of
	// Thread.IPC.RecvVA.
	recvVA map[Ptr]hw.VirtAddr
}

// NewInterp builds an interpreter from a boot-time abstract state: no
// thread may be blocked yet (the IPC ghost state starts empty). Physical
// addresses and the allocator snapshot are erased — they are witnesses
// below the specification's abstraction line.
func NewInterp(st State) *Interp {
	ip := &Interp{
		St:       st,
		keys:     make(map[Ptr]map[uint64]bool, len(st.Procs)),
		recvSlot: make(map[Ptr]int),
		sendEdpt: make(map[Ptr]Ptr),
		sendPage: make(map[Ptr]BufMsg),
		recvVA:   make(map[Ptr]hw.VirtAddr),
	}
	ip.St.Mem = mem.Snapshot{}
	for proc, as := range st.AddressSpaces {
		ip.St.AddressSpaces[proc] = erasePhys(as)
		ip.keys[proc] = closureKeys(as)
	}
	for id, as := range st.DMASpaces {
		ip.St.DMASpaces[id] = erasePhys(as)
	}
	return ip
}

func erasePhys(as map[hw.VirtAddr]pt.MapEntry) map[hw.VirtAddr]pt.MapEntry {
	out := make(map[hw.VirtAddr]pt.MapEntry, len(as))
	for va, e := range as {
		e.Phys = 0
		out[va] = e
	}
	return out
}

// nodeKeys returns the ghost keys of the table nodes a mapping of the
// given granularity at va requires: its L3 table always, plus L2 and L1
// tables for the finer granularities.
func nodeKeys(va hw.VirtAddr, size hw.PageSize) []uint64 {
	ks := []uint64{3<<58 | uint64(va)>>39}
	if size == hw.Size1G {
		return ks
	}
	ks = append(ks, 2<<58|uint64(va)>>30)
	if size == hw.Size2M {
		return ks
	}
	return append(ks, 1<<58|uint64(va)>>21)
}

// closureKeys computes the exact node set a standing address space needs —
// what the concrete table holds right after a PruneEmpty.
func closureKeys(as map[hw.VirtAddr]pt.MapEntry) map[uint64]bool {
	out := make(map[uint64]bool)
	for va, e := range as {
		for _, k := range nodeKeys(va, e.Size) {
			out[k] = true
		}
	}
	return out
}

// --- small state helpers ----------------------------------------------------

// caller mirrors kernel.callerThread: the invoking thread must exist and
// be schedulable (not exited, not blocked on an endpoint).
func (ip *Interp) caller(tid Ptr) (Thread, bool) {
	t, ok := ip.St.Threads[tid]
	if !ok {
		return t, false
	}
	if t.State != pm.ThreadRunnable && t.State != pm.ThreadRunning {
		return t, false
	}
	return t, true
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

// decref mirrors pm.EndpointDecRef: the endpoint dies (and its page is
// credited to its owner) when the last reference drops and no thread is
// queued.
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

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func removePtrOnce(s []Ptr, p Ptr) []Ptr {
	for i, v := range s {
		if v == p {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

// --- memory -----------------------------------------------------------------

// Mmap applies the mmap specification for count 4 KiB RW pages at va.
func (ip *Interp) Mmap(tid Ptr, va hw.VirtAddr, count int, ret kernel.Ret) error {
	t, okc := ip.caller(tid)
	if !okc {
		return expect("mmap", kernel.EINVAL, ret)
	}
	if count <= 0 || count > 1<<20 {
		return expect("mmap", kernel.EINVAL, ret)
	}
	if va&(hw.PageSize4K-1) != 0 {
		return expect("mmap", kernel.EINVAL, ret)
	}
	proc := t.OwningProc
	owner := ip.St.Procs[proc].Owner
	as := ip.St.AddressSpaces[proc]
	for i := 0; i < count; i++ {
		if spaceCovers(as, va+hw.VirtAddr(i)*hw.PageSize4K) {
			return expect("mmap", kernel.EALREADY, ret)
		}
	}
	// Node pages the mapping would materialize beyond the ghost set.
	kset := ip.keys[proc]
	need := make(map[uint64]bool)
	for i := 0; i < count; i++ {
		for _, k := range nodeKeys(va+hw.VirtAddr(i)*hw.PageSize4K, hw.Size4K) {
			if !kset[k] {
				need[k] = true
			}
		}
	}
	delta := uint64(len(need))
	if ret.Errno == kernel.ENOMEM {
		// Allocator exhaustion after validation: trusted; the rollback
		// ran and pruned every empty node.
		ip.mmapPrune(proc, owner)
		return nil
	}
	if !ip.chargeFits(owner, uint64(count)+delta) {
		if err := expect("mmap", kernel.EQUOTA, ret); err != nil {
			return err
		}
		ip.mmapPrune(proc, owner)
		return nil
	}
	if err := expect("mmap", kernel.OK, ret); err != nil {
		return err
	}
	if ret.Vals[0] != uint64(va) {
		return fmt.Errorf("mmap: returned va %#x, want %#x", ret.Vals[0], uint64(va))
	}
	if as == nil {
		as = make(map[hw.VirtAddr]pt.MapEntry)
		ip.St.AddressSpaces[proc] = as
	}
	for i := 0; i < count; i++ {
		as[va+hw.VirtAddr(i)*hw.PageSize4K] = pt.MapEntry{Size: hw.Size4K, Perm: pt.RW}
	}
	for k := range need {
		kset[k] = true
	}
	ip.charge(owner, uint64(count)+delta)
	return nil
}

// spaceCovers reports whether dst falls inside any standing mapping.
func spaceCovers(as map[hw.VirtAddr]pt.MapEntry, dst hw.VirtAddr) bool {
	if e, ok := as[dst&^(hw.PageSize4K-1)]; ok && e.Size == hw.Size4K {
		return true
	}
	if e, ok := as[dst&^(hw.PageSize2M-1)]; ok && e.Size == hw.Size2M {
		return true
	}
	if e, ok := as[dst&^(hw.PageSize1G-1)]; ok && e.Size == hw.Size1G {
		return true
	}
	return false
}

// mmapPrune applies the failed-mmap rollback transition: the address
// space is untouched, but the rollback's PruneEmpty dropped every node no
// standing mapping needs (including stale ones older munmaps left
// behind), crediting them back to the owner.
func (ip *Interp) mmapPrune(proc, owner Ptr) {
	old := ip.keys[proc]
	now := closureKeys(ip.St.AddressSpaces[proc])
	if len(now) < len(old) {
		ip.credit(owner, uint64(len(old)-len(now)))
	}
	ip.keys[proc] = now
}

// Munmap applies the munmap specification for count 4 KiB pages at va
// (aligned down, as the kernel does).
func (ip *Interp) Munmap(tid Ptr, va hw.VirtAddr, count int, ret kernel.Ret) error {
	t, okc := ip.caller(tid)
	if !okc {
		return expect("munmap", kernel.EINVAL, ret)
	}
	if count <= 0 {
		return expect("munmap", kernel.EINVAL, ret)
	}
	va &^= hw.PageSize4K - 1
	proc := t.OwningProc
	as := ip.St.AddressSpaces[proc]
	for i := 0; i < count; i++ {
		e, ok := as[va+hw.VirtAddr(i)*hw.PageSize4K]
		if !ok || e.Size != hw.Size4K {
			return expect("munmap", kernel.ENOENT, ret)
		}
	}
	if err := expect("munmap", kernel.OK, ret); err != nil {
		return err
	}
	for i := 0; i < count; i++ {
		delete(as, va+hw.VirtAddr(i)*hw.PageSize4K)
	}
	// Table nodes stay installed and stay charged.
	ip.credit(ip.St.Procs[proc].Owner, uint64(count))
	return nil
}

// --- containers, processes, threads ----------------------------------------

// NewContainer applies the new_container specification.
func (ip *Interp) NewContainer(tid Ptr, quota uint64, cpus []int, ret kernel.Ret) error {
	t, okc := ip.caller(tid)
	if !okc {
		return expect("new_container", kernel.EINVAL, ret)
	}
	parent := ip.St.Procs[t.OwningProc].Owner
	pc := ip.St.Containers[parent]
	if quota < 1 {
		return expect("new_container", kernel.EQUOTA, ret)
	}
	for _, cpu := range cpus {
		if !containsInt(pc.CPUs, cpu) {
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
		ac := ip.St.Containers[anc]
		ac.Subtree[child] = true
		ip.St.Containers[anc] = ac
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
	c := ip.St.Containers[cntr]
	c.Procs[proc] = true
	ip.St.Containers[cntr] = c
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
func (ip *Interp) NewProcess(tid Ptr, ret kernel.Ret) error {
	t, okc := ip.caller(tid)
	if !okc {
		return expect("new_proc", kernel.EINVAL, ret)
	}
	return ip.newProcessIn("new_proc", ip.St.Procs[t.OwningProc].Owner, t.OwningProc, ret)
}

// NewProcessIn applies the new_proc_in specification (first process of a
// descendant container; no process parent).
func (ip *Interp) NewProcessIn(tid Ptr, cntr Ptr, ret kernel.Ret) error {
	t, okc := ip.caller(tid)
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

// NewThreadIn applies the new_thread_in specification.
func (ip *Interp) NewThreadIn(tid Ptr, proc Ptr, onCore int, ret kernel.Ret) error {
	t, okc := ip.caller(tid)
	if !okc {
		return expect("new_thread_in", kernel.EINVAL, ret)
	}
	target, ok := ip.St.Procs[proc]
	if !ok {
		return expect("new_thread_in", kernel.ENOENT, ret)
	}
	if !ip.controls(t.OwningProc, proc) {
		return expect("new_thread_in", kernel.EPERM, ret)
	}
	cn := ip.St.Containers[target.Owner]
	if !containsInt(cn.CPUs, onCore) {
		return expect("new_thread_in", kernel.EINVAL, ret)
	}
	if !ip.chargeFits(target.Owner, 1) {
		return expect("new_thread_in", kernel.EQUOTA, ret)
	}
	if ret.Errno == kernel.ENOMEM {
		return nil
	}
	if err := expect("new_thread_in", kernel.OK, ret); err != nil {
		return err
	}
	th := Ptr(ret.Vals[0])
	if !ip.fresh(th) {
		return fmt.Errorf("new_thread_in: stale witness %#x", th)
	}
	ip.charge(target.Owner, 1)
	ip.St.Threads[th] = Thread{
		OwningProc: proc,
		OwningCntr: target.Owner,
		State:      pm.ThreadRunnable,
		Core:       onCore,
	}
	target = ip.St.Procs[proc]
	target.Threads = append(target.Threads, th)
	ip.St.Procs[proc] = target
	cn = ip.St.Containers[target.Owner]
	cn.OwnedThreads[th] = true
	ip.St.Containers[target.Owner] = cn
	return nil
}

// ExitThread applies the exit_thread specification.
func (ip *Interp) ExitThread(tid Ptr, ret kernel.Ret) error {
	if _, okc := ip.caller(tid); !okc {
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
	c := ip.St.Containers[t.OwningCntr]
	delete(c.OwnedThreads, th)
	ip.St.Containers[t.OwningCntr] = c
	delete(ip.St.Threads, th)
	ip.credit(t.OwningCntr, 1)
	delete(ip.recvSlot, th)
	delete(ip.sendEdpt, th)
	delete(ip.sendPage, th)
	delete(ip.recvVA, th)
}

// --- endpoints and IPC ------------------------------------------------------

// NewEndpoint applies the new_endpoint specification.
func (ip *Interp) NewEndpoint(tid Ptr, slot int, ret kernel.Ret) error {
	t, okc := ip.caller(tid)
	if !okc {
		return expect("new_endpoint", kernel.EINVAL, ret)
	}
	if slot < 0 || slot >= pm.MaxEndpoints || t.Endpoints[slot] != 0 {
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

// Adopt mirrors the harness's boot-style channel setup: a freshly
// created thread receives a descriptor to the shared rendezvous
// endpoint in slot 0, taking a reference. Not a syscall — the
// differential runner applies the same installation to both sides so
// generated programs can actually rendezvous.
func (ip *Interp) Adopt(tid, ep Ptr) {
	e, alive := ip.St.Endpoints[ep]
	if !alive {
		return
	}
	t, ok := ip.St.Threads[tid]
	if !ok || t.Endpoints[0] != 0 {
		return
	}
	t.Endpoints[0] = ep
	ip.St.Threads[tid] = t
	e.RefCount++
	ip.St.Endpoints[ep] = e
}

// CloseEndpoint applies the close_endpoint specification.
func (ip *Interp) CloseEndpoint(tid Ptr, slot int, ret kernel.Ret) error {
	t, okc := ip.caller(tid)
	if !okc {
		return expect("close_endpoint", kernel.EINVAL, ret)
	}
	if slot < 0 || slot >= pm.MaxEndpoints || t.Endpoints[slot] == 0 {
		return expect("close_endpoint", kernel.EINVAL, ret)
	}
	if err := expect("close_endpoint", kernel.OK, ret); err != nil {
		return err
	}
	ep := t.Endpoints[slot]
	t.Endpoints[slot] = 0
	ip.St.Threads[tid] = t
	ip.decref(ep)
	return nil
}

// resolveGrant mirrors the grant half of kernel.resolveMsg for the
// 4 KiB mappings generated programs grant: the page leaves the sender's
// address space and its quota at send time; the reference riding the
// ledger's InFlight container is below the abstraction line.
func (ip *Interp) resolveGrant(op string, proc Ptr, va hw.VirtAddr, ret kernel.Ret) (BufMsg, error, bool) {
	as := ip.St.AddressSpaces[proc]
	base := va &^ (hw.PageSize4K - 1)
	e, ok := as[base]
	if !ok || e.Size != hw.Size4K {
		return BufMsg{}, expect(op, kernel.ENOENT, ret), false
	}
	delete(as, base)
	ip.credit(ip.St.Procs[proc].Owner, 1)
	return BufMsg{HasPage: true, Size: hw.Size4K, Perm: e.Perm}, nil, true
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
func (ip *Interp) deliverPage(proc Ptr, va hw.VirtAddr, m BufMsg, refused bool) kernel.Errno {
	owner := ip.St.Procs[proc].Owner
	pages := m.Size.Bytes() / hw.PageSize4K
	if !ip.chargeFits(owner, pages) {
		return kernel.EQUOTA
	}
	as := ip.St.AddressSpaces[proc]
	if va&hw.VirtAddr(m.Size.Bytes()-1) != 0 || spaceCovers(as, va) {
		return kernel.EINVAL
	}
	kset := ip.keys[proc]
	need := make(map[uint64]bool)
	for _, k := range nodeKeys(va, m.Size) {
		if !kset[k] {
			need[k] = true
		}
	}
	if refused && len(need) > 0 {
		return kernel.ENOMEM
	}
	if !ip.chargeFits(owner, pages+uint64(len(need))) {
		ip.mmapPrune(proc, owner)
		return kernel.EQUOTA
	}
	if as == nil {
		as = make(map[hw.VirtAddr]pt.MapEntry)
		ip.St.AddressSpaces[proc] = as
	}
	as[va] = pt.MapEntry{Size: m.Size, Perm: m.Perm}
	for k := range need {
		kset[k] = true
	}
	ip.charge(owner, pages+uint64(len(need)))
	return kernel.OK
}

// deliverTo mirrors kernel.deliver for a woken receiver: the page lands
// first (its failure voids the endpoint install — the kernel returns
// early), then the endpoint descriptor. The woken receiver's errno is
// below the abstraction line (it surfaces through its own syscall's
// return, which the harness does not observe for a wake), so no
// refused node can be witnessed here.
func (ip *Interp) deliverTo(rptr Ptr, msg BufMsg, xfer Ptr) {
	if msg.HasPage {
		rt := ip.St.Threads[rptr]
		if ip.deliverPage(rt.OwningProc, ip.recvVA[rptr], msg, false) != kernel.OK {
			return
		}
	}
	ip.installEdpt(rptr, ip.recvSlot[rptr], xfer)
}

// resolveXfer mirrors the endpoint half of kernel.resolveMsg: validates
// the transfer slot and reads the endpoint it names (0 when no transfer
// was requested).
func (ip *Interp) resolveXfer(op string, t Thread, sendEdpt bool, xferSlot int, ret kernel.Ret) (Ptr, error, bool) {
	if !sendEdpt {
		return 0, nil, true
	}
	if xferSlot < 0 || xferSlot >= pm.MaxEndpoints {
		return 0, expect(op, kernel.EINVAL, ret), false
	}
	xfer := t.Endpoints[xferSlot]
	if xfer == 0 {
		return 0, expect(op, kernel.ENOENT, ret), false
	}
	return xfer, nil, true
}

// installEdpt mirrors the endpoint half of kernel.deliver: the incoming
// descriptor lands in the receiver's requested slot (-1: first free),
// taking a reference. A zero xfer is a scalar-only message (trivially
// delivered). Returns false when no usable slot exists — the kernel
// reports ErrEndpointDead to whichever side observes the delivery.
func (ip *Interp) installEdpt(rptr Ptr, reqSlot int, xfer Ptr) bool {
	if xfer == 0 {
		return true
	}
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
	if slot < 0 || slot >= pm.MaxEndpoints || rt.Endpoints[slot] != 0 {
		return false
	}
	rt.Endpoints[slot] = xfer
	ip.St.Threads[rptr] = rt
	e := ip.St.Endpoints[xfer]
	e.RefCount++
	ip.St.Endpoints[xfer] = e
	return true
}

// wake mirrors pm.Wake: the thread becomes runnable.
func (ip *Interp) wake(th Ptr) {
	t := ip.St.Threads[th]
	t.State = pm.ThreadRunnable
	ip.St.Threads[th] = t
}

// Send applies the send specification: scalar registers plus an optional
// endpoint transfer from the caller's xferSlot and an optional page
// grant of the 4 KiB mapping at grantVA (0: no grant).
func (ip *Interp) Send(tid Ptr, slot int, sendEdpt bool, xferSlot int, grantVA hw.VirtAddr, ret kernel.Ret) error {
	t, okc := ip.caller(tid)
	if !okc {
		return expect("send", kernel.EINVAL, ret)
	}
	if slot < 0 || slot >= pm.MaxEndpoints || t.Endpoints[slot] == 0 {
		return expect("send", kernel.EINVAL, ret)
	}
	ep := t.Endpoints[slot]
	var msg BufMsg
	if grantVA != 0 {
		m, err, okg := ip.resolveGrant("send", t.OwningProc, grantVA, ret)
		if !okg {
			return err
		}
		msg = m
	}
	xfer, err, okx := ip.resolveXfer("send", t, sendEdpt, xferSlot, ret)
	if !okx {
		// The grant stands: the kernel resolves the page half first, and
		// a failed endpoint half drops the in-flight message — the
		// granted page is simply gone.
		return err
	}
	e := ip.St.Endpoints[ep]
	if e.QueuedRecv && len(e.Queue) > 0 {
		// Rendezvous: the head receiver is woken; a failed page or
		// endpoint delivery is reported to the receiver, not the sender.
		if err := expect("send", kernel.OK, ret); err != nil {
			return err
		}
		rptr := e.Queue[0]
		e.Queue = e.Queue[1:]
		ip.St.Endpoints[ep] = e
		ip.deliverTo(rptr, msg, xfer)
		rt := ip.St.Threads[rptr]
		rt.WaitingOn = 0
		ip.St.Threads[rptr] = rt
		ip.wake(rptr)
		delete(ip.recvSlot, rptr)
		delete(ip.recvVA, rptr)
		return nil
	}
	if err := expect("send", kernel.EWOULDBLOCK, ret); err != nil {
		return err
	}
	t.State = pm.ThreadBlockedSend
	t.WaitingOn = ep
	ip.St.Threads[tid] = t
	e.QueuedRecv = false
	e.Queue = append(e.Queue, tid)
	ip.St.Endpoints[ep] = e
	if xfer != 0 {
		ip.sendEdpt[tid] = xfer
	}
	if msg.HasPage {
		ip.sendPage[tid] = msg
	}
	return nil
}

// SendAsync applies the send_async specification: never blocks — a
// parked receiver gets an ordinary rendezvous delivery, otherwise the
// message joins the endpoint's bounded buffer (EAGAIN when full,
// refused before the grant resolves). Endpoint transfers are not part
// of send_async's surface (the kernel rejects them with EINVAL).
func (ip *Interp) SendAsync(tid Ptr, slot int, grantVA hw.VirtAddr, ret kernel.Ret) error {
	t, okc := ip.caller(tid)
	if !okc {
		return expect("send_async", kernel.EINVAL, ret)
	}
	if slot < 0 || slot >= pm.MaxEndpoints || t.Endpoints[slot] == 0 {
		return expect("send_async", kernel.EINVAL, ret)
	}
	ep := t.Endpoints[slot]
	e := ip.St.Endpoints[ep]
	rendezvous := e.QueuedRecv && len(e.Queue) > 0
	if !rendezvous && len(e.Buffered) >= pm.MaxEndpointBuffer {
		return expect("send_async", kernel.EAGAIN, ret)
	}
	var msg BufMsg
	if grantVA != 0 {
		m, err, okg := ip.resolveGrant("send_async", t.OwningProc, grantVA, ret)
		if !okg {
			return err
		}
		msg = m
	}
	if err := expect("send_async", kernel.OK, ret); err != nil {
		return err
	}
	if rendezvous {
		rptr := e.Queue[0]
		e.Queue = e.Queue[1:]
		ip.St.Endpoints[ep] = e
		ip.deliverTo(rptr, msg, 0)
		rt := ip.St.Threads[rptr]
		rt.WaitingOn = 0
		ip.St.Threads[rptr] = rt
		ip.wake(rptr)
		delete(ip.recvSlot, rptr)
		delete(ip.recvVA, rptr)
		return nil
	}
	e.Buffered = append(e.Buffered, msg)
	ip.St.Endpoints[ep] = e
	return nil
}

// Recv applies the recv specification; reqSlot is where an incoming
// endpoint descriptor should land (-1: first free) and recvVA is where
// an incoming page should be mapped.
func (ip *Interp) Recv(tid Ptr, slot int, reqSlot int, recvVA hw.VirtAddr, ret kernel.Ret) error {
	t, okc := ip.caller(tid)
	if !okc {
		return expect("recv", kernel.EINVAL, ret)
	}
	if slot < 0 || slot >= pm.MaxEndpoints || t.Endpoints[slot] == 0 {
		return expect("recv", kernel.EINVAL, ret)
	}
	ep := t.Endpoints[slot]
	e := ip.St.Endpoints[ep]
	if len(e.Buffered) > 0 {
		// Asynchronously buffered messages drain ahead of any blocked
		// senders: no partner to wake, just the buffer pop. A granted
		// page lands in the caller's space; its delivery failure is the
		// caller's errno.
		m := e.Buffered[0]
		e.Buffered = e.Buffered[1:]
		ip.St.Endpoints[ep] = e
		if m.HasPage {
			if errno := ip.deliverPage(t.OwningProc, recvVA, m, ret.Errno == kernel.ENOMEM); errno != kernel.OK {
				return expect("recv", errno, ret)
			}
		}
		return expect("recv", kernel.OK, ret)
	}
	if !e.QueuedRecv && len(e.Queue) > 0 {
		// Rendezvous: take the head sender's pending message; the sender
		// is woken cleanly either way, a failed page delivery or install
		// surfaces as the receiver's errno. The page lands before the
		// endpoint descriptor, and its failure voids the install.
		sptr := e.Queue[0]
		e.Queue = e.Queue[1:]
		ip.St.Endpoints[ep] = e
		xfer := ip.sendEdpt[sptr]
		delete(ip.sendEdpt, sptr)
		page, hadPage := ip.sendPage[sptr]
		delete(ip.sendPage, sptr)
		st := ip.St.Threads[sptr]
		st.WaitingOn = 0
		ip.St.Threads[sptr] = st
		ip.wake(sptr)
		if hadPage {
			if errno := ip.deliverPage(t.OwningProc, recvVA, page, ret.Errno == kernel.ENOMEM); errno != kernel.OK {
				return expect("recv", errno, ret)
			}
		}
		installed := ip.installEdpt(tid, reqSlot, xfer)
		if !installed {
			return expect("recv", kernel.EDEADOBJ, ret)
		}
		return expect("recv", kernel.OK, ret)
	}
	if err := expect("recv", kernel.EWOULDBLOCK, ret); err != nil {
		return err
	}
	t.State = pm.ThreadBlockedRecv
	t.WaitingOn = ep
	ip.St.Threads[tid] = t
	e.QueuedRecv = true
	e.Queue = append(e.Queue, tid)
	ip.St.Endpoints[ep] = e
	ip.recvSlot[tid] = reqSlot
	ip.recvVA[tid] = recvVA
	return nil
}

// Call applies the call specification: it requires a server already
// blocked receiving, delivers (including an optional page grant), and
// leaves the caller blocked awaiting the reply on the same endpoint.
func (ip *Interp) Call(tid Ptr, slot int, sendEdpt bool, xferSlot int, grantVA hw.VirtAddr, ret kernel.Ret) error {
	t, okc := ip.caller(tid)
	if !okc {
		return expect("call", kernel.EINVAL, ret)
	}
	if slot < 0 || slot >= pm.MaxEndpoints || t.Endpoints[slot] == 0 {
		return expect("call", kernel.EINVAL, ret)
	}
	ep := t.Endpoints[slot]
	e := ip.St.Endpoints[ep]
	if !e.QueuedRecv || len(e.Queue) == 0 {
		return expect("call", kernel.EWOULDBLOCK, ret)
	}
	var msg BufMsg
	if grantVA != 0 {
		m, err, okg := ip.resolveGrant("call", t.OwningProc, grantVA, ret)
		if !okg {
			return err
		}
		msg = m
	}
	xfer, err, okx := ip.resolveXfer("call", t, sendEdpt, xferSlot, ret)
	if !okx {
		return err // the grant stands, as in Send
	}
	// The fastpath's "blocked awaiting reply" is reported EWOULDBLOCK.
	if err := expect("call", kernel.EWOULDBLOCK, ret); err != nil {
		return err
	}
	server := e.Queue[0]
	e.Queue = e.Queue[1:]
	// Write the pop back before deliverTo: when the transferred endpoint
	// is ep itself, installEdpt bumps ip.St.Endpoints[ep] and a stale
	// local copy written afterwards would lose that reference.
	ip.St.Endpoints[ep] = e
	ip.deliverTo(server, msg, xfer)
	sst := ip.St.Threads[server]
	sst.WaitingOn = 0
	ip.St.Threads[server] = sst
	ip.wake(server)
	delete(ip.recvSlot, server)
	delete(ip.recvVA, server)
	t = ip.St.Threads[tid]
	t.State = pm.ThreadBlockedRecv
	t.WaitingOn = ep
	ip.St.Threads[tid] = t
	e = ip.St.Endpoints[ep]
	e.QueuedRecv = true
	e.Queue = append(e.Queue, tid)
	ip.St.Endpoints[ep] = e
	ip.recvSlot[tid] = -1
	delete(ip.recvVA, tid)
	return nil
}

// Yield applies the yield specification: scheduling only, Ψ unchanged.
func (ip *Interp) Yield(tid Ptr, ret kernel.Ret) error {
	if _, okc := ip.caller(tid); !okc {
		return expect("yield", kernel.EINVAL, ret)
	}
	return expect("yield", kernel.OK, ret)
}

// --- revocation -------------------------------------------------------------

// unlink mirrors kernel.unlinkFromEndpoint for a blocked thread being
// reaped: it leaves the queue it waits on and its pending message dies
// with it.
func (ip *Interp) unlink(th Ptr) {
	t := ip.St.Threads[th]
	if t.WaitingOn != 0 {
		if e, ok := ip.St.Endpoints[t.WaitingOn]; ok {
			e.Queue = removePtrOnce(e.Queue, th)
			ip.St.Endpoints[t.WaitingOn] = e
		}
		t.WaitingOn = 0
		ip.St.Threads[th] = t
	}
	delete(ip.sendEdpt, th)
	delete(ip.recvSlot, th)
	// A blocked sender's granted page dies with the message
	// (kernel.unlinkFromEndpoint drops the pending Msg).
	delete(ip.sendPage, th)
	delete(ip.recvVA, th)
}

// reapThread mirrors kernel.reapThread.
func (ip *Interp) reapThread(th Ptr) {
	t := ip.St.Threads[th]
	if t.State == pm.ThreadBlockedSend || t.State == pm.ThreadBlockedRecv {
		ip.unlink(th)
	}
	ip.freeThread(th)
}

// releaseSpace specifies the page phase of the kernel's teardown
// (kernel.reapSpace): every mapping is released and its pages credited;
// table nodes stay charged until the process dies.
func (ip *Interp) releaseSpace(v Ptr) {
	as := ip.St.AddressSpaces[v]
	var total uint64
	for _, e := range as {
		total += e.Size.Bytes() / hw.PageSize4K
	}
	ip.St.AddressSpaces[v] = make(map[hw.VirtAddr]pt.MapEntry)
	ip.credit(ip.St.Procs[v].Owner, total)
}

// destroyDomainProc mirrors kernel.reapDomain for the only shape
// the generator produces: an empty domain whose table is a bare root.
func (ip *Interp) destroyDomainProc(v Ptr) {
	p := ip.St.Procs[v]
	if p.IOMMUDomain == 0 {
		return
	}
	delete(ip.St.DMASpaces, p.IOMMUDomain)
	ip.credit(p.Owner, 1)
	p.IOMMUDomain = 0
	ip.St.Procs[v] = p
}

// freeProcess mirrors pm.FreeProcess: table nodes (ghost keys plus the
// root) and the object page are credited, the process leaves its parent
// and container.
func (ip *Interp) freeProcess(v Ptr) {
	p, ok := ip.St.Procs[v]
	if !ok {
		return
	}
	ip.credit(p.Owner, uint64(len(ip.keys[v]))+1)
	if p.Parent != 0 {
		if pp, okp := ip.St.Procs[p.Parent]; okp {
			pp.Children = removePtrOnce(pp.Children, v)
			ip.St.Procs[p.Parent] = pp
		}
	}
	c := ip.St.Containers[p.Owner]
	delete(c.Procs, v)
	ip.St.Containers[p.Owner] = c
	delete(ip.St.Procs, v)
	delete(ip.St.AddressSpaces, v)
	delete(ip.keys, v)
	ip.credit(p.Owner, 1)
}

// procSubtree mirrors kernel.processSubtree (preorder).
func (ip *Interp) procSubtree(proc Ptr) []Ptr {
	var out []Ptr
	var rec func(p Ptr)
	rec = func(p Ptr) {
		out = append(out, p)
		for _, ch := range ip.St.Procs[p].Children {
			rec(ch)
		}
	}
	rec(proc)
	return out
}

// KillProcess applies the kill_proc specification.
func (ip *Interp) KillProcess(tid Ptr, proc Ptr, ret kernel.Ret) error {
	t, okc := ip.caller(tid)
	if !okc {
		return expect("kill_proc", kernel.EINVAL, ret)
	}
	if _, ok := ip.St.Procs[proc]; !ok {
		return expect("kill_proc", kernel.ENOENT, ret)
	}
	if proc == t.OwningProc || !ip.controls(t.OwningProc, proc) {
		return expect("kill_proc", kernel.EPERM, ret)
	}
	if err := expect("kill_proc", kernel.OK, ret); err != nil {
		return err
	}
	victims := ip.procSubtree(proc)
	for _, v := range victims {
		for _, th := range append([]Ptr(nil), ip.St.Procs[v].Threads...) {
			ip.reapThread(th)
		}
		ip.releaseSpace(v)
		ip.destroyDomainProc(v)
	}
	for i := len(victims) - 1; i >= 0; i-- {
		ip.freeProcess(victims[i])
	}
	return nil
}

// destroyEndpointDying specifies the death of an endpoint owned by a
// dying container: outside waiters wake with EDEADOBJ, dying waiters
// stay blocked until their threads are freed (the kernel frees them
// first, so its destroyEndpoint sees none), every descriptor naming the
// endpoint is revoked (in any thread, dying or not), pending send
// transfers of it are scrubbed, and the endpoint's page returns to its
// (dying) owner.
func (ip *Interp) destroyEndpointDying(eptr Ptr, killed map[Ptr]bool) {
	e := ip.St.Endpoints[eptr]
	for _, q := range e.Queue {
		qt := ip.St.Threads[q]
		qt.WaitingOn = 0
		if !killed[qt.OwningCntr] {
			qt.State = pm.ThreadRunnable
		}
		ip.St.Threads[q] = qt
		delete(ip.sendEdpt, q)
		delete(ip.recvSlot, q)
		delete(ip.sendPage, q)
		delete(ip.recvVA, q)
	}
	for _, th := range sortedPtrKeys(ip.St.Threads) {
		tt := ip.St.Threads[th]
		changed := false
		for i := 0; i < pm.MaxEndpoints; i++ {
			if tt.Endpoints[i] == eptr {
				tt.Endpoints[i] = 0
				changed = true
			}
		}
		if changed {
			ip.St.Threads[th] = tt
		}
	}
	for th, x := range ip.sendEdpt {
		if x == eptr {
			delete(ip.sendEdpt, th)
		}
	}
	delete(ip.St.Endpoints, eptr)
	ip.credit(e.OwnerCntr, 1)
}

// freeProcTree frees v and its descendant processes, children first, as
// the kernel's teardown does.
func (ip *Interp) freeProcTree(v Ptr) {
	p, ok := ip.St.Procs[v]
	if !ok {
		return
	}
	for _, ch := range append([]Ptr(nil), p.Children...) {
		ip.freeProcTree(ch)
	}
	ip.freeProcess(v)
}

// KillContainer applies the kill_container specification: the paper's
// terminate-and-harvest revocation (§3).
func (ip *Interp) KillContainer(tid Ptr, cntr Ptr, ret kernel.Ret) error {
	t, okc := ip.caller(tid)
	if !okc {
		return expect("kill_container", kernel.EINVAL, ret)
	}
	c, ok := ip.St.Containers[cntr]
	if !ok {
		return expect("kill_container", kernel.ENOENT, ret)
	}
	if !ip.isAncestor(ip.St.Procs[t.OwningProc].Owner, cntr) {
		return expect("kill_container", kernel.EPERM, ret)
	}
	if err := expect("kill_container", kernel.OK, ret); err != nil {
		return err
	}
	killed := map[Ptr]bool{cntr: true}
	for s := range c.Subtree {
		killed[s] = true
	}
	// 1. Destroy endpoints owned by the dying subtree, in pointer order.
	for _, eptr := range sortedPtrKeys(ip.St.Endpoints) {
		e, still := ip.St.Endpoints[eptr]
		if !still || !killed[e.OwnerCntr] {
			continue
		}
		ip.destroyEndpointDying(eptr, killed)
	}
	// 2. Reap every process of the subtree, then free them children-first.
	var procs []Ptr
	for v, p := range ip.St.Procs {
		if killed[p.Owner] {
			procs = append(procs, v)
		}
	}
	sort.Slice(procs, func(i, j int) bool { return procs[i] < procs[j] })
	for _, v := range procs {
		for _, th := range append([]Ptr(nil), ip.St.Procs[v].Threads...) {
			ip.reapThread(th)
		}
		ip.releaseSpace(v)
		ip.destroyDomainProc(v)
	}
	for _, v := range procs {
		ip.freeProcTree(v)
	}
	// 3. Unlink the containers deepest-first so parents empty out.
	var order []Ptr
	for kc := range killed {
		order = append(order, kc)
	}
	sort.Slice(order, func(i, j int) bool {
		ci, cj := ip.St.Containers[order[i]], ip.St.Containers[order[j]]
		if ci.Depth != cj.Depth {
			return ci.Depth > cj.Depth
		}
		return order[i] < order[j]
	})
	for _, kc := range order {
		kcc := ip.St.Containers[kc]
		if pc, okp := ip.St.Containers[kcc.Parent]; okp {
			pc.Children = removePtrOnce(pc.Children, kc)
			ip.St.Containers[kcc.Parent] = pc
		}
		for _, anc := range kcc.Path {
			if ac, oka := ip.St.Containers[anc]; oka {
				delete(ac.Subtree, kc)
				ip.St.Containers[anc] = ac
			}
		}
		delete(ip.St.Containers, kc)
		ip.credit(kcc.Parent, kcc.QuotaPages)
	}
	return nil
}

// IommuCreate applies the iommu_create specification.
func (ip *Interp) IommuCreate(tid Ptr, ret kernel.Ret) error {
	t, okc := ip.caller(tid)
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
	return nil
}

// --- the differential oracle ------------------------------------------------

// normState folds the scheduler's Runnable/Running distinction, which is
// below the specification's abstraction line (PickNext is not specified).
func normState(s pm.ThreadState) pm.ThreadState {
	if s == pm.ThreadRunning {
		return pm.ThreadRunnable
	}
	return s
}

func sortedPtrKeys[V any](m map[Ptr]V) []Ptr {
	out := make([]Ptr, 0, len(m))
	for p := range m {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Diff compares the abstract state of the concrete kernel against the
// interpreter's Ψ′ and reports the first field-level divergence in a
// deterministic order: object kind by kind, lowest key first. Physical
// addresses, the allocator snapshot, and the Runnable/Running
// distinction are outside the comparison — they are witnesses below the
// specification.
func (ip *Interp) Diff(k State) error {
	s := &ip.St
	if k.RootContainer != s.RootContainer {
		return fmt.Errorf("root container: kernel %#x, spec %#x", k.RootContainer, s.RootContainer)
	}
	if err := lowest(s.Containers, func(p Ptr, sc Container) error {
		kc, ok := k.Containers[p]
		if !ok {
			return fmt.Errorf("container %#x: missing in kernel", p)
		}
		switch {
		case kc.Parent != sc.Parent:
			return fmt.Errorf("container %#x: parent kernel=%#x spec=%#x", p, kc.Parent, sc.Parent)
		case kc.Depth != sc.Depth:
			return fmt.Errorf("container %#x: depth kernel=%d spec=%d", p, kc.Depth, sc.Depth)
		case kc.QuotaPages != sc.QuotaPages:
			return fmt.Errorf("container %#x: quota_pages kernel=%d spec=%d", p, kc.QuotaPages, sc.QuotaPages)
		case kc.UsedPages != sc.UsedPages:
			return fmt.Errorf("container %#x: used_pages kernel=%d spec=%d", p, kc.UsedPages, sc.UsedPages)
		case !ptrsEqual(kc.Children, sc.Children):
			return fmt.Errorf("container %#x: children kernel=%v spec=%v", p, kc.Children, sc.Children)
		case !ptrsEqual(kc.Path, sc.Path):
			return fmt.Errorf("container %#x: path kernel=%v spec=%v", p, kc.Path, sc.Path)
		case !setsEqual(kc.Subtree, sc.Subtree):
			return fmt.Errorf("container %#x: subtree kernel=%v spec=%v", p, SortedPtrs(kc.Subtree), SortedPtrs(sc.Subtree))
		case !intsEqual(kc.CPUs, sc.CPUs):
			return fmt.Errorf("container %#x: cpus kernel=%v spec=%v", p, kc.CPUs, sc.CPUs)
		case !setsEqual(kc.Procs, sc.Procs):
			return fmt.Errorf("container %#x: procs kernel=%v spec=%v", p, SortedPtrs(kc.Procs), SortedPtrs(sc.Procs))
		case !setsEqual(kc.OwnedThreads, sc.OwnedThreads):
			return fmt.Errorf("container %#x: owned_threads kernel=%v spec=%v", p, SortedPtrs(kc.OwnedThreads), SortedPtrs(sc.OwnedThreads))
		}
		return nil
	}); err != nil {
		return err
	}
	if err := kernelOnly(k.Containers, s.Containers, "container %#x: present in kernel, absent in spec"); err != nil {
		return err
	}
	if err := lowest(s.Procs, func(p Ptr, sp Proc) error {
		kp, ok := k.Procs[p]
		if !ok {
			return fmt.Errorf("proc %#x: missing in kernel", p)
		}
		switch {
		case kp.Owner != sp.Owner:
			return fmt.Errorf("proc %#x: owner kernel=%#x spec=%#x", p, kp.Owner, sp.Owner)
		case kp.Parent != sp.Parent:
			return fmt.Errorf("proc %#x: parent kernel=%#x spec=%#x", p, kp.Parent, sp.Parent)
		case !ptrsEqual(kp.Children, sp.Children):
			return fmt.Errorf("proc %#x: children kernel=%v spec=%v", p, kp.Children, sp.Children)
		case !ptrsEqual(kp.Threads, sp.Threads):
			return fmt.Errorf("proc %#x: threads kernel=%v spec=%v", p, kp.Threads, sp.Threads)
		case kp.IOMMUDomain != sp.IOMMUDomain:
			return fmt.Errorf("proc %#x: iommu_domain kernel=%d spec=%d", p, kp.IOMMUDomain, sp.IOMMUDomain)
		}
		return nil
	}); err != nil {
		return err
	}
	if err := kernelOnly(k.Procs, s.Procs, "proc %#x: present in kernel, absent in spec"); err != nil {
		return err
	}
	if err := lowest(s.Threads, func(p Ptr, st Thread) error {
		kt, ok := k.Threads[p]
		if !ok {
			return fmt.Errorf("thread %#x: missing in kernel", p)
		}
		switch {
		case kt.OwningProc != st.OwningProc:
			return fmt.Errorf("thread %#x: owning_proc kernel=%#x spec=%#x", p, kt.OwningProc, st.OwningProc)
		case kt.OwningCntr != st.OwningCntr:
			return fmt.Errorf("thread %#x: owning_cntr kernel=%#x spec=%#x", p, kt.OwningCntr, st.OwningCntr)
		case normState(kt.State) != normState(st.State):
			return fmt.Errorf("thread %#x: state kernel=%v spec=%v", p, kt.State, st.State)
		case kt.Core != st.Core:
			return fmt.Errorf("thread %#x: core kernel=%d spec=%d", p, kt.Core, st.Core)
		case kt.Endpoints != st.Endpoints:
			return fmt.Errorf("thread %#x: endpoints kernel=%v spec=%v", p, kt.Endpoints, st.Endpoints)
		case kt.WaitingOn != st.WaitingOn:
			return fmt.Errorf("thread %#x: waiting_on kernel=%#x spec=%#x", p, kt.WaitingOn, st.WaitingOn)
		}
		return nil
	}); err != nil {
		return err
	}
	if err := kernelOnly(k.Threads, s.Threads, "thread %#x: present in kernel, absent in spec"); err != nil {
		return err
	}
	if err := lowest(s.Endpoints, func(p Ptr, se Endpoint) error {
		ke, ok := k.Endpoints[p]
		if !ok {
			return fmt.Errorf("endpoint %#x: missing in kernel", p)
		}
		switch {
		case !ptrsEqual(ke.Queue, se.Queue):
			return fmt.Errorf("endpoint %#x: queue kernel=%v spec=%v", p, ke.Queue, se.Queue)
		case ke.QueuedRecv != se.QueuedRecv:
			return fmt.Errorf("endpoint %#x: queued_recv kernel=%v spec=%v", p, ke.QueuedRecv, se.QueuedRecv)
		case ke.RefCount != se.RefCount:
			return fmt.Errorf("endpoint %#x: refcount kernel=%d spec=%d", p, ke.RefCount, se.RefCount)
		case ke.OwnerCntr != se.OwnerCntr:
			return fmt.Errorf("endpoint %#x: owner_cntr kernel=%#x spec=%#x", p, ke.OwnerCntr, se.OwnerCntr)
		case !bufsEqual(ke.Buffered, se.Buffered):
			return fmt.Errorf("endpoint %#x: buffered kernel=%v spec=%v", p, ke.Buffered, se.Buffered)
		}
		return nil
	}); err != nil {
		return err
	}
	if err := kernelOnly(k.Endpoints, s.Endpoints, "endpoint %#x: present in kernel, absent in spec"); err != nil {
		return err
	}
	if err := lowest(s.AddressSpaces, func(p Ptr, sas map[hw.VirtAddr]pt.MapEntry) error {
		kas, ok := k.AddressSpaces[p]
		if !ok {
			return fmt.Errorf("address space %#x: missing in kernel", p)
		}
		if err := diffSpace(kas, sas); err != nil {
			return fmt.Errorf("address space %#x: %w", p, err)
		}
		return nil
	}); err != nil {
		return err
	}
	if err := kernelOnly(k.AddressSpaces, s.AddressSpaces, "address space %#x: present in kernel, absent in spec"); err != nil {
		return err
	}
	if err := lowest(s.DMASpaces, func(id iommu.DomainID, sd map[hw.VirtAddr]pt.MapEntry) error {
		kd, ok := k.DMASpaces[id]
		if !ok {
			return fmt.Errorf("dma space %d: missing in kernel", id)
		}
		if err := diffSpace(kd, sd); err != nil {
			return fmt.Errorf("dma space %d: %w", id, err)
		}
		return nil
	}); err != nil {
		return err
	}
	return kernelOnly(k.DMASpaces, s.DMASpaces, "dma space %d: present in kernel, absent in spec")
}

// lowest returns the error check reports for the lowest key of m it
// fails on: ranging a map in any order, it reports what a loop over
// sorted keys would report first, without sorting.
func lowest[K cmp.Ordered, V any](m map[K]V, check func(K, V) error) error {
	var low K
	var lowErr error
	for key, v := range m {
		if lowErr != nil && key > low {
			continue
		}
		if err := check(key, v); err != nil {
			low, lowErr = key, err
		}
	}
	return lowErr
}

// kernelOnly reports the lowest key of k that s lacks, formatted into
// format.
func kernelOnly[K cmp.Ordered, V, W any](k map[K]V, s map[K]W, format string) error {
	return lowest(k, func(key K, _ V) error {
		if _, ok := s[key]; !ok {
			return fmt.Errorf(format, key)
		}
		return nil
	})
}

// diffSpace compares two address spaces modulo physical addresses and
// reports the lowest diverging VA.
func diffSpace(kas, sas map[hw.VirtAddr]pt.MapEntry) error {
	if err := lowest(sas, func(va hw.VirtAddr, se pt.MapEntry) error {
		ke, ok := kas[va]
		if !ok {
			return fmt.Errorf("va %#x mapped in spec, not in kernel", uint64(va))
		}
		if ke.Size != se.Size || ke.Perm != se.Perm {
			return fmt.Errorf("va %#x kernel=(%v,%v) spec=(%v,%v)",
				uint64(va), ke.Size, ke.Perm, se.Size, se.Perm)
		}
		return nil
	}); err != nil {
		return err
	}
	return kernelOnly(kas, sas, "va %#x mapped in kernel, not in spec")
}
