package pm

import (
	"errors"
	"fmt"

	"atmosphere/internal/hw"
	"atmosphere/internal/mem"
	"atmosphere/internal/pt"
)

// Process manager errors.
var (
	ErrNoPermission  = errors.New("pm: no tracked permission for pointer")
	ErrQuotaExceeded = errors.New("pm: container memory quota exceeded")
	ErrBadCPU        = errors.New("pm: CPU not reserved by container")
	ErrBusy          = errors.New("pm: object still referenced")
)

// ProcessManager owns every container, process, thread, and endpoint in
// the system. The four permission maps are the flat permission storage of
// Listing 2: holding an object pointer grants nothing; the authority to
// dereference lives here, at the top level of the subsystem.
type ProcessManager struct {
	alloc *mem.Allocator
	clock *hw.Clock

	RootContainer Ptr

	CntrPerms map[Ptr]*Container
	ProcPerms map[Ptr]*Process
	ThrdPerms map[Ptr]*Thread
	EdptPerms map[Ptr]*Endpoint

	// OnEndpointFree, when set, runs on an endpoint about to be destroyed
	// by EndpointDecRef. The kernel installs it to release the page
	// references of buffered asynchronous messages — references the
	// manager cannot drop itself (they live in the allocator and the
	// cycle ledger, above this package).
	OnEndpointFree func(*Endpoint)

	sched *Scheduler
}

// New creates a process manager with a root container spanning all of
// the machine's cores and holding the given page quota.
func New(alloc *mem.Allocator, clock *hw.Clock, cores int, rootQuota uint64) (*ProcessManager, error) {
	m := &ProcessManager{
		alloc:     alloc,
		clock:     clock,
		CntrPerms: make(map[Ptr]*Container),
		ProcPerms: make(map[Ptr]*Process),
		ThrdPerms: make(map[Ptr]*Thread),
		EdptPerms: make(map[Ptr]*Endpoint),
		sched:     newScheduler(cores),
	}
	page, err := alloc.AllocPage4K(mem.OwnerProcessMgr)
	if err != nil {
		return nil, err
	}
	cpus := make([]int, cores)
	for i := range cpus {
		cpus[i] = i
	}
	root := &Container{
		Ptr:          page,
		QuotaPages:   rootQuota,
		UsedPages:    1, // its own object page
		CPUs:         cpus,
		Procs:        make(map[Ptr]struct{}),
		OwnedThreads: make(map[Ptr]struct{}),
		Subtree:      make(map[Ptr]struct{}),
	}
	m.CntrPerms[page] = root
	m.RootContainer = page
	return m, nil
}

// Alloc returns the underlying page allocator.
func (m *ProcessManager) Alloc() *mem.Allocator { return m.alloc }

// Clock returns the cycle clock the manager charges.
func (m *ProcessManager) Clock() *hw.Clock { return m.clock }

// Sched returns the scheduler.
func (m *ProcessManager) Sched() *Scheduler { return m.sched }

// --- permission-checked dereference ----------------------------------------

// Cntr dereferences a container pointer; it panics if no permission is
// held — the analogue of Verus rejecting the access statically.
func (m *ProcessManager) Cntr(p Ptr) *Container {
	c, ok := m.CntrPerms[p]
	if !ok {
		panic(fmt.Sprintf("pm: dereference of container %#x without permission", p))
	}
	m.clock.Charge(hw.CostCacheTouch)
	return c
}

// Proc dereferences a process pointer.
func (m *ProcessManager) Proc(p Ptr) *Process {
	pr, ok := m.ProcPerms[p]
	if !ok {
		panic(fmt.Sprintf("pm: dereference of process %#x without permission", p))
	}
	m.clock.Charge(hw.CostCacheTouch)
	return pr
}

// Thrd dereferences a thread pointer.
func (m *ProcessManager) Thrd(p Ptr) *Thread {
	t, ok := m.ThrdPerms[p]
	if !ok {
		panic(fmt.Sprintf("pm: dereference of thread %#x without permission", p))
	}
	m.clock.Charge(hw.CostCacheTouch)
	return t
}

// Edpt dereferences an endpoint pointer.
func (m *ProcessManager) Edpt(p Ptr) *Endpoint {
	e, ok := m.EdptPerms[p]
	if !ok {
		panic(fmt.Sprintf("pm: dereference of endpoint %#x without permission", p))
	}
	m.clock.Charge(hw.CostCacheTouch)
	return e
}

// TryCntr is the non-panicking dereference used on syscall argument
// validation paths, where a bad pointer is a user error, not a kernel
// invariant violation.
func (m *ProcessManager) TryCntr(p Ptr) (*Container, bool) {
	c, ok := m.CntrPerms[p]
	return c, ok
}

// TryProc is the non-panicking process dereference.
func (m *ProcessManager) TryProc(p Ptr) (*Process, bool) {
	pr, ok := m.ProcPerms[p]
	return pr, ok
}

// TryThrd is the non-panicking thread dereference.
func (m *ProcessManager) TryThrd(p Ptr) (*Thread, bool) {
	t, ok := m.ThrdPerms[p]
	return t, ok
}

// TryEdpt is the non-panicking endpoint dereference.
func (m *ProcessManager) TryEdpt(p Ptr) (*Endpoint, bool) {
	e, ok := m.EdptPerms[p]
	return e, ok
}

// --- quota accounting -------------------------------------------------------

// ChargePages charges n pages against the container's quota, or returns
// ErrQuotaExceeded, unwrapped, if they do not fit.
func (m *ProcessManager) ChargePages(cntr Ptr, n uint64) error {
	c := m.Cntr(cntr)
	if c.UsedPages+n > c.QuotaPages {
		return ErrQuotaExceeded
	}
	c.UsedPages += n
	return nil
}

// CreditPages returns n pages to the container's quota.
func (m *ProcessManager) CreditPages(cntr Ptr, n uint64) {
	c := m.Cntr(cntr)
	if c.UsedPages < n {
		panic(fmt.Sprintf("pm: crediting %d pages to container %#x with only %d used", n, cntr, c.UsedPages))
	}
	c.UsedPages -= n
}

// --- object allocation -------------------------------------------------------

// allocObjectPage allocates the backing page for a kernel object and
// charges the container.
func (m *ProcessManager) allocObjectPage(cntr Ptr) (Ptr, error) {
	if err := m.ChargePages(cntr, 1); err != nil {
		return 0, err
	}
	page, err := m.alloc.AllocPage4K(mem.OwnerProcessMgr)
	if err != nil {
		m.CreditPages(cntr, 1)
		return 0, err
	}
	return page, nil
}

// freeObjectPage releases an object's backing page and credits the
// container.
func (m *ProcessManager) freeObjectPage(cntr, page Ptr) {
	if err := m.alloc.FreePage(page); err != nil {
		panic(fmt.Sprintf("pm: freeing object page %#x: %v", page, err))
	}
	m.CreditPages(cntr, 1)
}

// NewProcess creates a process in cntr as a child of parentProc
// (parentProc may be 0 for a container's first process). The process's
// page-table root node is charged to the container too.
func (m *ProcessManager) NewProcess(cntr, parentProc Ptr) (Ptr, error) {
	c := m.Cntr(cntr)
	// One page for the process object, one for the PML4.
	if err := m.ChargePages(cntr, 2); err != nil {
		return 0, err
	}
	page, err := m.alloc.AllocPage4K(mem.OwnerProcessMgr)
	if err != nil {
		m.CreditPages(cntr, 2)
		return 0, err
	}
	table, err := pt.New(m.alloc, m.clock)
	if err != nil {
		m.freeObjectPageNoCredit(page)
		m.CreditPages(cntr, 2)
		return 0, err
	}
	p := &Process{Ptr: page, Owner: cntr, Parent: parentProc, PageTable: table}
	m.ProcPerms[page] = p
	c.Procs[page] = struct{}{}
	if parentProc != 0 {
		pp := m.Proc(parentProc)
		pp.Children = append(pp.Children, page)
	}
	return page, nil
}

func (m *ProcessManager) freeObjectPageNoCredit(page Ptr) {
	if err := m.alloc.FreePage(page); err != nil {
		panic(err)
	}
}

// NewThread creates a thread in proc affine to core. The core must be in
// the owning container's reservation; if it is not, NewThread returns
// ErrBadCPU, unwrapped.
func (m *ProcessManager) NewThread(proc Ptr, core int) (Ptr, error) {
	p := m.Proc(proc)
	c := m.Cntr(p.Owner)
	if !c.Reserves(core) {
		return 0, ErrBadCPU
	}
	page, err := m.allocObjectPage(p.Owner)
	if err != nil {
		return 0, err
	}
	t := &Thread{Ptr: page, OwningProc: proc, OwningCntr: p.Owner, State: ThreadRunnable, Core: core}
	t.IPC.RecvEdptSlot = -1
	m.ThrdPerms[page] = t
	p.Threads = append(p.Threads, page)
	c.OwnedThreads[page] = struct{}{}
	m.sched.enqueue(t)
	return page, nil
}

// NewEndpoint creates an endpoint charged to cntr with an initial
// reference count of refs (one per descriptor slot the caller will
// install).
func (m *ProcessManager) NewEndpoint(cntr Ptr, refs int) (Ptr, error) {
	page, err := m.allocObjectPage(cntr)
	if err != nil {
		return 0, err
	}
	e := &Endpoint{Ptr: page, RefCount: refs, OwnerCntr: cntr}
	m.EdptPerms[page] = e
	return page, nil
}

// EndpointIncRef adds descriptor references to an endpoint.
func (m *ProcessManager) EndpointIncRef(edpt Ptr, n int) {
	m.Edpt(edpt).RefCount += n
}

// EndpointDecRef drops a descriptor reference; at zero the endpoint is
// destroyed and its page returned to its owner's quota. The endpoint
// queue must be empty at zero (blocked threads each hold a descriptor
// reference, so this holds by construction).
func (m *ProcessManager) EndpointDecRef(edpt Ptr) error {
	e := m.Edpt(edpt)
	e.RefCount--
	if e.RefCount > 0 {
		return nil
	}
	if len(e.Queue) != 0 {
		return fmt.Errorf("%w: endpoint %#x freed with %d queued threads", ErrBusy, edpt, len(e.Queue))
	}
	if m.OnEndpointFree != nil {
		m.OnEndpointFree(e)
	}
	delete(m.EdptPerms, edpt)
	m.freeObjectPage(e.OwnerCntr, edpt)
	return nil
}

// FreeThread removes an exited thread: descriptor references are dropped,
// the thread leaves its process, container, and scheduler, and its page
// returns to the container.
func (m *ProcessManager) FreeThread(thrd Ptr) error {
	t := m.Thrd(thrd)
	p := m.Proc(t.OwningProc)
	c := m.Cntr(t.OwningCntr)
	m.sched.remove(t)
	for i, e := range t.Endpoints {
		if e != NoEndpoint {
			t.Endpoints[i] = NoEndpoint
			if err := m.EndpointDecRef(e); err != nil {
				return err
			}
		}
	}
	p.Threads = removePtr(p.Threads, thrd)
	delete(c.OwnedThreads, thrd)
	delete(m.ThrdPerms, thrd)
	m.freeObjectPage(t.OwningCntr, thrd)
	return nil
}

// FreeProcess removes a process with no threads and no children. Its
// address space must already be empty; the page table is destroyed here
// and its node pages credited back.
func (m *ProcessManager) FreeProcess(proc Ptr) error {
	p := m.Proc(proc)
	if len(p.Threads) != 0 || len(p.Children) != 0 {
		return fmt.Errorf("%w: process %#x has %d threads, %d children",
			ErrBusy, proc, len(p.Threads), len(p.Children))
	}
	c := m.Cntr(p.Owner)
	nodes := p.PageTable.NodeCount()
	if err := p.PageTable.Destroy(); err != nil {
		return err
	}
	m.CreditPages(p.Owner, uint64(nodes))
	if p.Parent != 0 {
		if pp, ok := m.TryProc(p.Parent); ok {
			pp.Children = removePtr(pp.Children, proc)
		}
	}
	delete(c.Procs, proc)
	delete(m.ProcPerms, proc)
	m.freeObjectPage(p.Owner, proc)
	return nil
}

func removePtr(s []Ptr, p Ptr) []Ptr {
	for i, v := range s {
		if v == p {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}
