// Package pm implements Atmosphere's process manager: the subsystem that
// owns containers, processes, threads, endpoints, and the scheduler
// (§3, §4.1).
//
// The package is the reference implementation of the paper's two central
// design choices:
//
//   - Pointer-centric layout. Kernel objects live one-per-4KiB-page and
//     refer to each other by raw page address (Ptr), exactly as an unsafe
//     C kernel would — children lists, parent back pointers, queue links
//     are all Ptr values.
//
//   - Flat permission storage (Listing 2). The authority to dereference
//     any object pointer is held in flat maps at the top of the
//     ProcessManager (CntrPerms, ProcPerms, ThrdPerms, EdptPerms), never
//     inside the objects themselves. Dereference goes through these maps
//     and fails loudly for a dangling pointer — the executable analogue
//     of Verus rejecting an access without a tracked PointsTo permission.
//
// Structural ghost state (each container's Path and Subtree) is maintained
// eagerly on every tree mutation, and internal/verify checks the
// non-recursive global invariants of §4.1 against it.
package pm

import (
	"atmosphere/internal/hw"
	"atmosphere/internal/iommu"
	"atmosphere/internal/pt"
)

// Ptr is a kernel object pointer: the physical address of the 4 KiB page
// backing the object. The null pointer 0 is never a valid object.
type Ptr = hw.PhysAddr

// MaxEndpoints is the size of each thread's endpoint descriptor table.
const MaxEndpoints = 16

// NoEndpoint marks an empty endpoint descriptor slot.
const NoEndpoint Ptr = 0

// ThreadState enumerates thread lifecycle states.
type ThreadState uint8

// Thread states.
const (
	ThreadRunnable ThreadState = iota
	ThreadRunning
	ThreadBlockedSend // queued on an endpoint waiting for a receiver
	ThreadBlockedRecv // queued on an endpoint waiting for a sender
	ThreadExited
)

// String implements fmt.Stringer.
func (s ThreadState) String() string {
	switch s {
	case ThreadRunnable:
		return "runnable"
	case ThreadRunning:
		return "running"
	case ThreadBlockedSend:
		return "blocked-send"
	case ThreadBlockedRecv:
		return "blocked-recv"
	case ThreadExited:
		return "exited"
	}
	return "invalid"
}

// Container is a group of processes with a guaranteed memory quota and
// CPU reservation (§3). Containers form a single tree rooted at the
// process manager's RootContainer.
type Container struct {
	Ptr    Ptr
	Parent Ptr // 0 for the root container

	// Children holds direct children in creation order (the paper's
	// StaticList<CtnrPtr>).
	Children []Ptr

	// Depth is the distance from the root (root = 0).
	Depth int

	// Path is ghost state: the container pointers from the root down to
	// this container's parent, in order (Listing 2). len(Path) == Depth.
	Path []Ptr

	// Subtree is ghost state: every container reachable below this one
	// (not including itself).
	Subtree map[Ptr]struct{}

	// QuotaPages is the container's memory reservation in 4 KiB pages;
	// UsedPages counts every page charged to it: user mappings, kernel
	// object pages, page-table nodes, and the quotas carved out for
	// child containers.
	QuotaPages uint64
	UsedPages  uint64

	// CPUs is the set of cores the container's threads may run on.
	CPUs []int

	// Procs holds every process directly inside this container.
	Procs map[Ptr]struct{}

	// OwnedThreads is ghost state: every thread whose process is in this
	// container (the owned_thrds of §4.3).
	OwnedThreads map[Ptr]struct{}
}

// Reserves reports whether core is in c's CPU reservation.
func (c *Container) Reserves(core int) bool {
	for _, cpu := range c.CPUs {
		if cpu == core {
			return true
		}
	}
	return false
}

// InSubtree reports whether c's subtree (not including c) contains p.
func (c *Container) InSubtree(p Ptr) bool {
	_, ok := c.Subtree[p]
	return ok
}

// Process is one address space plus a group of threads inside a
// container. Processes form a per-container tree for parent-child
// termination rights (§3).
type Process struct {
	Ptr       Ptr
	Owner     Ptr // owning container
	Parent    Ptr // parent process; 0 for a container's first process
	Children  []Ptr
	Threads   []Ptr
	PageTable *pt.PageTable

	// IOMMUDomain is the process's DMA domain, 0 if none.
	IOMMUDomain iommu.DomainID
}

// Thread is one execution context.
type Thread struct {
	Ptr        Ptr
	OwningProc Ptr
	// OwningCntr is ghost state denormalizing the thread's container for
	// the flat non-interference specs (§4.3).
	OwningCntr Ptr

	State ThreadState
	// Core is the core the thread is affine to.
	Core int

	// Endpoints is the thread's endpoint descriptor table; entries hold
	// endpoint object pointers or NoEndpoint.
	Endpoints [MaxEndpoints]Ptr

	// IPC rendezvous state while blocked (see kernel package).
	IPC IPCState

	// ReadyAt is observability-only state: the manager clock reading at
	// which the thread last became runnable, stamped only while a
	// SchedObserver is attached (zero otherwise, and reset once the
	// ready→running delay is reported). Never read by kernel logic.
	ReadyAt uint64
}

// IPCState carries a blocked thread's pending transfer.
type IPCState struct {
	// Msg is the message a blocked sender is waiting to deliver, or the
	// message delivered to a woken receiver.
	Msg Msg
	// RecvVA is where a blocked receiver wants an incoming page mapped.
	RecvVA hw.VirtAddr
	// RecvEdptSlot is where a blocked receiver wants an incoming
	// endpoint descriptor installed (-1: any free slot).
	RecvEdptSlot int
	// Err is the status delivered when the thread is woken.
	Err error
	// WaitingOn is the endpoint the thread is queued on while blocked
	// (0 otherwise).
	WaitingOn Ptr
}

// Msg is an IPC message: scalar registers plus optional capabilities —
// a page reference, an endpoint reference, and an IOMMU identifier (§3).
type Msg struct {
	Regs [4]uint64

	// HasPage indicates a page transfer; Page is the physical page
	// (resolved from the sender's address space by the kernel).
	HasPage bool
	Page    hw.PhysAddr
	// PageSize is the granularity of the transferred page.
	PageSize hw.PageSize
	// PagePerm is the permission the receiver's mapping gets.
	PagePerm pt.Perm

	// HasEndpoint indicates an endpoint transfer; Endpoint is the
	// endpoint object pointer.
	HasEndpoint bool
	Endpoint    Ptr

	// IOMMUDomain passes a DMA domain identifier (0 = none).
	IOMMUDomain iommu.DomainID
}

// Endpoint is an IPC rendezvous object. Threads block on it in Queue;
// QueuedRecv says which direction the queued threads are waiting in
// (an endpoint queue is always homogeneous: all senders or all
// receivers).
type Endpoint struct {
	Ptr        Ptr
	Queue      []Ptr
	QueuedRecv bool
	// RefCount counts descriptor-table slots across all threads that
	// reference this endpoint; the endpoint dies when it reaches zero.
	RefCount int
	// OwnerCntr is the container charged for the endpoint's page.
	OwnerCntr Ptr

	// Buffer holds asynchronously sent messages (send_async) awaiting a
	// receiver: bounded by MaxEndpointBuffer, drained by receives ahead
	// of the blocked-sender queue, FIFO.
	Buffer []Msg
}

// MaxEndpointBuffer bounds an endpoint's asynchronous message buffer;
// send_async returns EAGAIN when it is full.
const MaxEndpointBuffer = 64
