package mem

import "atmosphere/internal/hw"

// PageState is the lifecycle state of a physical page (§4.2): every page
// is free (on a free list), mapped (in one or more address spaces),
// merged (a constituent of a 2 MiB or 1 GiB superpage), or allocated
// (backing a kernel data structure such as a process or a page table).
type PageState uint8

// Page lifecycle states.
const (
	// StateFree: on the free list of its size class.
	StateFree PageState = iota
	// StateMapped: mapped by one or more processes (RefCount tracks the
	// number of mappings; shared memory raises it above 1).
	StateMapped
	// StateMerged: a non-head constituent of a superpage; Head points to
	// the superpage's first page, which carries the real state.
	StateMerged
	// StateAllocated: backing a kernel object or page-table node; Owner
	// names the owning subsystem for closure checks.
	StateAllocated
)

// String implements fmt.Stringer.
func (s PageState) String() string {
	switch s {
	case StateFree:
		return "free"
	case StateMapped:
		return "mapped"
	case StateMerged:
		return "merged"
	case StateAllocated:
		return "allocated"
	}
	return "invalid"
}

// Owner identifies the subsystem a page is allocated to. The verifier
// uses owners to compute per-subsystem page closures without walking the
// object graph (the hierarchical closure argument of §4.2).
type Owner uint8

// Page owners.
const (
	OwnerNone Owner = iota
	OwnerBoot
	OwnerProcessMgr // containers, processes, threads, endpoints
	OwnerPageTable  // page-table nodes
	OwnerIOMMU      // IOMMU context and translation tables
	OwnerUser       // user-mapped frames (state mapped, not allocated)
	OwnerPCache     // frames parked in a per-core page-frame cache
)

// String implements fmt.Stringer.
func (o Owner) String() string {
	switch o {
	case OwnerNone:
		return "none"
	case OwnerBoot:
		return "boot"
	case OwnerProcessMgr:
		return "process-manager"
	case OwnerPageTable:
		return "page-table"
	case OwnerIOMMU:
		return "iommu"
	case OwnerUser:
		return "user"
	case OwnerPCache:
		return "page-cache"
	}
	return "invalid"
}

// nilIdx marks an empty link in the intrusive free lists.
const nilIdx = int32(-1)

// PageMeta is one entry of the page metadata array — the Linux-style
// struct-page array the paper describes. The Prev/Next links make the
// page a node of its free list; keeping the node inside the metadata is
// what gives the allocator constant-time removal when a scanned page is
// merged into a superpage (§4.2). The three one-byte fields and four
// 32-bit ones pack into 20 bytes per frame with no padding.
type PageMeta struct {
	State PageState
	Size  SizeClass
	Owner Owner
	// RefCount counts address-space mappings while State == StateMapped.
	RefCount uint32
	// Head is the frame index of the superpage head while merged.
	Head int32
	// Prev and Next link the page into its size class's free list while
	// free; nilIdx otherwise.
	Prev, Next int32
}

// SizeClass distinguishes the three allocation granularities.
type SizeClass = hw.PageSize

// Re-exported size classes for readability at call sites.
const (
	Size4K = hw.Size4K
	Size2M = hw.Size2M
	Size1G = hw.Size1G
)
