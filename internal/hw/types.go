// Package hw simulates the hardware substrate Atmosphere runs on: physical
// memory, a software MMU that walks page tables stored in that memory, a
// TLB, simulated CPU cores, and a deterministic cycle cost model calibrated
// to the paper's CloudLab c220g5 testbed (2× Xeon Silver 4114, 2.20 GHz).
//
// Everything in this package is deterministic: time is an explicit cycle
// counter and randomness flows from a seeded generator, so every benchmark
// in the repository reproduces bit-for-bit.
package hw

// PhysAddr is a physical memory address in the simulated machine.
type PhysAddr uint64

// VirtAddr is a virtual address translated by the simulated MMU.
type VirtAddr uint64

// Page size constants. Atmosphere allocates kernel objects at 4 KiB
// granularity and supports 2 MiB and 1 GiB superpages (§4.2).
const (
	PageSize4K = 1 << 12
	PageSize2M = 1 << 21
	PageSize1G = 1 << 30

	// EntriesPerTable is the number of entries in one page-table node on
	// x86-64 (512 8-byte entries per 4 KiB table).
	EntriesPerTable = 512

	// PtrSize is the size of a page-table entry in bytes.
	PtrSize = 8
)

// Pages4KPer2M and Pages4KPer1G give superpage composition counts.
const (
	Pages4KPer2M = PageSize2M / PageSize4K // 512
	Pages4KPer1G = PageSize1G / PageSize4K // 262144
	Pages2MPer1G = PageSize1G / PageSize2M // 512
)

// PageSize enumerates the supported mapping granularities. It is one
// byte so that it packs into the page metadata array (mem.PageMeta)
// without padding; kernel.validSize rejects any other value at the
// syscall boundary.
type PageSize uint8

// Supported page sizes.
const (
	Size4K PageSize = iota
	Size2M
	Size1G
)

// Bytes returns the page size in bytes.
func (s PageSize) Bytes() uint64 {
	switch s {
	case Size4K:
		return PageSize4K
	case Size2M:
		return PageSize2M
	case Size1G:
		return PageSize1G
	}
	return 0
}

// String implements fmt.Stringer.
func (s PageSize) String() string {
	switch s {
	case Size4K:
		return "4KiB"
	case Size2M:
		return "2MiB"
	case Size1G:
		return "1GiB"
	}
	return "invalid"
}

// Page-table entry bits, x86-64 layout.
const (
	PtePresent  uint64 = 1 << 0
	PteWritable uint64 = 1 << 1
	PteUser     uint64 = 1 << 2
	PteHuge     uint64 = 1 << 7 // PS bit: terminal 2M/1G mapping
	PteNX       uint64 = 1 << 63

	// PteAddrMask extracts the physical frame address from an entry.
	PteAddrMask uint64 = 0x000f_ffff_ffff_f000
)

// Virtual address index extraction for the 4-level radix walk.
const (
	l4Shift = 39
	l3Shift = 30
	l2Shift = 21
	l1Shift = 12
	idxMask = 0x1ff
)

// L4Index returns the PML4 index of va.
func L4Index(va VirtAddr) int { return int(uint64(va)>>l4Shift) & idxMask }

// L3Index returns the PDPT index of va.
func L3Index(va VirtAddr) int { return int(uint64(va)>>l3Shift) & idxMask }

// L2Index returns the PD index of va.
func L2Index(va VirtAddr) int { return int(uint64(va)>>l2Shift) & idxMask }

// L1Index returns the PT index of va.
func L1Index(va VirtAddr) int { return int(uint64(va)>>l1Shift) & idxMask }

// VAFromIndices reconstructs a canonical virtual address from radix indices.
func VAFromIndices(l4, l3, l2, l1 int) VirtAddr {
	va := uint64(l4)<<l4Shift | uint64(l3)<<l3Shift | uint64(l2)<<l2Shift | uint64(l1)<<l1Shift
	// Sign-extend bit 47 to form a canonical address.
	if va&(1<<47) != 0 {
		va |= 0xffff_0000_0000_0000
	}
	return VirtAddr(va)
}

// Aligned4K reports whether a is 4 KiB aligned.
func Aligned4K(a uint64) bool { return a&(PageSize4K-1) == 0 }

// Aligned2M reports whether a is 2 MiB aligned.
func Aligned2M(a uint64) bool { return a&(PageSize2M-1) == 0 }

// Aligned1G reports whether a is 1 GiB aligned.
func Aligned1G(a uint64) bool { return a&(PageSize1G-1) == 0 }
