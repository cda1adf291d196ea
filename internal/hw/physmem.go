package hw

import (
	"encoding/binary"
	"fmt"
)

// PhysMem is the simulated physical memory of the machine: a contiguous
// range of 4 KiB frames starting at physical address 0. Page tables are
// stored inside PhysMem and walked by the software MMU, and the simulated
// NIC and NVMe devices DMA directly into it, so the kernel's pointer
// arithmetic is exercised for real rather than mocked.
type PhysMem struct {
	data   []byte
	frames int
}

// NewPhysMem creates a simulated physical memory with the given number of
// 4 KiB frames. It panics if frames is not positive.
func NewPhysMem(frames int) *PhysMem {
	if frames <= 0 {
		panic("hw: PhysMem needs at least one frame")
	}
	return &PhysMem{data: make([]byte, frames*PageSize4K), frames: frames}
}

// Frames returns the number of 4 KiB frames.
func (m *PhysMem) Frames() int { return m.frames }

// Size returns the total size in bytes.
func (m *PhysMem) Size() uint64 { return uint64(len(m.data)) }

// Contains reports whether [addr, addr+n) lies inside physical memory.
func (m *PhysMem) Contains(addr PhysAddr, n uint64) bool {
	a := uint64(addr)
	return a < m.Size() && n <= m.Size()-a
}

func (m *PhysMem) check(addr PhysAddr, n uint64) {
	if !m.Contains(addr, n) {
		panic(fmt.Sprintf("hw: physical access [%#x,+%d) out of range %#x", addr, n, m.Size()))
	}
}

// ReadU64 reads a little-endian 64-bit word at addr.
func (m *PhysMem) ReadU64(addr PhysAddr) uint64 {
	m.check(addr, 8)
	return binary.LittleEndian.Uint64(m.data[addr:])
}

// WriteU64 writes a little-endian 64-bit word at addr.
func (m *PhysMem) WriteU64(addr PhysAddr, v uint64) {
	m.check(addr, 8)
	binary.LittleEndian.PutUint64(m.data[addr:], v)
}

// Read copies n bytes starting at addr into a fresh slice.
func (m *PhysMem) Read(addr PhysAddr, n uint64) []byte {
	m.check(addr, n)
	out := make([]byte, n)
	copy(out, m.data[addr:uint64(addr)+n])
	return out
}

// Write copies src into physical memory at addr.
func (m *PhysMem) Write(addr PhysAddr, src []byte) {
	m.check(addr, uint64(len(src)))
	copy(m.data[addr:], src)
}

// Slice returns a live view of [addr, addr+n). Devices use it for DMA; the
// kernel proper never holds live views across syscalls.
func (m *PhysMem) Slice(addr PhysAddr, n uint64) []byte {
	m.check(addr, n)
	return m.data[addr : uint64(addr)+n : uint64(addr)+n]
}

// ZeroPage clears the 4 KiB frame at addr, which must be frame-aligned.
func (m *PhysMem) ZeroPage(addr PhysAddr) {
	if !Aligned4K(uint64(addr)) {
		panic(fmt.Sprintf("hw: ZeroPage of unaligned address %#x", addr))
	}
	m.check(addr, PageSize4K)
	b := m.data[addr : uint64(addr)+PageSize4K]
	for i := range b {
		b[i] = 0
	}
}

// FrameAddr returns the physical address of frame index i.
func (m *PhysMem) FrameAddr(i int) PhysAddr {
	if i < 0 || i >= m.frames {
		panic(fmt.Sprintf("hw: frame index %d out of range %d", i, m.frames))
	}
	return PhysAddr(uint64(i) * PageSize4K)
}

// FrameIndex returns the frame index containing addr.
func (m *PhysMem) FrameIndex(addr PhysAddr) int {
	m.check(addr, 1)
	return int(uint64(addr) / PageSize4K)
}
