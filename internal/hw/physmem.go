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
//
// RAM is sparse: a frame with no backing reads as zero and gets its
// 4 KiB of host memory on its first non-zero write, so a machine's host
// footprint scales with what it writes rather than with its configured
// RAM. The frame index itself covers only a prefix of the frames, which
// grows in whole 2 MiB chunks on a frame's first backing. Reads and
// writes of zeros never create backing, and a backed frame keeps it for
// the machine's lifetime. Read, Write, ReadU64 and WriteU64 copy across
// frame boundaries; a Slice view lies inside one frame.
type PhysMem struct {
	frames []*[PageSize4K]byte // the indexed prefix; nil for no backing
	n      int                 // configured frames
}

// indexChunk is the frame index's growth unit: one 2 MiB run.
const indexChunk = Pages4KPer2M

// NewPhysMem creates a simulated physical memory with the given number of
// 4 KiB frames. It panics if frames is not positive.
func NewPhysMem(frames int) *PhysMem {
	if frames <= 0 {
		panic("hw: PhysMem needs at least one frame")
	}
	return &PhysMem{n: frames}
}

// Frames returns the number of 4 KiB frames.
func (m *PhysMem) Frames() int { return m.n }

// Size returns the total size in bytes.
func (m *PhysMem) Size() uint64 { return uint64(m.n) * PageSize4K }

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

// split returns the index of the frame holding addr and addr's offset
// inside it.
func split(addr PhysAddr) (int, uint64) {
	return int(uint64(addr) / PageSize4K), uint64(addr) % PageSize4K
}

// frame returns frame i's backing, or nil if it has none.
func (m *PhysMem) frame(i int) *[PageSize4K]byte {
	if i < len(m.frames) {
		return m.frames[i]
	}
	return nil
}

// back returns frame i's backing, allocating it first if it has none.
func (m *PhysMem) back(i int) *[PageSize4K]byte {
	if i >= len(m.frames) {
		n := min((i/indexChunk+1)*indexChunk, m.n)
		m.frames = append(m.frames, make([]*[PageSize4K]byte, n-len(m.frames))...)
	}
	if m.frames[i] == nil {
		m.frames[i] = new([PageSize4K]byte)
	}
	return m.frames[i]
}

// allZero reports whether b holds only zeros.
func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// ReadU64 reads a little-endian 64-bit word at addr.
func (m *PhysMem) ReadU64(addr PhysAddr) uint64 {
	m.check(addr, 8)
	i, off := split(addr)
	if off > PageSize4K-8 { // the word straddles two frames
		return binary.LittleEndian.Uint64(m.Read(addr, 8))
	}
	if f := m.frame(i); f != nil {
		return binary.LittleEndian.Uint64(f[off:])
	}
	return 0
}

// WriteU64 writes a little-endian 64-bit word at addr.
func (m *PhysMem) WriteU64(addr PhysAddr, v uint64) {
	m.check(addr, 8)
	i, off := split(addr)
	if off > PageSize4K-8 { // the word straddles two frames
		m.Write(addr, binary.LittleEndian.AppendUint64(nil, v))
		return
	}
	if v != 0 || m.frame(i) != nil {
		binary.LittleEndian.PutUint64(m.back(i)[off:], v)
	}
}

// Read copies n bytes starting at addr into a fresh slice.
func (m *PhysMem) Read(addr PhysAddr, n uint64) []byte {
	m.check(addr, n)
	out := make([]byte, n)
	for dst := out; len(dst) > 0; {
		i, off := split(addr)
		c := min(uint64(len(dst)), PageSize4K-off)
		if f := m.frame(i); f != nil { // an unbacked frame reads as zero
			copy(dst[:c], f[off:])
		}
		dst, addr = dst[c:], addr+PhysAddr(c)
	}
	return out
}

// Write copies src into physical memory at addr, frame by frame. Zeros
// bound for an unbacked frame are already in place, so that chunk backs
// nothing.
func (m *PhysMem) Write(addr PhysAddr, src []byte) {
	m.check(addr, uint64(len(src)))
	for len(src) > 0 {
		i, off := split(addr)
		c := min(uint64(len(src)), PageSize4K-off)
		if m.frame(i) != nil || !allZero(src[:c]) {
			copy(m.back(i)[off:], src[:c])
		}
		src, addr = src[c:], addr+PhysAddr(c)
	}
}

// Slice returns a live view of [addr, addr+n), which must lie inside one
// frame; the frame gets backing if it has none. Devices use it for DMA;
// the kernel proper never holds live views across syscalls.
func (m *PhysMem) Slice(addr PhysAddr, n uint64) []byte {
	m.check(addr, n)
	i, off := split(addr)
	if n > PageSize4K-off {
		panic(fmt.Sprintf("hw: Slice [%#x,+%d) crosses a frame boundary", addr, n))
	}
	return m.back(i)[off : off+n : off+n]
}

// ZeroPage clears the 4 KiB frame at addr, which must be frame-aligned.
// A backed frame is cleared in place and keeps its backing, so live
// Slice views of it stay valid.
func (m *PhysMem) ZeroPage(addr PhysAddr) {
	if !Aligned4K(uint64(addr)) {
		panic(fmt.Sprintf("hw: ZeroPage of unaligned address %#x", addr))
	}
	m.check(addr, PageSize4K)
	if f := m.frame(int(uint64(addr) / PageSize4K)); f != nil {
		clear(f[:])
	}
}

// FrameAddr returns the physical address of frame index i.
func (m *PhysMem) FrameAddr(i int) PhysAddr {
	if i < 0 || i >= m.n {
		panic(fmt.Sprintf("hw: frame index %d out of range %d", i, m.n))
	}
	return PhysAddr(uint64(i) * PageSize4K)
}

// FrameIndex returns the frame index containing addr.
func (m *PhysMem) FrameIndex(addr PhysAddr) int {
	m.check(addr, 1)
	return int(uint64(addr) / PageSize4K)
}
