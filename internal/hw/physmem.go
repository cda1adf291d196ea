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
// RAM is sparse and backed in 256-byte blocks, sixteen to a frame: a
// block with no backing reads as zero and gets its host memory on its
// first non-zero write, so a machine's host footprint scales with what it
// writes rather than with its configured RAM, and a page-table node that
// holds a few entries, or a user page touched in one word, costs one
// block and its frame's table (400 bytes) rather than a frame. The frame
// index covers only a prefix of the frames, which grows PrefixStep frames
// at a time on a frame's first backing; each entry points at the frame's
// table of sixteen block pointers. Reads and writes of zeros never create
// backing, and a backed block keeps it for the machine's lifetime. Read,
// Write, ReadU64 and WriteU64 copy across block and frame boundaries. A
// Slice view lies inside one frame, and Slice makes that frame contiguous
// once (see dense).
type PhysMem struct {
	frames []*blockTable // the indexed prefix; nil for a frame with no backing
	n      int           // configured frames
}

const (
	// blockSize is the unit of backing. At 256 bytes a frame's block
	// table (sixteen block pointers and the dense pointer) fills a
	// 144-byte size class, so a frame written in one line costs 400
	// bytes, the least of any block size: the table grows as the block
	// shrinks (128-byte blocks cost 416, 512-byte blocks 592). A frame
	// written whole costs 4,240.
	blockSize = 256
	// blocksPerFrame is the number of blocks in one 4 KiB frame.
	blocksPerFrame = PageSize4K / blockSize
)

// PrefixStep is the growth unit of a touched prefix: PhysMem's frame
// index and mem.Allocator's page metadata cover only the frames a run
// has reached, and extend over a new frame in steps of this many frames,
// one word of a mem.PageSet bitmap.
const PrefixStep = 64

// block is one 256-byte unit of backing.
type block = [blockSize]byte

// blockTable is one frame's backing: a pointer per block, nil for a block
// that reads as zero. Once Slice has made the frame dense, all sixteen
// pointers aim into dense, in order.
type blockTable struct {
	blocks [blocksPerFrame]*block
	dense  *[PageSize4K]byte
}

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

// checkFrame checks that addr is a frame-aligned address inside physical
// memory, naming op in the panic if it is not, and returns its frame
// index.
func (m *PhysMem) checkFrame(op string, addr PhysAddr) int {
	if !Aligned4K(uint64(addr)) {
		panic(fmt.Sprintf("hw: %s of unaligned address %#x", op, addr))
	}
	m.check(addr, PageSize4K)
	return int(uint64(addr) / PageSize4K)
}

// split returns the index of the frame holding addr and addr's offset
// inside it.
func split(addr PhysAddr) (int, uint64) {
	return int(uint64(addr) / PageSize4K), uint64(addr) % PageSize4K
}

// tableAt returns frame i's block table, or nil if it has no backing.
func (m *PhysMem) tableAt(i int) *blockTable {
	if i < len(m.frames) {
		return m.frames[i]
	}
	return nil
}

// blockAt returns the block holding offset off of frame i, or nil if it
// has no backing.
func (m *PhysMem) blockAt(i int, off uint64) *block {
	if t := m.tableAt(i); t != nil {
		return t.blocks[off/blockSize]
	}
	return nil
}

// backTable returns frame i's block table, growing the index over it and
// allocating the table first if need be.
func (m *PhysMem) backTable(i int) *blockTable {
	if i >= len(m.frames) {
		n := min((i/PrefixStep+1)*PrefixStep, m.n)
		m.frames = append(m.frames, make([]*blockTable, n-len(m.frames))...)
	}
	if m.frames[i] == nil {
		m.frames[i] = new(blockTable)
	}
	return m.frames[i]
}

// backBlock returns the block holding offset off of frame i, allocating
// it first if it has no backing.
func (m *PhysMem) backBlock(i int, off uint64) *block {
	b := &m.backTable(i).blocks[off/blockSize]
	if *b == nil {
		*b = new(block)
	}
	return *b
}

// dense returns frame i as one contiguous 4 KiB array. The first call for
// a frame allocates the array, copies the frame's backed blocks into it
// and re-aims all sixteen block pointers into it, so reads and writes
// through the blocks and every Slice view see the same bytes from then
// on.
func (m *PhysMem) dense(i int) *[PageSize4K]byte {
	t := m.backTable(i)
	if t.dense == nil {
		d := new([PageSize4K]byte)
		for j, b := range t.blocks {
			if b != nil {
				copy(d[j*blockSize:], b[:])
			}
			t.blocks[j] = (*block)(d[j*blockSize:])
		}
		t.dense = d
	}
	return t.dense
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

// straddles reports whether the word at addr crosses a block boundary,
// and with it every frame boundary.
func straddles(addr PhysAddr) bool { return uint64(addr)%blockSize > blockSize-8 }

// ReadU64 reads a little-endian 64-bit word at addr.
func (m *PhysMem) ReadU64(addr PhysAddr) uint64 {
	m.check(addr, 8)
	if straddles(addr) {
		return binary.LittleEndian.Uint64(m.Read(addr, 8))
	}
	i, off := split(addr)
	if b := m.blockAt(i, off); b != nil {
		return binary.LittleEndian.Uint64(b[off%blockSize:])
	}
	return 0
}

// WriteU64 writes a little-endian 64-bit word at addr.
func (m *PhysMem) WriteU64(addr PhysAddr, v uint64) {
	m.check(addr, 8)
	if straddles(addr) {
		m.Write(addr, binary.LittleEndian.AppendUint64(nil, v))
		return
	}
	i, off := split(addr)
	b := m.blockAt(i, off)
	if b == nil {
		if v == 0 {
			return // an unbacked block already reads as zero
		}
		b = m.backBlock(i, off)
	}
	binary.LittleEndian.PutUint64(b[off%blockSize:], v)
}

// Read copies n bytes starting at addr into a fresh slice.
func (m *PhysMem) Read(addr PhysAddr, n uint64) []byte {
	m.check(addr, n)
	out := make([]byte, n)
	for dst := out; len(dst) > 0; {
		i, off := split(addr)
		c := min(uint64(len(dst)), blockSize-off%blockSize)
		if b := m.blockAt(i, off); b != nil { // an unbacked block reads as zero
			copy(dst[:c], b[off%blockSize:])
		}
		dst, addr = dst[c:], addr+PhysAddr(c)
	}
	return out
}

// Write copies src into physical memory at addr, block by block. Zeros
// bound for an unbacked block are already in place, so that chunk backs
// nothing.
func (m *PhysMem) Write(addr PhysAddr, src []byte) {
	m.check(addr, uint64(len(src)))
	for len(src) > 0 {
		i, off := split(addr)
		c := min(uint64(len(src)), blockSize-off%blockSize)
		b := m.blockAt(i, off)
		if b == nil && !allZero(src[:c]) {
			b = m.backBlock(i, off)
		}
		if b != nil {
			copy(b[off%blockSize:], src[:c])
		}
		src, addr = src[c:], addr+PhysAddr(c)
	}
}

// Slice returns a live view of [addr, addr+n), which must lie inside one
// frame; the frame is made dense first (see dense). Devices use it for
// DMA; the kernel proper never holds live views across syscalls.
func (m *PhysMem) Slice(addr PhysAddr, n uint64) []byte {
	m.check(addr, n)
	i, off := split(addr)
	if n > PageSize4K-off {
		panic(fmt.Sprintf("hw: Slice [%#x,+%d) crosses a frame boundary", addr, n))
	}
	return m.dense(i)[off : off+n : off+n]
}

// ZeroPage clears the 4 KiB frame at addr, which must be frame-aligned.
// Backed blocks are cleared in place and keep their backing, so live
// Slice views of the frame stay valid.
func (m *PhysMem) ZeroPage(addr PhysAddr) {
	if t := m.tableAt(m.checkFrame("ZeroPage", addr)); t != nil {
		for _, b := range t.blocks {
			if b != nil {
				clear(b[:])
			}
		}
	}
}

// EachWord calls fn with the index and value of each non-zero aligned
// 64-bit word of the 4 KiB frame at addr, which must be frame-aligned, in
// ascending index order, and returns the first error fn returns. It
// checks the frame's bounds once and skips its unbacked blocks, so a
// page-table node holding a few entries costs a scan of the blocks they
// lie in. fn must not write the frame.
func (m *PhysMem) EachWord(addr PhysAddr, fn func(i int, w uint64) error) error {
	t := m.tableAt(m.checkFrame("EachWord", addr))
	if t == nil {
		return nil
	}
	for j, b := range t.blocks {
		if b == nil {
			continue
		}
		for k := 0; k < blockSize; k += 8 {
			if w := binary.LittleEndian.Uint64(b[k:]); w != 0 {
				if err := fn((j*blockSize+k)/8, w); err != nil {
					return err
				}
			}
		}
	}
	return nil
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
