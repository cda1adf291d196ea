package hw

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"
)

// densePhysMem drives a PhysMem and a plain byte slice of the same
// configured size through one op stream, and checks after every op that
// they hold the same bytes, through every read path and through every
// Slice view still held.
type densePhysMem struct {
	t     *testing.T
	m     *PhysMem
	ref   []byte
	views []denseView
}

// denseView is a Slice view and the range it covers.
type denseView struct {
	addr PhysAddr
	b    []byte
}

// denseFrames are the configured sizes the op stream picks from: one
// frame, a few, and one frame past the frame index's eighth step, so the
// last step is short.
var denseFrames = []int{1, 2, 3, 8, 8*PrefixStep + 1}

// maxViews bounds the Slice views held at once; older ones are dropped.
const maxViews = 6

// maxDenseOps bounds one op stream, so a long fuzz input stays quick.
const maxDenseOps = 1024

// opReader yields an op stream's bytes, then zeros.
type opReader []byte

func (r *opReader) byte() byte {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return b
}

func (r *opReader) u16() int { return int(r.byte())<<8 | int(r.byte()) }

// addr picks an address for an access of n bytes: a frame near the start
// or end of memory or at the index's first step boundary, and an offset
// that is random, word-aligned, or just short of a block or frame
// boundary, so words and ranges straddle both. It is pulled back to fit
// n.
func (d *densePhysMem) addr(r *opReader, n uint64) PhysAddr {
	frames := d.m.Frames()
	hot := [...]int{0, 1, 2, frames - 1, frames - 2, PrefixStep - 1, PrefixStep}
	f := hot[int(r.byte())%len(hot)]
	if f < 0 || f >= frames {
		f = 0
	}
	var off uint64
	switch r.byte() % 4 {
	case 0:
		off = uint64(r.u16()) % PageSize4K
	case 1:
		off = uint64(r.u16()%EntriesPerTable) * 8
	case 2:
		off = uint64(1+int(r.byte())%blocksPerFrame)*blockSize - 8 + uint64(r.byte()%16)
	case 3:
		off = PageSize4K - 16 + uint64(r.byte()%16)
	}
	a := uint64(f)*PageSize4K + off
	if size := d.m.Size(); a+n > size {
		a = size - n
	}
	return PhysAddr(a)
}

// fill returns n bytes of one of three kinds: all zero, all non-zero, or
// mixed with runs of zeros.
func fill(r *opReader, n uint64) []byte {
	b := make([]byte, n)
	kind, seed := r.byte()%3, r.byte()
	for i := range b {
		switch kind {
		case 1:
			b[i] = byte(i)*31 + seed | 1
		case 2:
			if (i/37)%2 == 0 {
				b[i] = byte(i) ^ seed
			}
		}
	}
	return b
}

// step decodes and applies one op, then checks the two memories agree.
func (d *densePhysMem) step(r *opReader) {
	t := d.t
	switch r.byte() % 8 {
	case 0:
		a := d.addr(r, 8)
		if got, want := d.m.ReadU64(a), binary.LittleEndian.Uint64(d.ref[a:]); got != want {
			t.Fatalf("ReadU64(%#x) = %#x, reference %#x", a, got, want)
		}
	case 1:
		a := d.addr(r, 8)
		var v uint64
		if r.byte()%3 != 0 { // one write in three is of zero
			v = uint64(r.u16())<<40 | uint64(r.byte())
		}
		d.m.WriteU64(a, v)
		binary.LittleEndian.PutUint64(d.ref[a:], v)
	case 2:
		n := min(uint64(1+r.u16()%(2*PageSize4K)), d.m.Size())
		a := d.addr(r, n)
		if got := d.m.Read(a, n); !bytes.Equal(got, d.ref[a:uint64(a)+n]) {
			t.Fatalf("Read(%#x, %d) differs from the reference", a, n)
		}
	case 3:
		n := min(uint64(1+r.u16()%(2*PageSize4K)), d.m.Size())
		a := d.addr(r, n)
		src := fill(r, n)
		d.m.Write(a, src)
		copy(d.ref[a:], src)
	case 4:
		n := uint64(1 + r.u16()%PageSize4K)
		a := d.addr(r, n)
		if end := (uint64(a)/PageSize4K + 1) * PageSize4K; uint64(a)+n > end {
			n = end - uint64(a) // a view lies inside one frame
		}
		v := d.m.Slice(a, n)
		if !bytes.Equal(v, d.ref[a:uint64(a)+n]) {
			t.Fatalf("Slice(%#x, %d) differs from the reference", a, n)
		}
		if len(d.views) == maxViews {
			d.views = d.views[1:]
		}
		d.views = append(d.views, denseView{a, v})
	case 5:
		a := PhysAddr(uint64(d.addr(r, 1)) &^ (PageSize4K - 1))
		d.m.ZeroPage(a)
		clear(d.ref[a : a+PageSize4K])
	case 6: // a device writes through a held view
		if len(d.views) == 0 {
			return
		}
		v := d.views[int(r.byte())%len(d.views)]
		i, b := r.u16()%len(v.b), r.byte()
		v.b[i] = b
		d.ref[uint64(v.addr)+uint64(i)] = b
	case 7:
		d.checkFrame(d.addr(r, 1))
	}
	for _, v := range d.views {
		if !bytes.Equal(v.b, d.ref[v.addr:uint64(v.addr)+uint64(len(v.b))]) {
			t.Fatalf("Slice view [%#x,+%d) differs from the reference", v.addr, len(v.b))
		}
	}
}

// checkFrame checks the frame holding addr word by word: ReadU64 at each
// of its 512 indices matches the reference, and EachWord visits exactly
// the non-zero ones, in ascending order.
func (d *densePhysMem) checkFrame(addr PhysAddr) {
	t := d.t
	base := PhysAddr(uint64(addr) &^ (PageSize4K - 1))
	next := 0
	err := d.m.EachWord(base, func(i int, w uint64) error {
		for ; next < i; next++ {
			if v := d.m.ReadU64(base + PhysAddr(next*8)); v != 0 {
				t.Fatalf("EachWord(%#x) skipped word %d = %#x", base, next, v)
			}
		}
		if v := d.m.ReadU64(base + PhysAddr(i*8)); i != next || w == 0 || w != v {
			t.Fatalf("EachWord(%#x) visited word %d = %#x after %d; ReadU64 reads %#x", base, i, w, next, v)
		}
		next++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < EntriesPerTable; i++ {
		a := base + PhysAddr(i*8)
		got, want := d.m.ReadU64(a), binary.LittleEndian.Uint64(d.ref[a:])
		if got != want {
			t.Fatalf("ReadU64(%#x) = %#x, reference %#x", a, got, want)
		}
		if i >= next && got != 0 {
			t.Fatalf("EachWord(%#x) missed word %d = %#x", base, i, got)
		}
	}
}

// runDenseOps runs the op stream in data against a dense reference, then
// checks every frame with backing word by word.
func runDenseOps(t *testing.T, data []byte) {
	r := opReader(data)
	frames := denseFrames[int(r.byte())%len(denseFrames)]
	d := &densePhysMem{t: t, m: NewPhysMem(frames), ref: make([]byte, frames*PageSize4K)}
	for n := 0; len(r) > 0 && n < maxDenseOps; n++ {
		d.step(&r)
	}
	for i, tab := range d.m.frames {
		if tab != nil {
			d.checkFrame(d.m.FrameAddr(i))
		}
	}
	if !bytes.Equal(d.m.Read(0, d.m.Size()), d.ref) {
		t.Fatal("memory differs from the reference")
	}
}

// denseSeeds returns seeded op streams.
func denseSeeds(n, length int) [][]byte {
	out := make([][]byte, n)
	for s := range out {
		out[s] = make([]byte, length)
		NewRand(uint64(s) + 1).Bytes(out[s])
	}
	return out
}

func TestPhysMemMatchesDense(t *testing.T) {
	for _, data := range denseSeeds(64, 3000) {
		runDenseOps(t, data)
	}
}

func FuzzPhysMemDense(f *testing.F) {
	for _, data := range denseSeeds(8, 600) {
		f.Add(data)
	}
	f.Fuzz(runDenseOps)
}

func TestPhysMemEachWord(t *testing.T) {
	m := NewPhysMem(3)
	const f = PageSize4K
	if err := m.EachWord(f, func(int, uint64) error {
		t.Fatal("EachWord visited a word of an unbacked frame")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := map[int]uint64{0: 1, 63: 2, 64: 3, 300: 4, 511: 5}
	for i, w := range want {
		m.WriteU64(f+PhysAddr(i*8), w)
	}
	m.WriteU64(f+8, 0) // backed block, zero word: not visited
	m.WriteU64(2*f, 6) // the next frame: not visited
	var got []int
	if err := m.EachWord(f, func(i int, w uint64) error {
		if want[i] != w {
			t.Errorf("word %d = %#x, want %#x", i, w, want[i])
		}
		got = append(got, i)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 || got[0] != 0 || got[1] != 63 || got[2] != 64 || got[3] != 300 || got[4] != 511 {
		t.Fatalf("visited %v, want [0 63 64 300 511]", got)
	}
	stop := errors.New("stop")
	n := 0
	if err := m.EachWord(f, func(i int, _ uint64) error {
		n++
		if i == 64 {
			return stop
		}
		return nil
	}); err != stop || n != 3 {
		t.Fatalf("EachWord returned %v after %d words, want stop after 3", err, n)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("EachWord of an unaligned address should panic")
		}
	}()
	m.EachWord(f+8, func(int, uint64) error { return nil })
}

// leastAllocBytes returns the fewest bytes allocated by fill over three
// fresh frames, 1 to 3, of m, which must already index them.
func leastAllocBytes(m *PhysMem, fill func(frame PhysAddr)) uint64 {
	least := uint64(0)
	for i := 1; i <= 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fill(PhysAddr(i) * PageSize4K)
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; i == 1 || n < least {
			least = n
		}
	}
	return least
}

// One non-zero word in a fresh frame costs one 256-byte block and the
// frame's 144-byte block table, not a frame.
func TestPhysMemFirstWordBytes(t *testing.T) {
	const limit = 400
	m := NewPhysMem(16)
	m.WriteU64(0, 1) // the index's first chunk
	least := leastAllocBytes(m, func(f PhysAddr) {
		m.WriteU64(f+PhysAddr(uint64(f)/PageSize4K)*blockSize+8, 1)
	})
	if least > limit {
		t.Fatalf("a first non-zero word in a fresh frame allocated %d bytes, want at most %d", least, limit)
	}
	t.Logf("a first non-zero word in a fresh frame allocated %d bytes", least)
}

// A fresh frame written word by word, the way kv-batch's client fills a
// request page, costs its sixteen blocks and one block table.
func TestPhysMemWholeFrameBytes(t *testing.T) {
	const limit = 4240
	m := NewPhysMem(16)
	m.WriteU64(0, 1) // the index's first chunk
	least := leastAllocBytes(m, func(f PhysAddr) {
		for j := 0; j < EntriesPerTable; j++ {
			m.WriteU64(f+PhysAddr(8*j), uint64(j)|1)
		}
	})
	if f, b := m.backing(); f != 4 || b != 1+3*blocksPerFrame {
		t.Fatalf("backed %d blocks in %d frames, want %d in 4", b, f, 1+3*blocksPerFrame)
	}
	if least > limit {
		t.Fatalf("a fresh frame written whole allocated %d bytes, want at most %d", least, limit)
	}
	t.Logf("a fresh frame written whole allocated %d bytes", least)
}
