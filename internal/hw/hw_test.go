package hw

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestPhysMemReadWriteU64(t *testing.T) {
	m := NewPhysMem(4)
	m.WriteU64(0x1000, 0xdeadbeefcafebabe)
	if got := m.ReadU64(0x1000); got != 0xdeadbeefcafebabe {
		t.Fatalf("ReadU64 = %#x", got)
	}
	if got := m.ReadU64(0x1008); got != 0 {
		t.Fatalf("adjacent word clobbered: %#x", got)
	}
}

func TestPhysMemBounds(t *testing.T) {
	m := NewPhysMem(1)
	if !m.Contains(0, PageSize4K) {
		t.Fatal("first frame should be contained")
	}
	if m.Contains(PageSize4K-4, 8) {
		t.Fatal("straddling the end should not be contained")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range read should panic")
		}
	}()
	m.ReadU64(PageSize4K - 4)
}

func TestPhysMemZeroPage(t *testing.T) {
	m := NewPhysMem(2)
	m.Write(PageSize4K, []byte{1, 2, 3, 4})
	m.ZeroPage(PageSize4K)
	for i, b := range m.Read(PageSize4K, 8) {
		if b != 0 {
			t.Fatalf("byte %d not zeroed: %d", i, b)
		}
	}
}

func TestPhysMemZeroPageUnaligned(t *testing.T) {
	m := NewPhysMem(2)
	defer func() {
		if recover() == nil {
			t.Fatal("unaligned ZeroPage should panic")
		}
	}()
	m.ZeroPage(12)
}

func TestPhysMemSliceAliases(t *testing.T) {
	m := NewPhysMem(1)
	s := m.Slice(16, 8)
	s[0] = 0xab
	if m.Read(16, 1)[0] != 0xab {
		t.Fatal("Slice should alias physical memory")
	}
	m.WriteU64(16, 0x1122)
	if s[0] != 0x22 || s[1] != 0x11 {
		t.Fatalf("Slice view missed a later write: % x", s[:2])
	}
	m.ZeroPage(0)
	m.Write(17, []byte{0xcd})
	if s[0] != 0 || s[1] != 0xcd {
		t.Fatalf("Slice view went stale across ZeroPage: % x", s[:2])
	}
}

// backing counts the frames that have host memory and the blocks backed
// in them.
func (m *PhysMem) backing() (frames, blocks int) {
	for _, t := range m.frames {
		if t == nil {
			continue
		}
		frames++
		for _, b := range t.blocks {
			if b != nil {
				blocks++
			}
		}
	}
	return frames, blocks
}

func TestPhysMemUnbackedReadsZero(t *testing.T) {
	m := NewPhysMem(4)
	if got := m.ReadU64(PageSize4K + 8); got != 0 {
		t.Fatalf("ReadU64 of an unbacked frame = %#x", got)
	}
	for i, b := range m.Read(PageSize4K-4, PageSize4K+8) {
		if b != 0 {
			t.Fatalf("Read byte %d of unbacked frames = %#x", i, b)
		}
	}
	m.WriteU64(2*PageSize4K, 0)
	m.WriteU64(2*PageSize4K-4, 0)
	m.Write(3*PageSize4K-8, make([]byte, 16))
	m.ZeroPage(3 * PageSize4K)
	if f, b := m.backing(); f != 0 || b != 0 {
		t.Fatalf("reads, zero writes and ZeroPage backed %d blocks in %d frames", b, f)
	}
}

func TestPhysMemFirstWriteBacksOneFrame(t *testing.T) {
	m := NewPhysMem(4)
	m.WriteU64(2*PageSize4K+8, 1)
	if f, b := m.backing(); f != 1 || b != 1 || m.blockAt(2, 8) == nil {
		t.Fatalf("a first non-zero WriteU64 backed %d blocks in %d frames (frame 2's block 0: %v)",
			b, f, m.blockAt(2, 8) != nil)
	}
	m.Write(PageSize4K+100, []byte{0, 0, 7})
	if f, b := m.backing(); f != 2 || b != 2 || m.blockAt(1, 100) == nil {
		t.Fatalf("a first non-zero Write backed %d blocks in %d frames in all (frame 1's block 0: %v)",
			b, f, m.blockAt(1, 100) != nil)
	}
	// Zeros into a backed block still land; zeros bound for an unbacked
	// block of a backed frame back nothing.
	m.WriteU64(2*PageSize4K+8, 0)
	if got := m.ReadU64(2*PageSize4K + 8); got != 0 {
		t.Fatalf("zero write into a backed block lost: %#x", got)
	}
	m.WriteU64(2*PageSize4K+blockSize, 0)
	m.Write(2*PageSize4K+3*blockSize, make([]byte, blockSize))
	if f, b := m.backing(); f != 2 || b != 2 {
		t.Fatalf("zero writes into a backed frame's unbacked blocks backed %d blocks in %d frames", b, f)
	}
}

// The frame index covers only a prefix of the frames, grown in whole
// PrefixStep steps up to the highest frame backed; reads, zero writes and
// ZeroPage past it leave it alone, and the configured size is kept.
func TestPhysMemIndexGrowsWithBacking(t *testing.T) {
	const frames = 1 << 20
	m := NewPhysMem(frames)
	last := PhysAddr(frames-1) * PageSize4K
	m.ReadU64(last)
	m.WriteU64(last, 0)
	m.ZeroPage(last)
	if len(m.frames) != 0 || m.Frames() != frames || m.Size() != frames*PageSize4K || !m.Contains(last, PageSize4K) {
		t.Fatalf("index %d frames, Frames %d, Size %#x", len(m.frames), m.Frames(), m.Size())
	}
	m.WriteU64(700*PageSize4K, 1)
	if want := 11 * PrefixStep; len(m.frames) != want {
		t.Fatalf("backing frame 700 grew the index to %d frames, want %d", len(m.frames), want)
	}
	m.WriteU64(last, 1)
	if len(m.frames) != frames || m.ReadU64(last) != 1 || m.ReadU64(700*PageSize4K) != 1 {
		t.Fatalf("backing the last frame grew the index to %d frames", len(m.frames))
	}
}

func TestPhysMemZeroPageKeepsBacking(t *testing.T) {
	m := NewPhysMem(2)
	m.WriteU64(PageSize4K+16, 0xff)
	tab, b := m.frames[1], m.blockAt(1, 16)
	m.ZeroPage(PageSize4K)
	if m.frames[1] != tab || m.blockAt(1, 16) != b {
		t.Fatal("ZeroPage dropped or replaced a backed frame's backing")
	}
	if got := m.ReadU64(PageSize4K + 16); got != 0 {
		t.Fatalf("ZeroPage left %#x", got)
	}
	if _, n := m.backing(); n != 1 {
		t.Fatalf("ZeroPage left %d blocks backed, want 1", n)
	}
	m.ZeroPage(0)
	if m.frames[0] != nil {
		t.Fatal("ZeroPage backed an unbacked frame")
	}
}

func TestPhysMemCrossFrameRoundTrip(t *testing.T) {
	m := NewPhysMem(3)
	const at = PageSize4K - 3 // straddles frames 0 and 1
	m.WriteU64(at, 0x0102030405060708)
	if got := m.ReadU64(at); got != 0x0102030405060708 {
		t.Fatalf("ReadU64 across a frame boundary = %#x", got)
	}
	if got := m.Read(at, 8); got[0] != 0x08 || got[7] != 0x01 {
		t.Fatalf("Read sees % x", got)
	}
	src := make([]byte, PageSize4K+10) // spans frames 1 and 2 from the middle of 1
	for i := range src {
		src[i] = byte(i*7 + 1)
	}
	m.Write(PageSize4K+PageSize4K/2, src)
	if got := m.Read(PageSize4K+PageSize4K/2, uint64(len(src))); string(got) != string(src) {
		t.Fatal("Write/Read across a frame boundary do not round-trip")
	}
	// The word backs frame 0's last block and frame 1's first; src backs
	// frame 1's last eight blocks and frame 2's first nine.
	if f, b := m.backing(); f != 3 || b != 19 {
		t.Fatalf("backed %d blocks in %d frames, want 19 in 3", b, f)
	}
}

func TestPhysMemSliceCrossingFramePanics(t *testing.T) {
	m := NewPhysMem(2)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Slice across a frame boundary should panic")
		}
		if msg, _ := r.(string); !strings.Contains(msg, "[0xff8,+16)") {
			t.Fatalf("panic does not name the range: %v", r)
		}
	}()
	m.Slice(PageSize4K-8, 16)
}

func TestVAIndicesRoundTrip(t *testing.T) {
	f := func(l4, l3, l2, l1 uint16) bool {
		a, b, c, d := int(l4%512), int(l3%512), int(l2%512), int(l1%512)
		va := VAFromIndices(a, b, c, d)
		return L4Index(va) == a && L3Index(va) == b && L2Index(va) == c && L1Index(va) == d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVACanonical(t *testing.T) {
	va := VAFromIndices(511, 0, 0, 0)
	if uint64(va)>>48 != 0xffff {
		t.Fatalf("high-half address not sign extended: %#x", va)
	}
	va = VAFromIndices(255, 511, 511, 511)
	if uint64(va)>>48 != 0 {
		t.Fatalf("low-half address wrongly extended: %#x", va)
	}
}

func TestPageSizeBytes(t *testing.T) {
	cases := []struct {
		s    PageSize
		want uint64
	}{{Size4K, 4096}, {Size2M, 2 << 20}, {Size1G, 1 << 30}}
	for _, c := range cases {
		if c.s.Bytes() != c.want {
			t.Errorf("%v.Bytes() = %d, want %d", c.s, c.s.Bytes(), c.want)
		}
	}
	if PageSize(99).Bytes() != 0 || PageSize(99).String() != "invalid" {
		t.Error("invalid page size should report 0 / invalid")
	}
}

// buildTestTable hand-writes a tiny page table hierarchy into physical
// memory: frame1=PML4, frame2=PDPT, frame3=PD, frame4=PT.
func buildTestTable(m *PhysMem) PhysAddr {
	cr3 := PhysAddr(1 * PageSize4K)
	pdpt := PhysAddr(2 * PageSize4K)
	pd := PhysAddr(3 * PageSize4K)
	pt := PhysAddr(4 * PageSize4K)
	flags := PtePresent | PteWritable | PteUser
	m.WriteU64(cr3+0*8, uint64(pdpt)|flags)
	m.WriteU64(pdpt+0*8, uint64(pd)|flags)
	m.WriteU64(pd+0*8, uint64(pt)|flags)
	m.WriteU64(pt+5*8, uint64(6*PageSize4K)|flags) // va 0x5000 -> frame 6
	// A read-only 4K page at index 7.
	m.WriteU64(pt+7*8, uint64(7*PageSize4K)|PtePresent|PteUser)
	// A 2 MiB huge page at PD index 1 -> phys 8 MiB.
	m.WriteU64(pd+1*8, uint64(8<<20)|flags|PteHuge)
	// A 1 GiB huge page at PDPT index 1 -> phys 1 GiB... keep within
	// memory by not touching its data.
	m.WriteU64(pdpt+1*8, uint64(1<<30)|flags|PteHuge)
	return cr3
}

func TestMMUWalk4K(t *testing.T) {
	m := NewPhysMem(16)
	cr3 := buildTestTable(m)
	mmu := NewMMU(m)
	tr, ok := mmu.Walk(cr3, 0x5000)
	if !ok {
		t.Fatal("walk failed")
	}
	if tr.Phys != 6*PageSize4K || tr.Size != Size4K || !tr.Writable || !tr.User {
		t.Fatalf("unexpected translation %+v", tr)
	}
	// Offset within page preserved.
	tr, _ = mmu.Walk(cr3, 0x5123)
	if tr.Phys != 6*PageSize4K+0x123 {
		t.Fatalf("offset lost: %#x", tr.Phys)
	}
}

func TestMMUWalkPermissionFold(t *testing.T) {
	m := NewPhysMem(16)
	cr3 := buildTestTable(m)
	mmu := NewMMU(m)
	tr, ok := mmu.Walk(cr3, 0x7000)
	if !ok {
		t.Fatal("walk failed")
	}
	if tr.Writable {
		t.Fatal("read-only leaf must fold to non-writable")
	}
}

func TestMMUWalkHuge(t *testing.T) {
	m := NewPhysMem(16)
	cr3 := buildTestTable(m)
	mmu := NewMMU(m)
	va := VAFromIndices(0, 0, 1, 0) + 0x1234
	tr, ok := mmu.Walk(cr3, va)
	if !ok || tr.Size != Size2M {
		t.Fatalf("2M walk failed: %+v ok=%v", tr, ok)
	}
	if tr.Phys != PhysAddr(8<<20)+0x1234 {
		t.Fatalf("2M phys wrong: %#x", tr.Phys)
	}
	va = VAFromIndices(0, 1, 3, 4) + 7
	tr, ok = mmu.Walk(cr3, va)
	if !ok || tr.Size != Size1G {
		t.Fatalf("1G walk failed: %+v ok=%v", tr, ok)
	}
	wantOff := uint64(3)<<21 | uint64(4)<<12 | 7
	if tr.Phys != PhysAddr(uint64(1<<30)+wantOff) {
		t.Fatalf("1G phys wrong: %#x", tr.Phys)
	}
}

func TestMMUWalkNotPresent(t *testing.T) {
	m := NewPhysMem(16)
	cr3 := buildTestTable(m)
	mmu := NewMMU(m)
	if _, ok := mmu.Walk(cr3, 0x6000); ok {
		t.Fatal("unmapped page should not resolve")
	}
	if _, ok := mmu.Walk(cr3, VAFromIndices(3, 0, 0, 0)); ok {
		t.Fatal("missing PML4 entry should not resolve")
	}
}

func TestMMULoadStore(t *testing.T) {
	m := NewPhysMem(16)
	cr3 := buildTestTable(m)
	mmu := NewMMU(m)
	msg := []byte("hello atmosphere")
	if !mmu.Store(cr3, 0x5100, msg) {
		t.Fatal("store failed")
	}
	got, ok := mmu.Load(cr3, 0x5100, uint64(len(msg)))
	if !ok || string(got) != string(msg) {
		t.Fatalf("load = %q ok=%v", got, ok)
	}
	if mmu.Store(cr3, 0x7000, []byte{1}) {
		t.Fatal("store to read-only page should fail")
	}
	if _, ok := mmu.Load(cr3, 0x5ff0, 64); ok {
		t.Fatal("load crossing into unmapped page should fail")
	}
}

func TestTLBInsertLookupInvalidate(t *testing.T) {
	tlb := NewTLB(64)
	tr := Translation{Phys: 0x9000, Size: Size4K, Writable: true}
	if _, ok := tlb.Lookup(0x1000, 0x5000); ok {
		t.Fatal("empty TLB should miss")
	}
	tlb.Insert(0x1000, 0x5abc, tr)
	got, ok := tlb.Lookup(0x1000, 0x5010)
	if !ok || got.Phys != 0x9000 {
		t.Fatalf("lookup after insert = %+v ok=%v", got, ok)
	}
	if _, ok := tlb.Lookup(0x2000, 0x5010); ok {
		t.Fatal("different cr3 should miss")
	}
	tlb.InvalidateRange(0x1000, 0x5000, PageSize4K)
	if _, ok := tlb.Lookup(0x1000, 0x5000); ok {
		t.Fatal("invalidated entry should miss")
	}
	hits, misses, _ := tlb.Stats()
	if hits != 1 || misses != 3 {
		t.Fatalf("stats = %d hits %d misses", hits, misses)
	}
}

// A TLB allocates its slots on the first Insert: looking up,
// invalidating, flushing and walking an empty one allocate nothing.
func TestTLBAllocatesOnFirstInsert(t *testing.T) {
	tlb := NewTLB(256)
	if n := testing.AllocsPerRun(10, func() {
		tlb.Lookup(0x1000, 0x5000)
		tlb.InvalidateRange(0x1000, 0, PageSize2M)
		tlb.Flush()
		tlb.Each(func(PhysAddr, VirtAddr, Translation) bool { return true })
	}); n != 0 || tlb.entries != nil {
		t.Fatalf("empty TLB allocated %.0f times (slots %v)", n, tlb.entries != nil)
	}
	tlb.Insert(0x1000, 0x5000, Translation{Phys: 0x9000})
	if len(tlb.entries) != 256 {
		t.Fatalf("first Insert allocated %d slots, want 256", len(tlb.entries))
	}
	if tr, ok := tlb.Lookup(0x1000, 0x5000); !ok || tr.Phys != 0x9000 {
		t.Fatalf("lookup after the first Insert = %+v, %v", tr, ok)
	}
}

func TestTLBFlush(t *testing.T) {
	tlb := NewTLB(8)
	tlb.Insert(0, 0, Translation{Phys: 1})
	tlb.Flush()
	if _, ok := tlb.Lookup(0, 0); ok {
		t.Fatal("flush should drop all entries")
	}
	if _, _, flushes := tlb.Stats(); flushes != 1 {
		t.Fatal("flush count not recorded")
	}
}

// A range invalidation drops every 4 KiB key of cr3 inside the range —
// all of a 2 MiB superpage's, not just its first — and nothing else;
// Each then visits exactly the survivors.
func TestTLBInvalidateRange(t *testing.T) {
	tlb := NewTLB(1024)
	const cr3, other = PhysAddr(0x1000), PhysAddr(0x2000)
	const base = VirtAddr(0x4000_0000)
	for _, off := range []VirtAddr{0, PageSize4K * 16, PageSize4K * 0x100, PageSize2M - PageSize4K} {
		tlb.Insert(cr3, base+off, Translation{Phys: 0x20_0000 + PhysAddr(off), Size: Size2M})
	}
	survivors := []struct {
		cr3 PhysAddr
		va  VirtAddr
	}{
		{cr3, base - PageSize4K},         // just below the range
		{cr3, base + PageSize2M},         // just past it
		{other, base + PageSize4K*0x100}, // inside, but another address space
	}
	for _, s := range survivors {
		tlb.Insert(s.cr3, s.va, Translation{Phys: 0x9000, Size: Size4K})
	}
	tlb.InvalidateRange(cr3, base, PageSize2M)
	seen := 0
	tlb.Each(func(c PhysAddr, vpage VirtAddr, _ Translation) bool {
		seen++
		if c == cr3 && vpage >= base && vpage < base+PageSize2M {
			t.Errorf("superpage key %#x survived the range invalidation", vpage)
		}
		return true
	})
	if seen != len(survivors) {
		t.Errorf("Each visited %d entries, want the %d outside the range", seen, len(survivors))
	}
	tlb.Flush()
	tlb.Each(func(PhysAddr, VirtAddr, Translation) bool {
		t.Error("Each visited an entry after a flush")
		return false
	})
}

func TestClock(t *testing.T) {
	var c Clock
	c.Charge(ClockHz) // one second
	if s := c.Seconds(); s != 1.0 {
		t.Fatalf("Seconds = %v", s)
	}
	if r := c.PerSecond(2_200_000); r != 2_200_000 {
		t.Fatalf("PerSecond = %v", r)
	}
	c.Reset()
	if c.Cycles() != 0 || c.PerSecond(5) != 0 {
		t.Fatal("reset clock should be zero")
	}
	c.ChargeBytes(1600)
	if c.Cycles() != 100 {
		t.Fatalf("ChargeBytes(1600) = %d cycles, want 100", c.Cycles())
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
	if NewRand(1).Uint64() == NewRand(2).Uint64() {
		t.Fatal("different seeds should diverge immediately (overwhelmingly likely)")
	}
}

func TestRandIntnRange(t *testing.T) {
	r := NewRand(7)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("Intn(10) did not cover range in 1000 draws: %d values", len(seen))
	}
}

func TestRandPerm(t *testing.T) {
	r := NewRand(9)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("invalid permutation at %d", v)
		}
		seen[v] = true
	}
}

func TestMachine(t *testing.T) {
	m := NewMachine(DefaultConfig())
	if m.NumCores() != 4 {
		t.Fatalf("cores = %d", m.NumCores())
	}
	m.Core(0).Clock.Charge(100)
	m.Core(1).Clock.Charge(250)
	if m.TotalCycles() != 350 || m.MaxCycles() != 250 {
		t.Fatalf("total=%d max=%d", m.TotalCycles(), m.MaxCycles())
	}
}

func TestFrameAddrIndexRoundTrip(t *testing.T) {
	m := NewPhysMem(32)
	for i := 0; i < 32; i++ {
		if m.FrameIndex(m.FrameAddr(i)) != i {
			t.Fatalf("frame round trip failed at %d", i)
		}
	}
}

func TestMachineConfigs(t *testing.T) {
	for _, cfg := range []Config{DefaultConfig(), C220G5Config()} {
		m := NewMachine(cfg)
		if m.NumCores() != cfg.Cores || m.Mem.Frames() != cfg.Frames {
			t.Fatalf("machine does not honor config %+v", cfg)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("invalid config accepted")
		}
	}()
	NewMachine(Config{Frames: 0, Cores: 1})
}

// TestClockPerSecondZeroCycles is the dedicated regression test for the
// zero-cycle division guard: a rate query on a clock that has charged
// nothing must be exactly 0 — never +Inf (events/0) or NaN (0/0) — for
// both fresh and Reset clocks.
func TestClockPerSecondZeroCycles(t *testing.T) {
	var c Clock
	for _, events := range []uint64{0, 1, 1 << 40} {
		r := c.PerSecond(events)
		if r != 0 {
			t.Fatalf("PerSecond(%d) on a zero clock = %v, want 0", events, r)
		}
		if math.IsInf(r, 0) || math.IsNaN(r) {
			t.Fatalf("PerSecond(%d) on a zero clock = %v (non-finite)", events, r)
		}
	}
	c.Charge(100)
	c.Reset()
	if r := c.PerSecond(7); r != 0 || math.IsInf(r, 0) || math.IsNaN(r) {
		t.Fatalf("PerSecond after Reset = %v, want 0", r)
	}
}
