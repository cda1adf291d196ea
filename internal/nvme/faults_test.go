package nvme

import (
	"encoding/binary"
	"testing"

	"atmosphere/internal/faults"
	"atmosphere/internal/hw"
	"atmosphere/internal/iommu"
	"atmosphere/internal/mem"
)

// submit writes one SQE into the queue and rings the doorbell.
func submitOne(t *testing.T, m *hw.PhysMem, d *Device, sq hw.PhysAddr, slot int, op byte, cid uint16, prp hw.PhysAddr, lba uint64) error {
	t.Helper()
	var raw [SQESize]byte
	raw[0] = op
	binary.LittleEndian.PutUint16(raw[2:4], cid)
	binary.LittleEndian.PutUint64(raw[24:32], uint64(prp))
	binary.LittleEndian.PutUint64(raw[40:48], lba)
	m.Write(sq+hw.PhysAddr(slot*SQESize), raw[:])
	return d.WriteSQDoorbell(slot + 1)
}

// cqeAt reads back the completion at index i.
func cqeAt(m *hw.PhysMem, cq hw.PhysAddr, i int) (cid uint16, status uint16, phase byte) {
	raw := m.Read(cq+hw.PhysAddr(i*CQESize), CQESize)
	cid = binary.LittleEndian.Uint16(raw[12:14])
	sp := binary.LittleEndian.Uint16(raw[14:16])
	return cid, sp >> 1, byte(sp & 1)
}

// TestDMAFaultWithoutMapping mirrors the nic test of the same name:
// a device behind an IOMMU with no domain faults on every access, and
// the fault is surfaced as an error plus a counter — never a panic.
func TestDMAFaultWithoutMapping(t *testing.T) {
	physmem := hw.NewPhysMem(16)
	clk := &hw.Clock{}
	alloc := mem.NewAllocator(physmem, clk, 1)
	iom, err := iommu.New(alloc, clk)
	if err != nil {
		t.Fatal(err)
	}
	d := New(physmem, iom, 9, 8)
	d.CreateQueues(hw.PageSize4K, 2*hw.PageSize4K, 4)
	if err := d.WriteSQDoorbell(1); err != ErrDMAFault {
		t.Fatalf("expected DMA fault, got %v", err)
	}
	if d.Faults == 0 {
		t.Fatal("fault not counted")
	}
}

// TestDMAFaultMisalignedPRP: the model has no PRP2, so a PRP with a page
// offset would carry a 4 KiB block into the next frame, which the
// translation never covered. Both directions fault without touching
// that frame or the media.
func TestDMAFaultMisalignedPRP(t *testing.T) {
	for _, op := range []byte{OpRead, OpWrite} {
		m, d, sq, _, buf := setup(t, 8)
		next := buf + hw.PageSize4K
		m.WriteU64(next, 0x5a5a5a5a5a5a5a5a)
		d.media[2*BlockSize] = 0xee
		m.Write(buf+8, []byte{1, 2, 3})
		if err := submitOne(t, m, d, sq, 0, op, 1, buf+8, 2); err != ErrDMAFault {
			t.Fatalf("op %#x with PRP buf+8: expected DMA fault, got %v", op, err)
		}
		if d.Faults != 1 || d.Reads != 0 || d.Writes != 0 {
			t.Fatalf("op %#x: faults=%d reads=%d writes=%d", op, d.Faults, d.Reads, d.Writes)
		}
		if got := m.ReadU64(next); got != 0x5a5a5a5a5a5a5a5a {
			t.Fatalf("op %#x reached into the next frame: %#x", op, got)
		}
		if got := d.MediaAt(2); got[0] != 0xee || got[1] != 0 {
			t.Fatalf("op %#x changed the media: % x", op, got[:4])
		}
	}
}

// TestInjectedCmdError: an injected command error completes with
// StatusInternal and leaves the media untouched.
func TestInjectedCmdError(t *testing.T) {
	m, d, sq, cq, buf := setup(t, 8)
	cycles := uint64(0)
	inj, err := faults.NewInjector(7, faults.Plan{Rules: []faults.Rule{
		{Kind: faults.NvmeCmdError, Rate: 1.0},
	}}, func() uint64 { return cycles })
	if err != nil {
		t.Fatal(err)
	}
	d.SetInjector(inj)
	m.Write(buf, []byte("payload"))
	if err := submitOne(t, m, d, sq, 0, OpWrite, 11, buf, 3); err != nil {
		t.Fatal(err)
	}
	cid, status, phase := cqeAt(m, cq, 0)
	if cid != 11 || status != StatusInternal || phase != 1 {
		t.Fatalf("cqe cid=%d status=%#x phase=%d", cid, status, phase)
	}
	if d.InjectedErrors != 1 || d.Writes != 0 {
		t.Fatalf("errors=%d writes=%d", d.InjectedErrors, d.Writes)
	}
	if got := d.MediaAt(3); got[0] != 0 {
		t.Fatal("injected error wrote the media")
	}
}

// TestInjectedStallAndPoke: a stalled completion is invisible until its
// release cycle passes, then Poke posts it; a queue reset drops it.
func TestInjectedStallAndPoke(t *testing.T) {
	m, d, sq, cq, buf := setup(t, 8)
	cycles := uint64(0)
	inj, err := faults.NewInjector(7, faults.Plan{Rules: []faults.Rule{
		{Kind: faults.NvmeStall, Rate: 1.0, Param: 500},
	}}, func() uint64 { return cycles })
	if err != nil {
		t.Fatal(err)
	}
	d.SetInjector(inj)
	if err := submitOne(t, m, d, sq, 0, OpWrite, 5, buf, 1); err != nil {
		t.Fatal(err)
	}
	if d.StalledCompletions() != 1 || d.InjectedStalls != 1 {
		t.Fatalf("stalled=%d injected=%d", d.StalledCompletions(), d.InjectedStalls)
	}
	if _, _, phase := cqeAt(m, cq, 0); phase != 0 {
		t.Fatal("completion posted during stall")
	}
	// Not yet due.
	cycles = 100
	if err := d.Poke(); err != nil {
		t.Fatal(err)
	}
	if d.StalledCompletions() != 1 {
		t.Fatal("released early")
	}
	// Due now.
	cycles = 600
	if err := d.Poke(); err != nil {
		t.Fatal(err)
	}
	if d.StalledCompletions() != 0 {
		t.Fatal("not released")
	}
	if cid, status, phase := cqeAt(m, cq, 0); cid != 5 || status != StatusOK || phase != 1 {
		t.Fatalf("cqe cid=%d status=%#x phase=%d", cid, status, phase)
	}
	if d.Writes != 1 {
		t.Fatal("stall must not drop the write itself")
	}

	// A second stalled completion is dropped by a queue reset.
	if err := submitOne(t, m, d, sq, 1, OpWrite, 6, buf, 2); err != nil {
		t.Fatal(err)
	}
	if d.StalledCompletions() != 1 {
		t.Fatal("second stall missing")
	}
	d.CreateQueues(hw.PageSize4K, 2*hw.PageSize4K, 16)
	if d.StalledCompletions() != 0 {
		t.Fatal("reset must drop stalled completions")
	}
}
