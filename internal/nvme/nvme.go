// Package nvme models the PCIe-attached Intel P3700 SSD of §6.5.2: an
// admin-less NVMe subset with one I/O submission/completion queue pair
// living in simulated physical memory, doorbell registers, and a device
// performance envelope (per-command latency and sustained IOPS ceilings
// for 4 KiB sequential reads and writes) that the benchmarks combine
// with measured driver cycles to produce Figure 5.
package nvme

import (
	"encoding/binary"
	"errors"

	"atmosphere/internal/faults"
	"atmosphere/internal/hw"
	"atmosphere/internal/iommu"
)

// Command opcodes (NVMe I/O command set).
const (
	OpFlush = 0x00
	OpWrite = 0x01
	OpRead  = 0x02
)

// Queue entry sizes per the NVMe spec.
const (
	SQESize = 64
	CQESize = 16
)

// BlockSize is the logical block size.
const BlockSize = 4096

// Device performance envelope, calibrated to the paper's P3700 numbers:
// 4 KiB sequential reads peak around 460K IOPS and writes around 256K
// IOPS; queue-depth-1 read latency bounds fio's unbatched run to ~13K
// IOPS (§6.5.2).
const (
	ReadMaxIOPS  = 460_000
	WriteMaxIOPS = 256_000
	// ReadLatencyCycles is the per-command read latency (≈76 µs at
	// 2.2 GHz, matching 13K IOPS at queue depth 1).
	ReadLatencyCycles = 168_000
	// WriteLatencyCycles is the per-command write latency (≈20 µs,
	// buffered writes).
	WriteLatencyCycles = 44_000
)

// Errors.
var (
	ErrQueueEmpty = errors.New("nvme: submission queue empty")
	ErrDMAFault   = errors.New("nvme: DMA fault")
	ErrBadLBA     = errors.New("nvme: LBA out of range")
	ErrBadOpcode  = errors.New("nvme: unsupported opcode")
)

// Completion status codes the device posts (status field, before the
// phase-bit shift).
const (
	StatusOK     = 0x0000
	StatusBadLBA = 0x0281
	StatusBadOp  = 0x0001
	// StatusInternal is the generic internal device error an injected
	// command fault completes with (recoverable by retry).
	StatusInternal = 0x0286
)

// Device is one simulated NVMe controller with a single I/O queue pair
// and an in-memory flash array (sized in blocks).
type Device struct {
	mem *hw.PhysMem
	iom *iommu.IOMMU
	dev iommu.DeviceID

	// Backing store: blocks of 4 KiB.
	media []byte
	nlb   uint64

	sqBase, cqBase hw.PhysAddr
	qSize          int
	sqHead, sqTail int
	cqTail         int
	phase          byte

	// inj, when set, may turn command executions into injected errors
	// or withhold completions (stalls) until their release cycle.
	inj     *faults.Injector
	stalled []stalledCQE

	// Stats.
	Reads, Writes, Faults uint64
	// InjectedErrors and InjectedStalls count faults the injector fired
	// in this device.
	InjectedErrors, InjectedStalls uint64
}

// stalledCQE is a completion withheld by an injected stall.
type stalledCQE struct {
	cid       uint16
	status    uint16
	releaseAt uint64
}

// New creates a device with capacity blocks of media, DMAing through
// the IOMMU (nil for pass-through).
func New(mem *hw.PhysMem, iom *iommu.IOMMU, dev iommu.DeviceID, capacityBlocks int) *Device {
	return &Device{
		mem: mem, iom: iom, dev: dev,
		media: make([]byte, capacityBlocks*BlockSize),
		nlb:   uint64(capacityBlocks),
		phase: 1,
	}
}

func (d *Device) translate(addr hw.PhysAddr) (hw.PhysAddr, bool) {
	if d.iom == nil {
		return addr, d.mem.Contains(addr, 1)
	}
	pa, ok := d.iom.Translate(d.dev, hw.VirtAddr(addr))
	return pa, ok
}

// SetInjector attaches the fault injector (nil disables injection).
func (d *Device) SetInjector(in *faults.Injector) { d.inj = in }

// CreateQueues programs the queue pair (driver's admin step). A queue
// reset drops any stalled completions — they belonged to the previous
// queue generation (controller reset semantics).
func (d *Device) CreateQueues(sq, cq hw.PhysAddr, size int) {
	d.sqBase, d.cqBase, d.qSize = sq, cq, size
	d.sqHead, d.sqTail, d.cqTail = 0, 0, 0
	d.phase = 1
	d.stalled = nil
}

// DeviceID returns the PCIe function identity the device DMAs as.
func (d *Device) DeviceID() iommu.DeviceID { return d.dev }

// WriteSQDoorbell publishes submissions up to tail and processes them
// synchronously (wire/flash time is applied analytically via the
// latency/IOPS envelope by the benchmark layer).
func (d *Device) WriteSQDoorbell(tail int) error {
	d.sqTail = tail % d.qSize
	for d.sqHead != d.sqTail {
		if err := d.execute(d.sqHead); err != nil {
			return err
		}
		d.sqHead = (d.sqHead + 1) % d.qSize
	}
	return nil
}

// execute performs one submission queue entry: 64 bytes with opcode at
// 0, CID at 2, PRP at 24, SLBA at 40, NLB at 48.
func (d *Device) execute(idx int) error {
	sqe, ok := d.translate(d.sqBase + hw.PhysAddr(idx*SQESize))
	if !ok {
		d.Faults++
		return ErrDMAFault
	}
	raw := d.mem.Read(sqe, SQESize)
	opcode := raw[0]
	cid := binary.LittleEndian.Uint16(raw[2:4])
	prp := hw.PhysAddr(binary.LittleEndian.Uint64(raw[24:32]))
	slba := binary.LittleEndian.Uint64(raw[40:48])
	status := uint16(0)

	if d.inj.Hit(faults.NvmeCmdError) {
		// Injected internal error: the media is untouched and the
		// command completes with a retryable status.
		d.InjectedErrors++
		return d.complete(cid, StatusInternal)
	}

	switch opcode {
	case OpRead, OpWrite:
		if slba >= d.nlb {
			status = StatusBadLBA
			break
		}
		// The model has no PRP2, so the block must fill the one page the
		// PRP names: an offset would carry the DMA into the next frame,
		// which the translation never covered.
		buf, ok := d.translate(prp)
		if !ok || !hw.Aligned4K(uint64(prp)) || !d.mem.Contains(buf, BlockSize) {
			d.Faults++
			return ErrDMAFault
		}
		off := slba * BlockSize
		if opcode == OpRead {
			d.mem.Write(buf, d.media[off:off+BlockSize])
			d.Reads++
		} else {
			copy(d.media[off:off+BlockSize], d.mem.Slice(buf, BlockSize))
			d.Writes++
		}
	case OpFlush:
		// Media is always durable in the model.
	default:
		status = StatusBadOp
	}
	return d.complete(cid, status)
}

// complete posts a completion queue entry, unless an injected stall
// withholds it until its release cycle (Poke posts it then).
func (d *Device) complete(cid uint16, status uint16) error {
	if hit, stallCycles := d.inj.Should(faults.NvmeStall); hit {
		d.InjectedStalls++
		d.stalled = append(d.stalled, stalledCQE{
			cid: cid, status: status, releaseAt: d.inj.Now() + stallCycles,
		})
		return nil
	}
	return d.postCQE(cid, status)
}

// postCQE writes one completion queue entry: CID at 12, status+phase at 14.
func (d *Device) postCQE(cid uint16, status uint16) error {
	cqe, ok := d.translate(d.cqBase + hw.PhysAddr(d.cqTail*CQESize))
	if !ok {
		d.Faults++
		return ErrDMAFault
	}
	var raw [CQESize]byte
	binary.LittleEndian.PutUint16(raw[12:14], cid)
	binary.LittleEndian.PutUint16(raw[14:16], status<<1|uint16(d.phase))
	d.mem.Write(cqe, raw[:])
	d.cqTail++
	if d.cqTail == d.qSize {
		d.cqTail = 0
		d.phase ^= 1
	}
	return nil
}

// Poke releases stalled completions whose release cycle has passed
// (drivers call it from their polling loops; time advances as the
// polling core charges cycles). Completions release in stall order.
func (d *Device) Poke() error {
	if len(d.stalled) == 0 {
		return nil
	}
	now := d.inj.Now()
	var kept []stalledCQE
	for i, s := range d.stalled {
		if s.releaseAt <= now {
			if err := d.postCQE(s.cid, s.status); err != nil {
				// Re-queue this entry and the remainder before
				// surfacing the fault.
				d.stalled = append(kept, d.stalled[i:]...)
				return err
			}
			continue
		}
		kept = append(kept, s)
	}
	d.stalled = kept
	return nil
}

// StalledCompletions reports how many completions an injected stall is
// currently withholding (tests and the supervisor's diagnostics).
func (d *Device) StalledCompletions() int { return len(d.stalled) }

// MediaAt returns the media contents for verification in tests.
func (d *Device) MediaAt(lba uint64) []byte {
	off := lba * BlockSize
	out := make([]byte, BlockSize)
	copy(out, d.media[off:off+BlockSize])
	return out
}
