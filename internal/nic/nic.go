// Package nic models the Intel 82599 10 GbE controller (ixgbe) of
// §6.5.1: RX/TX descriptor rings living in simulated physical memory,
// DMA through the IOMMU, MMIO doorbells, and the 10 GbE line-rate
// ceiling. A deterministic packet generator stands in for the Pktgen
// load generator the paper drives the receive tests with.
package nic

import (
	"encoding/binary"
	"errors"
	"fmt"

	"atmosphere/internal/faults"
	"atmosphere/internal/hw"
	"atmosphere/internal/iommu"
)

// Descriptor layout (simplified 82599 advanced descriptor): 16 bytes —
// 8-byte buffer address, 2-byte length, 1-byte status, 5 reserved.
const (
	DescSize   = 16
	descAddr   = 0
	descLen    = 8
	descStatus = 10

	// StatusDD is the descriptor-done bit the hardware sets on
	// completion.
	StatusDD = 1
)

// LineRatePps is the measured 64-byte packet rate of the paper's 10 GbE
// testbed (14.2 Mpps; theoretical maximum 14.88).
const LineRatePps = 14_200_000

// Errors.
var (
	ErrRingFull  = errors.New("nic: ring full")
	ErrRingEmpty = errors.New("nic: ring empty")
	ErrDMAFault  = errors.New("nic: DMA fault (IOMMU)")
	ErrGenerator = errors.New("nic: frame source failed to build a frame")
)

// Ring is one descriptor ring: the device's view of driver-provided
// descriptors at a physical (DMA) address.
type Ring struct {
	base hw.PhysAddr // descriptor array base (device-translated)
	size int
	// head is the device's consumer index; tail is the driver's
	// producer index (written via MMIO).
	head, tail int
}

// FrameSource produces the frames the wire delivers (the Pktgen
// substitute and stateful load generators like the wrk client).
type FrameSource interface {
	// Next returns the next frame; the slice may be reused across
	// calls (the device copies it into the DMA buffer immediately).
	Next() []byte
}

// Device is one simulated ixgbe function.
type Device struct {
	mem *hw.PhysMem
	iom *iommu.IOMMU
	dev iommu.DeviceID

	rx, tx Ring

	// gen feeds the RX path.
	gen FrameSource

	// TxSink, when set, receives a copy of each transmitted frame
	// (tests and the Maglev forwarding pipeline).
	TxSink TxSinkFunc

	// OnRxInterrupt, when set, fires once per DeliverRX call that
	// placed at least one frame (the device's coalesced RX interrupt;
	// polling drivers leave it nil, §6.5).
	OnRxInterrupt func()

	// inj, when set, may corrupt RX descriptors or fault DMA accesses.
	inj *faults.Injector

	// Stats.
	RxDelivered uint64
	TxSent      uint64
	RxDropped   uint64
	Faults      uint64
	// RxCorrupt counts injected descriptor corruptions; GenErrors
	// counts frames the source failed to produce; InjectedFaults
	// counts injected (as opposed to organic) DMA faults.
	RxCorrupt      uint64
	GenErrors      uint64
	InjectedFaults uint64
}

// TxSinkFunc receives transmitted frames.
type TxSinkFunc func(frame []byte)

// New creates a device that DMAs through the given IOMMU as device id
// dev (pass a nil IOMMU for pass-through/physical addressing, the
// atmo-driver static configuration).
func New(mem *hw.PhysMem, iom *iommu.IOMMU, dev iommu.DeviceID) *Device {
	return &Device{mem: mem, iom: iom, dev: dev}
}

// AttachGenerator connects the packet source for RX tests.
func (d *Device) AttachGenerator(g *Generator) { d.gen = g }

// AttachSource connects an arbitrary frame source (stateful load
// generators).
func (d *Device) AttachSource(s FrameSource) { d.gen = s }

// SetInjector attaches the fault injector (nil disables injection).
func (d *Device) SetInjector(in *faults.Injector) { d.inj = in }

// DeviceID returns the PCIe function identity the device DMAs as.
func (d *Device) DeviceID() iommu.DeviceID { return d.dev }

// translate resolves a driver-provided DMA address.
func (d *Device) translate(addr hw.PhysAddr) (hw.PhysAddr, bool) {
	if d.iom == nil {
		return addr, d.mem.Contains(addr, 1)
	}
	pa, ok := d.iom.Translate(d.dev, hw.VirtAddr(addr))
	return pa, ok
}

// ConfigureRX programs the RX ring (driver writes the base/size
// registers). base is a DMA address.
func (d *Device) ConfigureRX(base hw.PhysAddr, size int) {
	d.rx = Ring{base: base, size: size}
}

// ConfigureTX programs the TX ring.
func (d *Device) ConfigureTX(base hw.PhysAddr, size int) {
	d.tx = Ring{base: base, size: size}
}

// WriteRDT is the RX tail doorbell: the driver publishes descriptors up
// to (but excluding) tail.
func (d *Device) WriteRDT(tail int) { d.rx.tail = tail % d.rx.size }

// WriteTDT is the TX tail doorbell; the device transmits every
// descriptor between its head and the new tail synchronously (the
// wire-time pacing is applied analytically by the benchmarks via
// LineRatePps).
func (d *Device) WriteTDT(tail int) error {
	d.tx.tail = tail % d.tx.size
	for d.tx.head != d.tx.tail {
		if err := d.txOne(d.tx.head); err != nil {
			return err
		}
		d.tx.head = (d.tx.head + 1) % d.tx.size
	}
	return nil
}

func (d *Device) descAt(r *Ring, i int) (hw.PhysAddr, bool) {
	return d.translate(r.base + hw.PhysAddr(i*DescSize))
}

func (d *Device) txOne(i int) error {
	da, ok := d.descAt(&d.tx, i)
	if !ok {
		d.Faults++
		return ErrDMAFault
	}
	bufDMA := hw.PhysAddr(d.mem.ReadU64(da + descAddr))
	length := binary.LittleEndian.Uint16(d.mem.Read(da+descLen, 2))
	buf, ok := d.translate(bufDMA)
	if !ok || !d.mem.Contains(buf, uint64(length)) {
		d.Faults++
		return ErrDMAFault
	}
	// "Transmit": consume the frame (a real device would serialize it;
	// tests can capture via TxSink).
	if d.TxSink != nil {
		d.TxSink(d.mem.Read(buf, uint64(length)))
	}
	d.mem.Write(da+descStatus, []byte{StatusDD})
	d.TxSent++
	return nil
}

// DeliverRX makes the device fill up to n RX descriptors from the
// generator: DMA the frame into the driver's buffer and set DD. Returns
// packets delivered (0 when the ring has no free descriptors — packet
// drop, as on real hardware).
func (d *Device) DeliverRX(n int) (int, error) {
	if d.gen == nil {
		return 0, fmt.Errorf("nic: no generator attached")
	}
	delivered := 0
	for i := 0; i < n; i++ {
		if d.rx.head == d.rx.tail {
			// No free descriptors: the wire keeps going, the NIC drops.
			d.RxDropped += uint64(n - i)
			break
		}
		da, ok := d.descAt(&d.rx, d.rx.head)
		if !ok {
			d.Faults++
			return delivered, ErrDMAFault
		}
		if d.inj.Hit(faults.NicDMAFault) {
			// Injected translation failure: the access faults exactly
			// as if the IOMMU had rejected it.
			d.Faults++
			d.InjectedFaults++
			return delivered, ErrDMAFault
		}
		if d.inj.Hit(faults.NicDescCorrupt) {
			// Injected ring corruption: the descriptor completes with a
			// garbage (zero) length and no frame payload; a robust
			// driver must drop it without dereferencing the length.
			d.RxCorrupt++
			d.mem.Write(da+descLen, []byte{0, 0})
			d.mem.Write(da+descStatus, []byte{StatusDD})
			d.rx.head = (d.rx.head + 1) % d.rx.size
			continue
		}
		bufDMA := hw.PhysAddr(d.mem.ReadU64(da + descAddr))
		buf, ok := d.translate(bufDMA)
		if !ok {
			d.Faults++
			return delivered, ErrDMAFault
		}
		frame := d.gen.Next()
		if frame == nil {
			// The source failed to build a frame; surface it as a
			// device-level error rather than panicking.
			d.GenErrors++
			return delivered, ErrGenerator
		}
		if !d.mem.Contains(buf, uint64(len(frame))) {
			d.Faults++
			return delivered, ErrDMAFault
		}
		d.mem.Write(buf, frame)
		var lenb [2]byte
		binary.LittleEndian.PutUint16(lenb[:], uint16(len(frame)))
		d.mem.Write(da+descLen, lenb[:])
		d.mem.Write(da+descStatus, []byte{StatusDD})
		d.rx.head = (d.rx.head + 1) % d.rx.size
		d.RxDelivered++
		delivered++
	}
	if delivered > 0 && d.OnRxInterrupt != nil {
		d.OnRxInterrupt()
	}
	return delivered, nil
}
