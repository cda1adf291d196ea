// Package drivers implements Atmosphere's user-level device drivers
// (§6.5): an ixgbe poll-mode network driver and an NVMe driver, each
// running as a regular process in a booted kernel — buffers come from
// mmap, DMA visibility from the IOMMU syscalls, and every driver action
// charges the cycle model on the core the driver occupies.
//
// The four deployment configurations of the evaluation are built on
// top (configs.go): statically linked (atmo-driver), separate core with
// a shared ring (atmo-c2), and same core with per-batch kernel
// crossings (atmo-c1-b1 / atmo-c1-b32).
package drivers

import (
	"encoding/binary"

	"atmosphere/internal/hw"
	"atmosphere/internal/kernel"
	"atmosphere/internal/nic"
	"atmosphere/internal/obs"
	"atmosphere/internal/pm"
)

// IxgbeDriver is the poll-mode ixgbe driver state.
type IxgbeDriver struct {
	driver
	Dev *nic.Device

	ringSize int
	// Physical addresses are what the driver touches through its own
	// mapping; DMA addresses are what it programs into the device —
	// equal to physical in pass-through mode, and to the driver's
	// virtual addresses (iovas) when the device sits behind the IOMMU.
	ringPhys hw.PhysAddr
	ringDMA  hw.PhysAddr
	bufPhys  []hw.PhysAddr
	bufDMA   []hw.PhysAddr
	rxNext   int

	// TX ring counterparts.
	txRingPhys hw.PhysAddr
	txRingDMA  hw.PhysAddr
	txBufPhys  []hw.PhysAddr
	txBufDMA   []hw.PhysAddr
	txNext     int

	// Frames received in the last burst (views into physical memory).
	Frames [][]byte

	RxCount, TxCount uint64

	stats *statSet

	// Tracing (nil/zero when no tracer is attached to the kernel).
	tr       *obs.Tracer
	track    obs.TrackID
	nRx, nTx obs.NameID
}

// Stats returns the driver's fault/drop counter block — a snapshot of
// the obs counters behind it (Submitted = frames transmitted,
// Completed = frames received).
func (d *IxgbeDriver) Stats() DriverStats { return d.stats.view() }

// ringBytes returns pages needed for n descriptors.
func ringPages(n int) int {
	return (n*nic.DescSize + hw.PageSize4K - 1) / hw.PageSize4K
}

// SetupIxgbe initializes the driver inside the process of tid: maps the
// descriptor rings and packet buffers, optionally exposes them through
// the process's IOMMU domain, and programs the device.
func SetupIxgbe(k *kernel.Kernel, tid pm.Ptr, core int, dev *nic.Device, ringSize int, useIOMMU bool) (*IxgbeDriver, error) {
	d := &IxgbeDriver{driver: newDriver(k, tid, core, "ixgbe", 0x200000000, useIOMMU), Dev: dev, ringSize: ringSize}
	d.stats = newStatSet(k.Metrics(), "ixgbe")
	if t := k.Tracer(); t != nil {
		d.tr = t
		d.track = t.Track(core, kernel.CoreName(core), "ixgbe-driver")
		d.nRx = t.Name("ixgbe.rx_burst")
		d.nTx = t.Name("ixgbe.tx_burst")
	}
	if err := d.attach(dev.DeviceID()); err != nil {
		return nil, err
	}
	// Each ring, then its buffers one page apiece.
	var err error
	if d.ringPhys, d.ringDMA, err = d.mapDMA(ringPages(ringSize)); err != nil {
		return nil, err
	}
	if d.bufPhys, d.bufDMA, err = d.mapBuffers(ringSize); err != nil {
		return nil, err
	}
	if d.txRingPhys, d.txRingDMA, err = d.mapDMA(ringPages(ringSize)); err != nil {
		return nil, err
	}
	if d.txBufPhys, d.txBufDMA, err = d.mapBuffers(ringSize); err != nil {
		return nil, err
	}

	mem := k.Machine.Mem
	// Publish every RX descriptor.
	for i := 0; i < ringSize; i++ {
		da := d.ringPhys + hw.PhysAddr(i*nic.DescSize)
		mem.WriteU64(da, uint64(d.bufDMA[i]))
		mem.Write(da+10, []byte{0})
	}
	dev.ConfigureRX(d.ringDMA, ringSize)
	dev.ConfigureTX(d.txRingDMA, ringSize)
	dev.WriteRDT(ringSize - 1) // all but one descriptor available
	d.clock().Charge(3 * hw.CostMMIOWrite)
	return d, nil
}

// RxBurst polls up to max completed RX descriptors, collects frame
// views into d.Frames, recycles the descriptors, and bumps the tail
// doorbell once per burst. Returns the number of frames received.
func (d *IxgbeDriver) RxBurst(max int) int {
	clk := d.clock()
	mem := d.K.Machine.Mem
	spanStart := clk.Cycles()
	n, scanned := 0, 0
	defer func() {
		d.chargeLedger(spanStart)
		if d.tr != nil {
			d.tr.SpanArg(d.track, d.nRx, spanStart, clk.Cycles(), uint64(n))
		}
	}()
	for n < max {
		i := d.rxNext
		da := d.ringPhys + hw.PhysAddr(i*nic.DescSize)
		clk.Charge(hw.CostDMADescriptor)
		if mem.Read(da+10, 1)[0]&nic.StatusDD == 0 {
			break
		}
		length := binary.LittleEndian.Uint16(mem.Read(da+8, 2))
		if length == 0 || int(length) > hw.PageSize4K {
			// Corrupted descriptor (injected or device fault): drop it,
			// recycle the slot, and keep going — a bad length must never
			// become a bad frame view.
			d.stats.badDesc.Inc()
			mem.Write(da+8, []byte{0, 0})
			mem.Write(da+10, []byte{0})
			clk.Charge(hw.CostCacheTouch * 2)
			d.rxNext = (d.rxNext + 1) % d.ringSize
			scanned++
			continue
		}
		if n >= len(d.Frames) {
			d.Frames = append(d.Frames, nil)
		}
		d.Frames[n] = mem.Slice(d.bufPhys[i], uint64(length))
		// Touch the headers (one cache-line load of packet data).
		clk.Charge(hw.CostCacheTouch * 2)
		// Recycle: clear DD, republish the buffer (a cached store — the
		// line is already resident from the DD poll).
		mem.Write(da+10, []byte{0})
		clk.Charge(hw.CostCacheTouch * 2)
		d.rxNext = (d.rxNext + 1) % d.ringSize
		scanned++
		n++
	}
	if scanned > 0 {
		// Republish every recycled slot (dropped descriptors included —
		// the device must get those buffers back).
		d.Dev.WriteRDT((d.rxNext + d.ringSize - 1) % d.ringSize)
		clk.Charge(hw.CostMMIOWrite)
		d.RxCount += uint64(n)
		d.stats.completed.Add(uint64(n))
	}
	d.Frames = d.Frames[:n]
	return n
}

// TxBurst transmits the given frames: copy into TX buffers, fill
// descriptors, one doorbell per burst.
func (d *IxgbeDriver) TxBurst(frames [][]byte) error {
	if len(frames) == 0 {
		return nil
	}
	clk := d.clock()
	mem := d.K.Machine.Mem
	spanStart := clk.Cycles()
	defer func() {
		d.chargeLedger(spanStart)
		if d.tr != nil {
			d.tr.SpanArg(d.track, d.nTx, spanStart, clk.Cycles(), uint64(len(frames)))
		}
	}()
	for _, f := range frames {
		i := d.txNext
		mem.Write(d.txBufPhys[i], f)
		clk.ChargeBytes(len(f))
		da := d.txRingPhys + hw.PhysAddr(i*nic.DescSize)
		mem.WriteU64(da, uint64(d.txBufDMA[i]))
		var lenb [2]byte
		binary.LittleEndian.PutUint16(lenb[:], uint16(len(f)))
		mem.Write(da+8, lenb[:])
		mem.Write(da+10, []byte{0})
		clk.Charge(hw.CostDMADescriptor)
		d.txNext = (d.txNext + 1) % d.ringSize
	}
	clk.Charge(hw.CostMMIOWrite)
	if err := d.Dev.WriteTDT(d.txNext); err != nil {
		d.stats.dmaFaults.Inc()
		return err
	}
	d.TxCount += uint64(len(frames))
	d.stats.submitted.Add(uint64(len(frames)))
	return nil
}
