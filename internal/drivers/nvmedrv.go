package drivers

import (
	"encoding/binary"
	"fmt"

	"atmosphere/internal/hw"
	"atmosphere/internal/kernel"
	"atmosphere/internal/nvme"
	"atmosphere/internal/obs"
	"atmosphere/internal/pm"
)

// NvmeDriver is the poll-mode NVMe driver (§6.5.2): one I/O queue pair
// plus data buffers mapped by the driver process, SQ doorbell per
// batch, and completion polling — the SPDK-style submission model.
//
// The driver survives device faults instead of panicking: every command
// is tracked in flight, error-status completions are resubmitted with
// exponential backoff up to MaxRetries, missing completions time out
// against a cycle budget, and every fault increments a DriverStats
// counter the supervisor and harnesses read.
type NvmeDriver struct {
	driver
	Dev *nvme.Device

	qSize          int
	sqPhys, cqPhys hw.PhysAddr
	bufPhys        []hw.PhysAddr
	bufDMA         []hw.PhysAddr
	sqDMA, cqDMA   hw.PhysAddr

	sqTail, cqHead int
	phase          byte
	nextCID        uint16
	inflight       int

	// inflightCmds tracks every submitted command by CID so an
	// error-status completion can be retried with the original opcode,
	// LBA, and data buffer.
	inflightCmds map[uint16]*nvmeCmd

	// PollBudget is the cycle budget of one PollCompletions call
	// (DefaultPollBudget when zero).
	PollBudget uint64

	stats *statSet

	// Tracing (nil/zero when no tracer is attached to the kernel).
	tr                       *obs.Tracer
	track                    obs.TrackID
	nSubmit, nPoll, nBackoff obs.NameID

	// Submitted and Completed remain exported for the benchmarks.
	Submitted, Completed uint64
}

// nvmeCmd is one in-flight command's retry state.
type nvmeCmd struct {
	op       byte
	lba      uint64
	prp      hw.PhysAddr
	attempts int
}

// SetupNvme initializes the driver: queue pages, data buffers, IOMMU
// exposure, and device queue programming.
func SetupNvme(k *kernel.Kernel, tid pm.Ptr, core int, dev *nvme.Device, qSize int, useIOMMU bool) (*NvmeDriver, error) {
	d := &NvmeDriver{
		driver: newDriver(k, tid, core, "nvme", 0x300000000, useIOMMU),
		Dev:    dev, qSize: qSize, phase: 1,
		inflightCmds: make(map[uint16]*nvmeCmd),
	}
	d.stats = newStatSet(k.Metrics(), "nvme")
	if t := k.Tracer(); t != nil {
		d.tr = t
		d.track = t.Track(core, kernel.CoreName(core), "nvme-driver")
		d.nSubmit = t.Name("nvme.submit_batch")
		d.nPoll = t.Name("nvme.poll")
		d.nBackoff = t.Name("nvme.backoff")
	}
	if err := d.attach(dev.DeviceID()); err != nil {
		return nil, err
	}
	var err error
	if d.sqPhys, d.sqDMA, err = d.mapDMA((qSize*nvme.SQESize + hw.PageSize4K - 1) / hw.PageSize4K); err != nil {
		return nil, err
	}
	if d.cqPhys, d.cqDMA, err = d.mapDMA((qSize*nvme.CQESize + hw.PageSize4K - 1) / hw.PageSize4K); err != nil {
		return nil, err
	}
	if d.bufPhys, d.bufDMA, err = d.mapBuffers(qSize); err != nil {
		return nil, err
	}
	dev.CreateQueues(d.sqDMA, d.cqDMA, qSize)
	d.clock().Charge(4 * hw.CostMMIOWrite) // admin: queue registers
	return d, nil
}

// Stats returns the driver's fault/retry counter block — a snapshot of
// the obs counters behind it. With a metrics registry attached the
// counters are shared across respawned generations, so the snapshot is
// cumulative; without one it covers this generation only (the exported
// Submitted/Completed fields always stay per-generation).
func (d *NvmeDriver) Stats() DriverStats { return d.stats.view() }

// NoteWedged counts a wedge declaration (the supervisor or harness
// observed the driver stuck and is about to recover it).
func (d *NvmeDriver) NoteWedged() { d.stats.wedged.Inc() }

// Inflight returns the number of commands awaiting completion.
func (d *NvmeDriver) Inflight() int { return d.inflight }

// SQTail returns the next submission slot; the buffer for the j-th
// command of the next batch is BufPhys(SQTail()+j).
func (d *NvmeDriver) SQTail() int { return d.sqTail }

// BufPhys returns the physical address of buffer slot i (for test
// verification and app data access).
func (d *NvmeDriver) BufPhys(i int) hw.PhysAddr { return d.bufPhys[i%d.qSize] }

// backoff charges one exponential-backoff wait to the driver core.
func (d *NvmeDriver) backoff(attempt int) {
	wait := uint64(BackoffBaseCycles)
	if attempt > 0 {
		wait <<= uint(attempt)
	}
	d.clock().Charge(wait)
	d.stats.backoffs.Inc()
	if d.tr != nil {
		d.tr.Instant(d.track, d.nBackoff, d.clock().Cycles(), uint64(attempt))
	}
}

// pushSQE writes one submission queue entry at the current tail and
// advances it. The caller rings the doorbell.
func (d *NvmeDriver) pushSQE(op byte, lba uint64, cid uint16, prp hw.PhysAddr) {
	mem := d.K.Machine.Mem
	sqe := d.sqPhys + hw.PhysAddr(d.sqTail*nvme.SQESize)
	var raw [nvme.SQESize]byte
	raw[0] = op
	binary.LittleEndian.PutUint16(raw[2:4], cid)
	binary.LittleEndian.PutUint64(raw[24:32], uint64(prp))
	binary.LittleEndian.PutUint64(raw[40:48], lba)
	mem.Write(sqe, raw[:])
	d.clock().Charge(hw.CostCacheTouch * 4) // build the 64-byte SQE
	d.sqTail = (d.sqTail + 1) % d.qSize
	d.inflight++
}

// ringDoorbell publishes the SQ tail, retrying with backoff when the
// device faults mid-batch (a persistent fault — e.g. an unmapped queue
// page — exhausts the retry budget and surfaces as an error).
func (d *NvmeDriver) ringDoorbell() error {
	var err error
	for attempt := 0; attempt <= MaxRetries; attempt++ {
		d.clock().Charge(hw.CostMMIOWrite)
		if err = d.Dev.WriteSQDoorbell(d.sqTail); err == nil {
			return nil
		}
		d.stats.dmaFaults.Inc()
		if attempt < MaxRetries {
			d.stats.retries.Inc()
			d.backoff(attempt)
		}
	}
	d.stats.failed.Inc()
	return fmt.Errorf("drivers: doorbell: %w", err)
}

// SubmitBatch enqueues n commands (read or write) at sequential LBAs
// starting at slba, one buffer slot per command, then rings the SQ
// doorbell once.
func (d *NvmeDriver) SubmitBatch(op byte, slba uint64, n int) error {
	if n <= 0 || n >= d.qSize {
		return fmt.Errorf("drivers: bad batch size %d", n)
	}
	spanStart := d.clock().Cycles()
	defer func() {
		d.chargeLedger(spanStart)
		if d.tr != nil {
			d.tr.SpanArg(d.track, d.nSubmit, spanStart, d.clock().Cycles(), uint64(n))
		}
	}()
	for i := 0; i < n; i++ {
		cid := d.nextCID
		prp := d.bufDMA[d.sqTail]
		d.pushSQE(op, slba+uint64(i), cid, prp)
		d.inflightCmds[cid] = &nvmeCmd{op: op, lba: slba + uint64(i), prp: prp}
		d.nextCID++
	}
	if err := d.ringDoorbell(); err != nil {
		return err
	}
	d.Submitted += uint64(n)
	d.stats.submitted.Add(uint64(n))
	return nil
}

// PollCompletions reaps up to max completions from the CQ, spinning
// within the driver's cycle budget when completions are late. It
// retries error-status completions (bounded, with backoff) and returns
// the number of successful completions reaped. The error is
// ErrCmdTimeout when the budget expires with commands still in flight,
// or ErrCmdFailed when a command exhausts its retry budget.
func (d *NvmeDriver) PollCompletions(max int) (int, error) {
	clk := d.clock()
	mem := d.K.Machine.Mem
	budget := d.PollBudget
	if budget == 0 {
		budget = DefaultPollBudget
	}
	start := clk.Cycles()
	defer func() {
		d.chargeLedger(start)
		if d.tr != nil {
			d.tr.Span(d.track, d.nPoll, start, clk.Cycles())
		}
	}()
	spin := uint64(pollSpinBase)
	n := 0
	for n < max && d.inflight > 0 {
		// Release any stalled completions whose time has come.
		if err := d.Dev.Poke(); err != nil {
			d.stats.dmaFaults.Inc()
			return n, fmt.Errorf("drivers: poke: %w", err)
		}
		cqe := d.cqPhys + hw.PhysAddr(d.cqHead*nvme.CQESize)
		clk.Charge(hw.CostCacheTouch)
		sp := binary.LittleEndian.Uint16(mem.Read(cqe+14, 2))
		if byte(sp&1) != d.phase {
			// Nothing ready: spin-wait with adaptive pacing, bounded by
			// the cycle budget.
			if clk.Cycles()-start > budget {
				d.stats.timeouts.Inc()
				return n, fmt.Errorf("%w: %d in flight after %d cycles",
					ErrCmdTimeout, d.inflight, budget)
			}
			clk.Charge(spin)
			if spin < pollSpinMax {
				spin *= 2
			}
			continue
		}
		spin = pollSpinBase
		cid := binary.LittleEndian.Uint16(mem.Read(cqe+12, 2))
		status := sp >> 1
		d.cqHead++
		if d.cqHead == d.qSize {
			d.cqHead = 0
			d.phase ^= 1
		}
		d.inflight--
		if status != 0 {
			d.stats.cmdErrors.Inc()
			cmd := d.inflightCmds[cid]
			if cmd == nil {
				// Completion for a command we no longer track (dropped
				// after its retry budget): consume and move on.
				continue
			}
			if cmd.attempts >= MaxRetries {
				delete(d.inflightCmds, cid)
				d.stats.failed.Inc()
				return n, fmt.Errorf("%w: cid %d op %d lba %d status %#x",
					ErrCmdFailed, cid, cmd.op, cmd.lba, status)
			}
			cmd.attempts++
			d.stats.retries.Inc()
			d.backoff(cmd.attempts)
			d.pushSQE(cmd.op, cmd.lba, cid, cmd.prp)
			if err := d.ringDoorbell(); err != nil {
				return n, err
			}
			continue
		}
		delete(d.inflightCmds, cid)
		d.Completed++
		d.stats.completed.Inc()
		n++
	}
	return n, nil
}
