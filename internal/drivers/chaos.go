package drivers

import (
	"encoding/binary"
	"errors"
	"fmt"

	"atmosphere/internal/apps"
	"atmosphere/internal/faults"
	"atmosphere/internal/hw"
	"atmosphere/internal/kernel"
	"atmosphere/internal/nvme"
	"atmosphere/internal/obs"
	"atmosphere/internal/pm"
	"atmosphere/internal/verify"
)

// Chaos harness: a kvstore-with-write-ahead-log workload driven under a
// fault plan, supervised end to end. This is the acceptance scenario of
// the robustness work — with faults injected into the NVMe device, the
// allocator, and the interrupt path, the workload must complete with
// zero panics and zero invariant violations, and a deliberately wedged
// driver must come back through the supervisor's bounded teardown and
// respawn. Everything is deterministic: one seed fixes the fault trace
// (hash-attested) and the final report bit for bit.

// ChaosConfig parameterizes one chaos run.
type ChaosConfig struct {
	Seed uint64
	Plan faults.Plan
	Ops  int // KV operations to perform

	// Attach, when set, wires observers into the booted kernel before
	// anything runs. The harness reads them back from the kernel: the
	// tracer and registry are threaded through the injector,
	// supervisor, driver, and workload; an attached ledger is audited
	// at every verify point (plus once at the end), an audit failure
	// counting as an invariant violation, and names the driver
	// container generations "nvme.gen<N>". Observability never charges
	// cycles, so the report is identical with or without it (driver
	// counters aside: a registry makes them cumulative across respawned
	// generations, which the report already was).
	Attach func(*kernel.Kernel)
}

// ChaosReport is the deterministic outcome of a chaos run: two runs
// with equal ChaosConfig must produce equal reports (String-compare).
type ChaosReport struct {
	Ops            int
	Flushes        uint64
	LostWrites     uint64 // log records abandoned after the retry budget
	WedgeEvents    uint64 // times the harness declared the driver wedged
	Restarts       uint64 // successful supervisor respawns
	KVSets, KVGets uint64
	KVHits         uint64

	Driver    DriverStats // cumulative across driver generations
	Injector  string      // per-kind injection counters
	TraceHash uint64      // fault-trace attestation
	TraceLen  uint64

	Steps      uint64 // kernel transitions observed by the step watcher
	Checked    uint64 // transitions + ops on which TotalWF ran
	Violations int

	TotalCycles uint64
}

// String renders every field; equality of strings is the bit-for-bit
// determinism check.
func (r *ChaosReport) String() string {
	return fmt.Sprintf(
		"ops=%d flushes=%d lost=%d wedges=%d restarts=%d "+
			"kv[sets=%d gets=%d hits=%d] drv[%s] inj[%s] "+
			"trace=%016x/%d steps=%d checked=%d violations=%d cycles=%d",
		r.Ops, r.Flushes, r.LostWrites, r.WedgeEvents, r.Restarts,
		r.KVSets, r.KVGets, r.KVHits, r.Driver.String(), r.Injector,
		r.TraceHash, r.TraceLen, r.Steps, r.Checked, r.Violations,
		r.TotalCycles)
}

// DefaultChaosPlan is the standing fault mix of the acceptance run:
// background command errors, recoverable completion stalls, allocator
// pressure, interrupt noise — plus one window of guaranteed long stalls
// that wedges the driver and forces a supervisor restart.
func DefaultChaosPlan() faults.Plan {
	return faults.Plan{Rules: []faults.Rule{
		// The wedge window: every completion in it stalls for 50M cycles,
		// far past the retry budget, so the first flush wedges the driver
		// and exercises the supervisor. Listed first so it shadows the
		// general stall rule inside the window; recovery itself burns
		// past the window (the heartbeat deadline is 2M cycles), so the
		// resubmitted batch and the rest of the run see only background
		// rates.
		{Kind: faults.NvmeStall, Rate: 1.0, From: 0, Until: 900_000, Param: 50_000_000},
		{Kind: faults.NvmeStall, Rate: 0.02, Param: 150_000},
		{Kind: faults.NvmeCmdError, Rate: 0.05},
		{Kind: faults.AllocExhaust, Rate: 0.01},
		{Kind: faults.IRQDrop, Rate: 0.10},
		{Kind: faults.IRQSpurious, Rate: 0.01},
	}}
}

// Chaos-harness tuning.
const (
	chaosDriverQuota = 300       // pages per driver container generation
	chaosDriverCore  = 1         // driver thread's core
	chaosBatch       = 4         // log records per NVMe flush
	chaosQSize       = 16        // driver queue depth
	chaosVerifyEvery = 16        // ops between full invariant checks, on top of the step watcher
	chaosHeartbeat   = 2_000_000 // supervisor deadline, cycles
	wedgeThreshold   = 3         // consecutive poll timeouts before declaring a wedge
	maxWedgeEvents   = 32        // recoveries before the run gives up
	spuriousIRQLine  = 77        // unbound line raised by IRQSpurious
	recordSize       = 64        // log record bytes
)

type chaosHarness struct {
	cfg  ChaosConfig
	k    *kernel.Kernel
	init pm.Ptr
	dev  *nvme.Device
	inj  *faults.Injector
	sup  *kernel.Supervisor
	drv  *NvmeDriver

	// Tracing state (zero without a tracer).
	tr                     *obs.Tracer
	appTrack, harnessTrack obs.TrackID
	nSet, nGet, nWait      obs.NameID

	gen int // driver generations spawned (ledger naming)

	accum  DriverStats // stats of dead driver generations (no-registry runs)
	report ChaosReport
}

// RunChaosKV executes the workload under cfg's fault plan and returns
// the deterministic report. An error means the run could not complete
// (recovery permanently failed) — distinct from faults that were
// injected and survived, which only show up as report counters.
func RunChaosKV(cfg ChaosConfig) (*ChaosReport, error) {
	if cfg.Ops <= 0 {
		cfg.Ops = 200
	}

	k, init, err := kernel.Boot(hw.Config{Frames: 8192, Cores: 4, TLBSlots: 512})
	if err != nil {
		return nil, err
	}
	if cfg.Attach != nil {
		cfg.Attach(k)
	}
	h := &chaosHarness{cfg: cfg, k: k, init: init}
	h.report.Ops = cfg.Ops
	if t := k.Tracer(); t != nil {
		h.tr = t
		h.appTrack = t.Track(0, kernel.CoreName(0), "app")
		h.harnessTrack = t.Track(0, kernel.CoreName(0), "harness")
		h.nSet = t.Name("kv.set")
		h.nGet = t.Name("kv.get")
		h.nWait = t.Name("chaos.wedge_wait")
	}

	watcher := verify.Watch(k)

	h.inj, err = faults.NewInjector(cfg.Seed, cfg.Plan, k.Machine.TotalCycles)
	if err != nil {
		return nil, err
	}
	h.inj.SetTracer(k.Tracer())
	h.inj.RegisterMetrics(k.Metrics())
	h.dev = nvme.New(k.Machine.Mem, k.IOMMU, 2, 4096)
	h.dev.SetInjector(h.inj)
	k.IRQFilter = func(core, irq int) bool { return !h.inj.Hit(faults.IRQDrop) }

	// The supervisor runs as the init thread; every bounded-kill step is
	// invariant-checked.
	h.sup = kernel.NewSupervisor(k, init, chaosHeartbeat)
	h.sup.OnStep = func() error { return verify.TotalWF(k) }

	// First driver generation comes up fault-free (the plan arms only
	// after setup); respawns run under the active plan and must survive
	// injected allocator failures.
	cntr, drv, err := h.spawnDriver()
	if err != nil {
		return nil, fmt.Errorf("drivers: chaos initial setup: %w", err)
	}
	h.drv = drv
	h.sup.Register("nvme", cntr, h.respawn)

	// Allocator faults arm only now: boot and first setup are trusted.
	k.Alloc.SetFaultHook(func() bool { return h.inj.Hit(faults.AllocExhaust) })

	kv, err := apps.NewKVStore(4096, 8, 16)
	if err != nil {
		return nil, err
	}
	appClk := &k.Machine.Core(0).Clock

	records := make([][]byte, 0, chaosBatch)
	lba := uint64(0)
	var key [8]byte
	var val [16]byte
	for op := 0; op < cfg.Ops; op++ {
		binary.LittleEndian.PutUint64(key[:], uint64(op)%997)
		binary.LittleEndian.PutUint64(val[:], uint64(op))
		binary.LittleEndian.PutUint64(val[8:], cfg.Seed)
		setStart := appClk.Cycles()
		okSet := kv.Set(appClk, key[:], val[:])
		h.appSpan(h.nSet, setStart, uint64(op))
		if !okSet {
			return nil, fmt.Errorf("drivers: kv table full at op %d", op)
		}
		h.report.KVSets++
		// Read-after-write of an earlier key keeps the GET path hot.
		if op%3 == 0 {
			binary.LittleEndian.PutUint64(key[:], uint64(op/2)%997)
			getStart := appClk.Cycles()
			_, hit := kv.Get(appClk, key[:])
			h.appSpan(h.nGet, getStart, uint64(op))
			if hit {
				h.report.KVHits++
			}
			h.report.KVGets++
		}
		// Append the op to the write-ahead log.
		rec := make([]byte, recordSize)
		binary.LittleEndian.PutUint64(rec, uint64(op))
		copy(rec[8:], key[:])
		copy(rec[16:], val[:])
		records = append(records, rec)
		if len(records) == chaosBatch {
			if err := h.flush(records, lba); err != nil {
				return &h.report, err
			}
			lba = (lba + chaosBatch) % 1024
			records = records[:0]
		}
		// Interrupt noise: spurious edges on an unbound line must be
		// absorbed by dispatch.
		if h.inj.Hit(faults.IRQSpurious) {
			k.RaiseIRQ(0, spuriousIRQLine)
		}
		if op%chaosVerifyEvery == 0 {
			h.report.Checked++
			if err := verify.TotalWF(k); err != nil {
				h.report.Violations++
			}
			// The closure audit rides the same cadence: a page leaked
			// across a wedge/respawn shows up as a violation here.
			if err := k.Ledger().Audit(); err != nil {
				h.report.Violations++
			}
		}
	}
	if len(records) > 0 {
		if err := h.flush(records, lba); err != nil {
			return &h.report, err
		}
	}

	h.report.Driver = h.accum
	h.report.Driver.Add(h.drv.Stats())
	h.report.Restarts = h.sup.Restarts("nvme")
	h.report.Injector = h.inj.Counts()
	h.report.TraceHash = h.inj.TraceHash()
	h.report.TraceLen = h.inj.TraceLen()
	h.report.Steps = watcher.Steps
	h.report.Checked += watcher.Steps
	h.report.Violations += len(watcher.Violations)
	h.report.TotalCycles = k.Machine.TotalCycles()
	if err := k.Ledger().Audit(); err != nil {
		h.report.Violations++
		return &h.report, fmt.Errorf("drivers: final ledger audit: %w", err)
	}
	if err := verify.TotalWF(k); err != nil {
		h.report.Violations++
		return &h.report, fmt.Errorf("drivers: final state ill-formed: %w", err)
	}
	return &h.report, nil
}

// flush writes the batch's records through the driver, riding out
// command errors (driver-level retry), stalls (poll again), failed
// commands (count as lost), and wedges (supervisor restart, resubmit).
func (h *chaosHarness) flush(records [][]byte, lba uint64) error {
	mem := h.k.Machine.Mem
	for {
		if h.report.WedgeEvents > maxWedgeEvents {
			return fmt.Errorf("drivers: chaos: %d wedges, giving up", h.report.WedgeEvents)
		}
		for j, rec := range records {
			mem.Write(h.drv.BufPhys(h.drv.SQTail()+j), rec)
		}
		if err := h.drv.SubmitBatch(nvme.OpWrite, lba, len(records)); err != nil {
			if rerr := h.recoverWedge(); rerr != nil {
				return rerr
			}
			continue // resubmit through the fresh driver
		}
		remaining := len(records)
		timeouts := 0
		wedged := false
		for remaining > 0 {
			n, err := h.drv.PollCompletions(remaining)
			remaining -= n
			if err == nil {
				continue
			}
			switch {
			case errors.Is(err, ErrCmdFailed):
				// The command was abandoned; its log record is lost.
				h.report.LostWrites++
				remaining--
			case errors.Is(err, ErrCmdTimeout):
				timeouts++
				if timeouts >= wedgeThreshold {
					wedged = true
				}
			default:
				wedged = true
			}
			if wedged {
				break
			}
		}
		if wedged {
			if rerr := h.recoverWedge(); rerr != nil {
				return rerr
			}
			continue // media writes are idempotent: redo the whole batch
		}
		h.report.Flushes++
		h.sup.Heartbeat("nvme")
		// A routine watchdog sweep per flush (normally a no-op).
		if _, err := h.sup.Check(0); err != nil {
			return err
		}
		return nil
	}
}

// recoverWedge folds the dead generation's counters, waits out the
// heartbeat deadline, and lets the supervisor kill + respawn the driver.
func (h *chaosHarness) recoverWedge() error {
	h.report.WedgeEvents++
	h.drv.NoteWedged()
	if h.k.Metrics() == nil {
		// Standalone counters die with the generation: fold them now.
		// (Registry-backed counters are shared with the successor, so the
		// last generation's Stats() is already the cumulative total.)
		h.accum.Add(h.drv.Stats())
	}
	before := h.sup.Restarts("nvme")
	// Burn supervisor-core cycles until the deadline passes and the
	// watchdog acts (bounded: the deadline is a fixed cycle count away).
	for spin := 0; spin < 64; spin++ {
		events, err := h.sup.Check(0)
		if err != nil {
			return err
		}
		if len(events) > 0 || h.sup.Restarts("nvme") > before {
			return nil
		}
		clk := &h.k.Machine.Core(0).Clock
		waitStart := clk.Cycles()
		clk.Charge(chaosHeartbeat / 8)
		if h.tr != nil {
			h.tr.Span(h.harnessTrack, h.nWait, waitStart, clk.Cycles())
		}
	}
	return fmt.Errorf("drivers: chaos: supervisor never restarted the driver")
}

// appSpan traces one kvstore operation on core 0's app track.
func (h *chaosHarness) appSpan(name obs.NameID, start uint64, arg uint64) {
	if h.tr != nil {
		h.tr.SpanArg(h.appTrack, name, start, h.k.Machine.Core(0).Clock.Cycles(), arg)
	}
}

// spawnDriver builds one driver generation: container, process, thread,
// device setup. On setup failure the partial container is reclaimed so
// quota cannot leak.
func (h *chaosHarness) spawnDriver() (pm.Ptr, *NvmeDriver, error) {
	k := h.k
	r := k.SysNewContainer(0, h.init, chaosDriverQuota, []int{chaosDriverCore})
	if r.Errno != kernel.OK {
		return 0, nil, fmt.Errorf("drivers: chaos container: %v", r.Errno)
	}
	cntr := pm.Ptr(r.Vals[0])
	fail := func(err error) (pm.Ptr, *NvmeDriver, error) {
		for {
			kr := k.SysKillContainerBounded(0, h.init, cntr, 64)
			if kr.Errno != kernel.EAGAIN {
				break
			}
		}
		return 0, nil, err
	}
	rp := k.SysNewProcessIn(0, h.init, cntr)
	if rp.Errno != kernel.OK {
		return fail(fmt.Errorf("drivers: chaos proc: %v", rp.Errno))
	}
	rt := k.SysNewThreadIn(0, h.init, pm.Ptr(rp.Vals[0]), chaosDriverCore)
	if rt.Errno != kernel.OK {
		return fail(fmt.Errorf("drivers: chaos thread: %v", rt.Errno))
	}
	drv, err := SetupNvme(k, pm.Ptr(rt.Vals[0]), chaosDriverCore, h.dev, chaosQSize, true)
	if err != nil {
		return fail(fmt.Errorf("drivers: chaos setup: %w", err))
	}
	if l := k.Ledger(); l != nil {
		l.NameContainer(cntr, fmt.Sprintf("nvme.gen%d", h.gen))
		// Fixed gauge name: re-registration repoints the live gauges at
		// the new generation's container, like the shared stat counters.
		l.RegisterContainerMetrics(k.Metrics(), "nvme", cntr)
	}
	h.gen++
	return cntr, drv, nil
}

// respawn is the supervisor's rebuild callback: retried with backoff so
// injected allocator failures during recovery do not end the run.
func (h *chaosHarness) respawn() (pm.Ptr, error) {
	var lastErr error
	for attempt := 0; attempt <= MaxRetries; attempt++ {
		cntr, drv, err := h.spawnDriver()
		if err == nil {
			h.drv = drv
			return cntr, nil
		}
		lastErr = err
		h.k.Machine.Core(0).Clock.Charge(uint64(BackoffBaseCycles) << uint(attempt))
	}
	return 0, lastErr
}
