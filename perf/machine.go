package perf

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"

	"atmosphere/internal/hw"
	"atmosphere/internal/kernel"
	"atmosphere/internal/obs"
	"atmosphere/internal/obs/account"
	"atmosphere/internal/obs/contend"
	"atmosphere/internal/pm"
)

// The closed-loop kernel workloads share one machine shape: 8 cores,
// 32,768 frames, per-core page caches refilled 32 frames at a time, and
// work stealing — with the contention model armed for the measured
// phase.
const (
	mcCores  = 8
	mcFrames = 32768
	mcBatch  = 32
)

// traceCap is the kernel tracer's ring. The traced repetition records
// events until the ring is half full and then detaches the tracer, so
// the exported window never drops an event.
const traceCap = 1 << 16

// tracing is the traced repetition's set of sinks: the ones the kernel,
// the cluster and the model checker already expose, and nothing else.
type tracing struct {
	dir    string
	tracer *obs.Tracer
	reg    *obs.Registry
	cont   *contend.Observatory
	ledger *account.Ledger
}

func newTracing(root, workload string) *tracing {
	t := &tracing{
		tracer: obs.NewTracer(traceCap),
		reg:    obs.NewRegistry(),
		cont:   contend.New(),
		ledger: account.NewLedger(),
	}
	if root != "" {
		t.dir = filepath.Join(root, workload)
	}
	return t
}

// write stores one traced-run artifact under the trace directory.
func (t *tracing) write(file string, data []byte) error {
	if t.dir == "" {
		return nil
	}
	if err := os.MkdirAll(t.dir, 0o755); err != nil {
		return fmt.Errorf("perf: trace dir: %w", err)
	}
	if err := os.WriteFile(filepath.Join(t.dir, file), data, 0o644); err != nil {
		return fmt.Errorf("perf: trace artifact: %w", err)
	}
	return nil
}

// attach wires every kernel sink into k: tracer and registry, the
// contention observatory, and the accounting ledger.
func (t *tracing) attach(k *kernel.Kernel) {
	k.AttachObs(t.tracer, t.reg)
	k.AttachContention(t.cont)
	k.AttachLedger(t.ledger)
}

// runqDelays is the run-queue delay distribution the observatory feeds
// into the registry (bucketed: its quantiles are bucket bounds).
func (t *tracing) runqDelays() *obs.Histogram {
	return t.reg.Histogram("contend.runq.delay.cycles", nil)
}

// sysAcc accumulates one syscall's outside-measured cost: calls, core
// clock cycles across the call (lock wait included), and — traced runs
// only — the lock wait part.
type sysAcc struct {
	n, cycles, wait uint64
}

func (a *sysAcc) mean() float64 { return ratio(float64(a.cycles), float64(a.n)) }

// machine is one booted closed-loop kernel with the outside meters the
// workloads read.
type machine struct {
	k    *kernel.Kernel
	init pm.Ptr
	tr   *tracing

	// Snapshots at the start of the measured phase.
	start                         uint64
	lockA, lockC, lockW           uint64
	hits, misses, refills, drains uint64
	steals, direct, ctx           uint64
	regStart                      map[string]uint64
	windowOpen                    bool

	// kcycles sums the outside-measured cycles of every Sys* call of the
	// phase; crossings counts them.
	kcycles, crossings uint64
}

func bootMachine(tr *tracing) (*machine, error) {
	k, init, err := kernel.Boot(hw.Config{Frames: mcFrames, Cores: mcCores, TLBSlots: 256})
	if err != nil {
		return nil, err
	}
	if tr != nil {
		tr.attach(k)
	}
	k.EnableCoreCaches(mcBatch)
	k.PM.EnableWorkStealing()
	return &machine{k: k, init: init, tr: tr, windowOpen: tr != nil}, nil
}

func (m *machine) clock(core int) *hw.Clock { return &m.k.Machine.Core(core).Clock }

// begin starts the measured phase. Set-up ran from core 0 and skewed
// the clocks, so every core clock is first advanced to the latest one —
// all cores start now — and the contention model is armed. syscalls
// names the registry's per-syscall cycle sums the traced run compares
// against.
func (m *machine) begin(syscalls ...string) {
	for c := 0; c < mcCores; c++ {
		if cy := m.clock(c).Cycles(); cy > m.start {
			m.start = cy
		}
	}
	for c := 0; c < mcCores; c++ {
		m.clock(c).Charge(m.start - m.clock(c).Cycles())
	}
	m.k.EnableContention()
	m.lockA, m.lockC, m.lockW = m.k.LockStats()
	m.hits, m.misses, m.refills, m.drains = m.k.CoreCaches().Stats()
	m.steals = m.k.PM.Steals()
	if m.tr != nil {
		m.direct = m.tr.reg.Counter("sched.direct_switch").Value()
		m.ctx = m.tr.reg.Counter("sched.ctx_switch").Value()
		m.regStart = map[string]uint64{}
		for _, name := range syscalls {
			m.regStart[name] = m.registered(name)
		}
	}
}

// registered is the registry's cycle sum for one syscall (traced runs).
func (m *machine) registered(name string) uint64 {
	return m.tr.reg.Histogram("syscall."+name+".cycles", nil).Sum()
}

// stamp is the state read just before a timed Sys* call.
type stamp struct{ t0, w0 uint64 }

func (m *machine) enter(core int) stamp {
	s := stamp{t0: m.clock(core).Cycles()}
	if m.tr != nil {
		_, _, s.w0 = m.k.LockStats()
	}
	return s
}

// leave charges the call that began at s to a and returns its cycles.
func (m *machine) leave(core int, s stamp, a *sysAcc) uint64 {
	d := m.clock(core).Cycles() - s.t0
	a.n++
	a.cycles += d
	if m.tr != nil {
		_, _, w := m.k.LockStats()
		a.wait += w - s.w0
	}
	m.kcycles += d
	m.crossings++
	return d
}

// poll closes the traced repetition's event window once the tracer ring
// is half full: the tracer detaches and the registry, observatory and
// ledger keep recording.
func (m *machine) poll() {
	if m.windowOpen && m.tr.tracer.Len() >= traceCap/2 {
		m.k.AttachObs(nil, m.tr.reg)
		m.tr.cont.AttachTrace(nil)
		m.windowOpen = false
	}
}

// finish computes the phase's simulated figures into o and, on a traced
// run, the trace figures and the traced-run checks: per-syscall cycle
// sums measured from outside (minus lock wait) equal the registry's
// syscall.<name>.cycles sums exactly, the ledger audits clean, and the
// exported event window dropped nothing.
func (m *machine) finish(o *outcome, named map[string]*sysAcc) error {
	var wall, total uint64
	for c := 0; c < mcCores; c++ {
		d := m.clock(c).Cycles() - m.start
		total += d
		if d > wall {
			wall = d
		}
	}
	ops := float64(o.ops)
	o.sim["throughput_mops"] = ratio(ops*hw.ClockHz, float64(wall)) / 1e6
	o.sim["cycles_per_op"] = ratio(float64(total), ops)
	o.sim["kernel.crossings_per_op"] = ratio(float64(m.crossings), ops)
	o.sim["kernel.cycle_share"] = ratio(float64(m.kcycles), float64(total))
	a, c, w := m.k.LockStats()
	o.sim["lock.acquisitions_per_op"] = ratio(float64(a-m.lockA), ops)
	o.sim["lock.contended_ratio"] = ratio(float64(c-m.lockC), float64(a-m.lockA))
	o.sim["lock.wait_cycles_per_op"] = ratio(float64(w-m.lockW), ops)
	o.sim["lock.wait_share"] = ratio(float64(w-m.lockW), float64(total))
	hits, misses, refills, drains := m.k.CoreCaches().Stats()
	o.sim["mem.cache_hit_ratio"] = ratio(float64(hits-m.hits), float64(hits-m.hits+misses-m.misses))
	o.sim["mem.refills_per_kop"] = ratio(1000*float64(refills-m.refills), ops)
	o.sim["mem.drains_per_kop"] = ratio(1000*float64(drains-m.drains), ops)
	o.sim["pm.steals_per_kop"] = ratio(1000*float64(m.k.PM.Steals()-m.steals), ops)
	if m.tr == nil {
		return nil
	}

	t := m.tr
	for name, acc := range named {
		got := m.registered(name) - m.regStart[name]
		if got != acc.cycles-acc.wait {
			return fmt.Errorf("syscall %s: outside %d cycles - %d lock wait != registry %d",
				name, acc.cycles, acc.wait, got)
		}
	}
	for _, cs := range t.cont.ByClass() {
		switch cs.Class {
		case "big", "container", "endpoint":
			o.trace["trace.lock_wait_share."+cs.Class] = ratio(float64(cs.WaitCycles), float64(total))
		}
	}
	for _, name := range []string{"mmap", "munmap", "yield"} {
		if acc, ok := named[name]; ok {
			o.trace["trace.lock_wait_cycles."+name] = ratio(float64(acc.wait), float64(acc.n))
		}
	}
	o.trace["trace.runq_delay_p99_cycles"] = float64(t.runqDelays().Quantile(0.99))
	o.trace["trace.direct_switches_per_op"] = ratio(float64(t.reg.Counter("sched.direct_switch").Value()-m.direct), ops)
	o.trace["trace.ctx_switches_per_op"] = ratio(float64(t.reg.Counter("sched.ctx_switch").Value()-m.ctx), ops)
	if err := t.ledger.Audit(); err != nil {
		return fmt.Errorf("ledger audit: %w", err)
	}
	if d := t.tracer.Dropped(); d != 0 {
		return fmt.Errorf("exported tracer window dropped %d events", d)
	}
	return t.exportKernel()
}

// exportKernel writes the event window as a Perfetto trace, the metrics
// registry and the contention report.
func (t *tracing) exportKernel() error {
	var trace, metrics, cont bytes.Buffer
	if err := obs.WriteTrace(&trace, t.tracer); err != nil {
		return err
	}
	if err := t.reg.WriteText(&metrics); err != nil {
		return err
	}
	if err := t.cont.WriteReport(&cont); err != nil {
		return err
	}
	for file, b := range map[string][]byte{
		"trace.json": trace.Bytes(), "metrics.txt": metrics.Bytes(), "contention.txt": cont.Bytes(),
	} {
		if err := t.write(file, b); err != nil {
			return err
		}
	}
	return nil
}

// mix64 is a SplitMix64 finalizer: the workloads' deterministic
// stand-in for randomness, so inputs are a pure function of the seed.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}
