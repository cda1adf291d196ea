package kernel

import (
	"fmt"

	"atmosphere/internal/obs"
)

// Kernel-side observability (internal/obs), the funnel's tracer probe.
// Each entry becomes one span on the invoking core's "kernel" track
// covering exactly the cycles it charged — so summing spans reproduces
// the per-core clock — preceded by a "lock.wait" span when the plan
// waited; interrupts get their own "irq" track.

// kobs is the kernel's per-attach observability state, guarded by the
// big lock like everything else in the kernel.
type kobs struct {
	trace   *obs.Tracer
	metrics *obs.Registry

	ktracks []obs.TrackID // per-core "kernel" span track
	itracks []obs.TrackID // per-core "irq" span track

	nKernel   obs.NameID // fallback span name for unnamed entries
	nIRQ      obs.NameID
	nDirect   obs.NameID // direct-switch instant
	nCtx      obs.NameID // context-switch instant
	nLockWait obs.NameID // big-lock contention span

	cDirect   *obs.Counter
	cCtx      *obs.Counter
	cIRQ      *obs.Counter
	cIRQDrop  *obs.Counter
	cLockWait *obs.Counter
	hLockWait *obs.Histogram

	// Per-syscall counters/histograms, interned on first use.
	sysStats map[string]*sysStat
}

// sysStat is one syscall's metric block.
type sysStat struct {
	count  *obs.Counter
	errs   *obs.Counter
	cycles *obs.Histogram
}

// CoreName renders the canonical pid name of a core's tracks.
func CoreName(core int) string { return fmt.Sprintf("core%d", core) }

// AttachObs wires a tracer and/or metrics registry into the kernel.
// Either may be nil. Call before issuing syscalls; re-attaching resets
// the kernel-side interning state (the tracer itself keeps its ring).
func (k *Kernel) AttachObs(t *obs.Tracer, m *obs.Registry) {
	k.big.Lock()
	defer k.big.Unlock()
	if t == nil && m == nil {
		k.setProbe(probeTrace, nil)
		return
	}
	o := &kobs{trace: t, metrics: m}
	if t != nil {
		for c := 0; c < k.Machine.NumCores(); c++ {
			name := CoreName(c)
			o.ktracks = append(o.ktracks, t.Track(c, name, "kernel"))
			o.itracks = append(o.itracks, t.Track(c, name, "irq"))
		}
		o.nKernel = t.Name("kernel")
		o.nIRQ = t.Name("irq")
		o.nDirect = t.Name("direct-switch")
		o.nCtx = t.Name("ctx-switch")
		o.nLockWait = t.Name("lock.wait")
	}
	if m != nil {
		o.cDirect = m.Counter("sched.direct_switch")
		o.cCtx = m.Counter("sched.ctx_switch")
		o.cIRQ = m.Counter("irq.raised")
		o.cIRQDrop = m.Counter("irq.dropped")
		o.cLockWait = m.Counter("lock.wait.count")
		o.hLockWait = m.Histogram("lock.wait.cycles", nil)
		m.Gauge("sched.steals", k.PM.Steals)
		o.sysStats = make(map[string]*sysStat)
		if t != nil {
			// Ring health: drop-oldest truncation is silent on the trace
			// itself, so surface it in the metrics dump.
			m.Gauge("trace.dropped", t.Dropped)
			m.Gauge("trace.events", func() uint64 { return uint64(t.Len()) })
			m.Gauge("trace.capacity", func() uint64 { return uint64(t.Cap()) })
		}
	}
	k.setProbe(probeTrace, o)
}

// Tracer returns the attached tracer (nil when detached); subsystems
// living inside the kernel's machine (drivers, supervisor) trace
// through it.
func (k *Kernel) Tracer() *obs.Tracer {
	o, _ := k.probes[probeTrace].(*kobs)
	if o == nil {
		return nil
	}
	return o.trace
}

// Metrics returns the attached metrics registry (nil when detached).
func (k *Kernel) Metrics() *obs.Registry {
	o, _ := k.probes[probeTrace].(*kobs)
	if o == nil {
		return nil
	}
	return o.metrics
}

func (o *kobs) on(k *Kernel, ev event, arg uint64) {
	c := &k.cur
	switch {
	case ev == evAcquired && c.wait > 0:
		// The spin: [arrival, arrival+wait) on the core's own timeline,
		// immediately preceding the span the wait delayed.
		if o.trace != nil {
			o.trace.SpanArg(o.ktracks[c.core], o.nLockWait, c.arrival, c.arrival+c.wait, c.wait)
		}
		o.cLockWait.Inc()
		o.hLockWait.Observe(c.wait)
	case ev == evSwitch || ev == evDirectSwitch:
		// The instant lands mid-span, at the core-timeline position of
		// the kernel cycles charged so far.
		if o.trace != nil {
			name := o.nCtx
			if ev == evDirectSwitch {
				name = o.nDirect
			}
			o.trace.Instant(o.ktracks[c.core], name, c.base+(k.kclock.Cycles()-c.start), arg)
		}
		if ev == evDirectSwitch {
			o.cDirect.Inc()
		} else {
			o.cCtx.Inc()
		}
	case ev == evLeave && c.kind == kindIRQ:
		if arg == 0 {
			o.cIRQDrop.Inc() // nothing charged: the filter dropped the edge
			return
		}
		if o.trace != nil {
			o.trace.SpanArg(o.itracks[c.core], o.nIRQ, c.base, c.base+arg, uint64(c.line))
		}
		o.cIRQ.Inc()
	case ev == evLeave:
		o.leave(c, arg)
	}
}

// leave emits a syscall's span and metrics. The span sits on the
// invoking core's timeline starting at the core clock reading the delta
// is about to be charged onto.
func (o *kobs) leave(c *call, delta uint64) {
	name := c.sys
	if o.trace != nil {
		id := o.nKernel
		if name != "" {
			id = o.trace.Name(name)
		}
		o.trace.SpanArg(o.ktracks[c.core], id, c.base, c.base+delta, uint64(c.errno))
	}
	if o.metrics != nil && name != "" {
		st, ok := o.sysStats[name]
		if !ok {
			st = &sysStat{
				count:  o.metrics.Counter("syscall." + name + ".count"),
				errs:   o.metrics.Counter("syscall." + name + ".errors"),
				cycles: o.metrics.Histogram("syscall."+name+".cycles", nil),
			}
			o.sysStats[name] = st
		}
		st.count.Inc()
		if c.errno != OK && c.errno != EWOULDBLOCK {
			st.errs.Inc()
		}
		st.cycles.Observe(delta)
	}
}
