package kernel

import "atmosphere/internal/pm"

// Funnel probes. Every syscall and every interrupt passes through
// enterWith, which fills one in-flight record (k.cur) and reports the
// entry's events to the attached probes through one fan-out (emit):
//
//   - evAcquired: the lock plan is held; core, arrival, the waits, the
//     held frontiers and both clock bases are final.
//   - evResolved: callerThread validated the caller; cntr is final.
//   - evSwitch / evDirectSwitch: the scheduler handed the core to the
//     thread in arg (noteSwitch).
//   - evLeave: the entry is done; sys and errno are final and arg is
//     the kernel cycles it charged, about to move onto the core clock.
//
// post fills sys and errno and calls PostSyscall. The probes fire in
// slot order — tracer/registry, ledger, contention observatory — so the
// streams they write do not depend on the order they were attached in.
// They only read the record and the clocks: attaching one never changes
// a charged cycle (bench.TestProbesAreFree).

// callKind tells a syscall entry from an interrupt dispatch.
type callKind uint8

const (
	kindSyscall callKind = iota
	kindIRQ
)

// call is the in-flight funnel record. The big lock serializes entries,
// so the kernel keeps exactly one, refilled at every entry.
type call struct {
	kind    callKind
	core    int
	arrival uint64     // core clock when the plan's first frontier was requested
	wait    uint64     // total lock wait; held[i].wait is each frontier's share
	held    []frontier // the plan's frontiers, in acquisition order
	start   uint64     // kernel clock at entry
	base    uint64     // core clock at entry, after the wait
	exit    uint64     // exit cost leave charges
	local   uint64     // core-local share of the cycles (page-cache work)
	cntr    pm.Ptr     // caller's container; 0 while unresolved and for interrupts
	sys     string     // syscall name; "irq" for interrupts
	errno   Errno
	line    int // interrupt line (kindIRQ)
}

// event is one funnel point a probe observes.
type event uint8

const (
	evAcquired event = iota
	evResolved
	evSwitch
	evDirectSwitch
	evLeave
)

// probe is one consumer of the funnel's events: observe.go (tracer and
// registry), account.go (ledger), contend.go (contention observatory).
type probe interface {
	on(k *Kernel, ev event, arg uint64)
}

// Probe slots, in fan-out order.
const (
	probeTrace = iota
	probeLedger
	probeContend
	nProbes
)

// emit is the fan-out: it delivers one event to every attached probe.
func (k *Kernel) emit(ev event, arg uint64) {
	for _, p := range k.probes {
		if p != nil {
			p.on(k, ev, arg)
		}
	}
}

// setProbe installs (nil: removes) the probe in slot, then re-wires the
// consumers that feed one another: the observatory's counter tracks and
// every consumer's gauges go to whichever tracer and registry are
// attached now. Called under the big lock by the Attach functions.
func (k *Kernel) setProbe(slot int, p probe) {
	k.probes[slot] = p
	t, m := k.Tracer(), k.Metrics()
	if c := k.Contention(); c != nil {
		c.AttachTrace(t)
		c.RegisterMetrics(m)
	}
	k.Ledger().RegisterMetrics(m)
}

// noteSwitch reports a scheduler handoff inside the current entry:
// direct (IPC fastpath handoff to the partner thread) or a full context
// switch.
func (k *Kernel) noteSwitch(direct bool, to pm.Ptr) {
	ev := evSwitch
	if direct {
		ev = evDirectSwitch
	}
	k.emit(ev, uint64(to))
}
