package contend

import (
	"atmosphere/internal/hw"
	"atmosphere/internal/obs"
)

// The scheduler delay stream. Observatory implements pm.SchedObserver
// structurally (pm.Ptr is an alias of hw.PhysAddr, so the signatures
// match without importing pm): ready→running run-queue delays feed
// per-core and per-container histograms, steals record their
// thief←victim provenance, and blocked-on edges accumulate per
// (container, endpoint). With a tracer attached, steals and blocks also
// land as instants on a machine-wide "sched" track. Run-queue mutations
// (RunqTouched) feed the coverage check in coverage.go.

// stealPair keys steal provenance: thief took work from victim.
type stealPair struct {
	thief, victim int
}

// blockEdge keys blocked-on edges: a thread of container cntr blocked
// on endpoint on.
type blockEdge struct {
	cntr, on hw.PhysAddr
}

type schedState struct {
	allDelay  *obs.Histogram
	coreDelay []*obs.Histogram
	cntrDelay map[hw.PhysAddr]*obs.Histogram

	steals     uint64
	stealProv  map[stealPair]uint64
	blocked    uint64
	blockEdges map[blockEdge]uint64

	track    obs.TrackID
	nSteal   obs.NameID
	nBlocked obs.NameID
}

func newSchedState() schedState {
	return schedState{
		allDelay:   obs.NewHistogram(nil),
		cntrDelay:  make(map[hw.PhysAddr]*obs.Histogram),
		stealProv:  make(map[stealPair]uint64),
		blockEdges: make(map[blockEdge]uint64),
	}
}

// RunqDelay implements pm.SchedObserver: one ready→running transition
// of a thread of container cntr on core, after delay cycles queued.
func (o *Observatory) RunqDelay(core int, cntr hw.PhysAddr, delay, now uint64) {
	if o == nil {
		return
	}
	s := &o.sched
	s.allDelay.Observe(delay)
	o.mrunq.Observe(delay) // nil-safe when no registry
	for core >= len(s.coreDelay) {
		s.coreDelay = append(s.coreDelay, nil)
	}
	if s.coreDelay[core] == nil {
		s.coreDelay[core] = obs.NewHistogram(nil)
	}
	s.coreDelay[core].Observe(delay)
	h, ok := s.cntrDelay[cntr]
	if !ok {
		h = obs.NewHistogram(nil)
		s.cntrDelay[cntr] = h
	}
	h.Observe(delay)
}

// Steal implements pm.SchedObserver: thief migrated thrd (of container
// cntr) off victim's queue. The provenance instant's argument packs
// thief and victim so the trace shows who raided whom.
func (o *Observatory) Steal(thief, victim int, thrd, cntr hw.PhysAddr, now uint64) {
	if o == nil {
		return
	}
	s := &o.sched
	s.steals++
	s.stealProv[stealPair{thief, victim}]++
	if o.trace != nil {
		o.trace.Instant(s.track, s.nSteal, now, uint64(thief)<<32|uint64(victim))
	}
}

// Blocked implements pm.SchedObserver: a thread of container cntr
// blocked on endpoint on (an IPC rendezvous edge).
func (o *Observatory) Blocked(thrd, cntr, on hw.PhysAddr, now uint64) {
	if o == nil {
		return
	}
	s := &o.sched
	s.blocked++
	s.blockEdges[blockEdge{cntr: cntr, on: on}]++
	if o.trace != nil {
		o.trace.Instant(s.track, s.nBlocked, now, uint64(on))
	}
}

// Steals returns the observed steal count.
func (o *Observatory) Steals() uint64 {
	if o == nil {
		return 0
	}
	return o.sched.steals
}

// RunqDelays returns the merged ready→running delay histogram.
func (o *Observatory) RunqDelays() *obs.Histogram {
	if o == nil {
		return nil
	}
	return o.sched.allDelay
}
