// Package contend is the contention observatory: one registry that
// every lock frontier (hw.LockSim) reports into, plus the scheduler's
// run-queue delay stream (pm.SchedObserver), a runtime lock-order
// checker validating acquisitions against a declared ordering DAG, and
// the footprint checks that ride it (run-queue coverage, post-release
// flushes).
//
// The kernel registers its big lock and every container, endpoint and
// run-queue frontier under its class; the same attribution, counter
// tracks and ordering checks apply to all of them.
//
// Like the rest of internal/obs, everything here only reads the
// deterministic cycle clocks and charges nothing: attaching an
// observatory cannot move a single cycle of any workload, and a
// detached one costs a nil check per hook site.
package contend

import (
	"fmt"

	"atmosphere/internal/hw"
	"atmosphere/internal/obs"
)

// LockID identifies one registered lock frontier within an Observatory.
type LockID int

// lockState is the per-registered-lock observation state.
type lockState struct {
	sim   *hw.LockSim
	class string
	inst  string // instance label, made unique per registration

	// waitHist distributes contended-acquisition wait cycles; per-class
	// views merge these at report time (identical bounds by
	// construction).
	waitHist *obs.Histogram

	// Queue-depth model: serveAt timestamps of acquisitions still ahead
	// of the lock's virtual timeline — an arriving core that must wait
	// queues behind every prior arrival whose service time lies beyond
	// its own arrival. Pruned on every acquisition, so the slice stays
	// as deep as the queue ever gets.
	pending []uint64

	// maxDepth is the deepest holder queue any arrival joined.
	maxDepth uint64

	// Occupancy: heldFrom is the current holder's acquisition point
	// (arrival + wait), and hold sums release point minus acquisition
	// point over every entry — the cycles the frontier was held.
	heldFrom uint64
	hold     uint64

	// Counter-track state (lazy, only with a tracer attached): waitCum
	// is the cumulative wait-cycle counter whose slope is the lock's
	// wait rate; lastDepth dedupes queue-depth samples.
	waitCum   uint64
	lastDepth uint64
	emitted   bool // at least one counter sample written
	track     obs.TrackID
	nWait     obs.NameID
	nQueue    obs.NameID
}

// attrKey attributes wait cycles: which syscall, of which container, on
// which core, paid how long for which lock.
type attrKey struct {
	lock LockID
	sys  string
	cntr hw.PhysAddr
	core int
}

// attrRow accumulates one attribution cell.
type attrRow struct {
	count     uint64 // lock acquisitions through this cell
	contended uint64 // of which had to wait
	wait      uint64 // total wait cycles
}

// Observatory is the contention registry. Not safe for concurrent use —
// like the tracer and metrics registry it relies on the simulation's
// single-threaded execution.
type Observatory struct {
	trace *obs.Tracer

	locks  []*lockState
	lockIx map[*hw.LockSim]LockID
	insts  map[string]int // identity -> registrations, for unique labels

	rows  map[attrKey]*attrRow
	names map[hw.PhysAddr]string // container display names

	// Attached metrics registry (RegisterMetrics): per-class wait and
	// run-queue delay histograms are fed live, so a kernel re-attaching
	// the same observatory every boot never double-counts.
	metrics *obs.Registry
	mclass  map[string]*obs.Histogram
	mrunq   *obs.Histogram

	order *orderChecker // nil until ArmOrder
	sched schedState
}

// New builds an empty observatory.
func New() *Observatory {
	return &Observatory{
		lockIx: make(map[*hw.LockSim]LockID),
		insts:  make(map[string]int),
		rows:   make(map[attrKey]*attrRow),
		names:  make(map[hw.PhysAddr]string),
		sched:  newSchedState(),
	}
}

// AttachTrace wires a tracer in: per-lock Perfetto counter tracks
// (cumulative wait cycles, whose slope is the wait rate, and
// holder-queue depth) merge onto the existing trace timeline, and
// scheduler steal/blocked instants land on a machine-wide "sched"
// track. Nil detaches.
func (o *Observatory) AttachTrace(t *obs.Tracer) {
	if o == nil {
		return
	}
	o.trace = t
	if t != nil {
		o.sched.track = t.Track(obs.MachinePID, "machine", "sched")
		o.sched.nSteal = t.Name("sched.steal")
		o.sched.nBlocked = t.Name("sched.blocked")
		for _, l := range o.locks {
			o.internLockTrack(l)
		}
	}
}

// internLockTrack registers a lock's counter track and series names.
func (o *Observatory) internLockTrack(l *lockState) {
	base := "lock." + l.class + "." + l.inst
	l.track = o.trace.Track(obs.MachinePID, "machine", base)
	l.nWait = o.trace.Name(base + ".waitcycles")
	l.nQueue = o.trace.Name(base + ".queue")
}

// Register adds a lock frontier to the registry and installs the
// observatory as its observer, so every enabled acquisition and release
// reports in. Locks without an identity register as class "lock"; a
// re-registered identity gets a "#<n>" suffix so repeated boots against
// one observatory stay distinguishable (and deterministic).
func (o *Observatory) Register(l *hw.LockSim) LockID {
	if o == nil || l == nil {
		return -1
	}
	if id, ok := o.lockIx[l]; ok {
		return id
	}
	class, inst := l.Class(), l.Instance()
	if class == "" {
		class = "lock"
	}
	if inst == "" {
		inst = fmt.Sprint(len(o.locks))
	}
	key := class + "/" + inst
	if n := o.insts[key]; n > 0 {
		inst = fmt.Sprintf("%s#%d", inst, n)
	}
	o.insts[key]++
	st := &lockState{sim: l, class: class, inst: inst, waitHist: obs.NewHistogram(nil)}
	if o.trace != nil {
		o.internLockTrack(st)
	}
	id := LockID(len(o.locks))
	o.locks = append(o.locks, st)
	o.lockIx[l] = id
	l.SetObserver(o)
	if o.metrics != nil {
		o.registerLockMetrics(st)
	}
	return id
}

// LockAcquire implements hw.LockObserver: per-class wait histogram, the
// queue-depth model, and the counter tracks.
func (o *Observatory) LockAcquire(l *hw.LockSim, arrival, wait uint64) {
	id, ok := o.lockIx[l]
	if !ok {
		return
	}
	st := o.locks[id]
	// Prune arrivals already served by this lock's virtual time, then
	// count what is still ahead — the holder queue this arrival joins.
	// An entry whose service starts exactly at this arrival is still
	// ahead iff this arrival waits (a zero wait means the FIFO already
	// served it: its holder released at or before our arrival).
	keep := st.pending[:0]
	for _, serveAt := range st.pending {
		if serveAt > arrival || (serveAt == arrival && wait > 0) {
			keep = append(keep, serveAt)
		}
	}
	st.pending = keep
	depth := uint64(len(st.pending))
	if depth > st.maxDepth {
		st.maxDepth = depth
	}
	st.pending = append(st.pending, arrival+wait)
	st.heldFrom = arrival + wait
	if wait > 0 {
		st.waitHist.Observe(wait)
		st.waitCum += wait
		o.mclass[st.class].Observe(wait) // nil-safe when no registry
	}
	if o.trace != nil && (wait > 0 || depth != st.lastDepth || !st.emitted) {
		o.trace.Counter(st.track, st.nWait, arrival, st.waitCum)
		o.trace.Counter(st.track, st.nQueue, arrival, depth)
		st.lastDepth = depth
		st.emitted = true
	}
}

// LockRelease implements hw.LockObserver: the frontier was occupied
// from the holder's acquisition to heldUntil. (A jittered arrival can
// put the acquisition past a short hold's release; that entry adds
// nothing.)
func (o *Observatory) LockRelease(l *hw.LockSim, heldUntil uint64) {
	if id, ok := o.lockIx[l]; ok {
		if st := o.locks[id]; heldUntil > st.heldFrom {
			st.hold += heldUntil - st.heldFrom
		}
	}
}

// NameContainer gives a container a display name for attribution rows.
func (o *Observatory) NameContainer(c hw.PhysAddr, name string) {
	if o != nil {
		o.names[c] = name
	}
}

func (o *Observatory) nameOf(c hw.PhysAddr) string {
	if c == 0 {
		return "-"
	}
	if n, ok := o.names[c]; ok {
		return n
	}
	return fmt.Sprintf("cntr-%x", uint64(c))
}

// AttributeWait bills one pass through a lock to its (syscall,
// container, core) cell. wait may be zero — the cell still counts the
// acquisition, so contended shares are computable per cell.
func (o *Observatory) AttributeWait(id LockID, syscall string, cntr hw.PhysAddr, core int, wait uint64) {
	if o == nil || id < 0 {
		return
	}
	if syscall == "" {
		syscall = "?"
	}
	k := attrKey{lock: id, sys: syscall, cntr: cntr, core: core}
	r, ok := o.rows[k]
	if !ok {
		r = &attrRow{}
		o.rows[k] = r
	}
	r.count++
	if wait > 0 {
		r.contended++
		r.wait += wait
	}
}

// RegisterMetrics exposes the observatory in a metrics registry:
// per-lock acquisition/contention/wait gauges, per-class wait
// histograms, the run-queue delay histogram, and the inversion count.
// Already-recorded samples are folded in once; later samples feed the
// registry's histograms live, so a kernel re-attaching the same
// observatory every boot (RegisterMetrics is idempotent per registry)
// never double-counts.
func (o *Observatory) RegisterMetrics(m *obs.Registry) {
	if o == nil || m == nil || m == o.metrics {
		return
	}
	o.metrics = m
	o.mclass = make(map[string]*obs.Histogram)
	for _, st := range o.locks {
		o.registerLockMetrics(st)
	}
	m.Gauge("contend.order.inversions", func() uint64 { return o.InversionCount() })
	m.Gauge("contend.sched.steals", func() uint64 { return o.sched.steals })
	m.Gauge("contend.sched.blocked", func() uint64 { return o.sched.blocked })
	o.mrunq = m.Histogram("contend.runq.delay.cycles", nil)
	_ = o.mrunq.Merge(o.sched.allDelay)
}

// registerLockMetrics registers one lock's gauges and folds its samples
// into its class histogram.
func (o *Observatory) registerLockMetrics(st *lockState) {
	base := "contend.lock." + st.class + "." + st.inst
	o.metrics.Gauge(base+".acquisitions", func() uint64 { a, _, _ := st.sim.Stats(); return a })
	o.metrics.Gauge(base+".contended", func() uint64 { _, c, _ := st.sim.Stats(); return c })
	o.metrics.Gauge(base+".waitcycles", func() uint64 { _, _, w := st.sim.Stats(); return w })
	if _, ok := o.mclass[st.class]; !ok {
		o.mclass[st.class] = o.metrics.Histogram("contend.class."+st.class+".wait.cycles", nil)
	}
	// Bounds are identical by construction; Merge cannot fail.
	_ = o.mclass[st.class].Merge(st.waitHist)
}

// Locks returns (class, instance) identities in registration order.
func (o *Observatory) Locks() []string {
	out := make([]string, len(o.locks))
	for i, st := range o.locks {
		out[i] = st.class + "/" + st.inst
	}
	return out
}
