package contend

import (
	"fmt"
	"strings"

	"atmosphere/internal/hw"
)

// The run-queue coverage check: the footprint check for the runq lock
// class. A syscall's lock plan must hold the run-queue frontier of
// every core whose run queue the syscall mutates. The scheduler reports
// each mutation (RunqTouched, part of pm.SchedObserver) and the kernel
// brackets each funnel entry (BeginEntry/EndEntry); a touch of queue q
// inside an entry whose held stack lacks q's frontier is a violation.
// The check rides the order checker: it reads the same held stacks, is
// armed only while that checker is (CoverRunqs after ArmOrder), and a
// re-arm resets it. Touches outside an entry — boot, tests driving the
// scheduler directly — are not syscalls and are not checked.

// Uncovered captures one run-queue coverage violation: inside core
// Core's funnel entry for Syscall, the scheduler mutated run queue Queue
// while the plan held Held (class/instance, in acquisition order) but
// not Missing, that queue's frontier.
type Uncovered struct {
	Core    int
	Syscall string
	Queue   int
	Held    []string
	Missing string
}

// String renders the deterministic one-line report.
func (u *Uncovered) String() string {
	if u == nil {
		return "<no coverage violation>"
	}
	return fmt.Sprintf("run-queue coverage violation on core %d: %s touched run queue %d holding [%s] without %s",
		u.Core, u.Syscall, u.Queue, strings.Join(u.Held, " "), u.Missing)
}

// Error makes a coverage violation a checker failure.
func (u *Uncovered) Error() string { return u.String() }

// coverage is the armed check's state inside orderChecker. One
// violation is one entry touching one queue its plan lacks, however
// often the entry touches it.
type coverage struct {
	runq    []LockID   // runq[q]: the frontier guarding core q's run queue; nil while unarmed
	missed  []int      // queues the in-flight entry touched uncovered
	pending *Uncovered // the entry's first violation, named at EndEntry
	first   *Uncovered
	count   uint64
}

// CoverRunqs arms the run-queue coverage check: runqs[q] is the frontier
// guarding core q's run queue. It needs the order checker armed (a
// no-op otherwise) and registers any frontier not yet registered.
func (o *Observatory) CoverRunqs(runqs []*hw.LockSim) {
	if o == nil || o.order == nil {
		return
	}
	c := &o.order.cover
	c.runq = make([]LockID, len(runqs))
	for q, l := range runqs {
		c.runq[q] = o.Register(l)
	}
}

// end closes the entry for the coverage check: its first violation, if
// any, is reported under sys.
func (c *coverage) end(sys string) {
	if c.pending != nil {
		c.pending.Syscall = sys
		if c.first == nil {
			c.first = c.pending
		}
		c.pending = nil
	}
	c.missed = c.missed[:0]
}

// RunqTouched implements pm.SchedObserver: the scheduler mutated core
// q's run queue. Inside an armed entry, a plan without q's frontier is a
// violation.
func (o *Observatory) RunqTouched(q int) {
	if o == nil || o.order == nil {
		return
	}
	c := &o.order.cover
	core := o.order.entry
	if core < 0 || q < 0 || q >= len(c.runq) {
		return
	}
	for _, h := range o.order.held[core] {
		if h.id == c.runq[q] {
			return
		}
	}
	for _, m := range c.missed {
		if m == q {
			return
		}
	}
	c.missed = append(c.missed, q)
	c.count++
	if c.first != nil || c.pending != nil {
		return
	}
	c.pending = &Uncovered{Core: core, Queue: q, Held: o.heldIdents(core), Missing: o.ident(c.runq[q])}
}

// ident is a registered lock's class/instance label.
func (o *Observatory) ident(id LockID) string {
	st := o.locks[id]
	return st.class + "/" + st.inst
}

// FirstUncovered returns the first run-queue coverage violation (nil if
// none, or the check never armed). Like the first inversion it is
// deterministic: same program, same schedule, same line.
func (o *Observatory) FirstUncovered() *Uncovered {
	if o == nil || o.order == nil {
		return nil
	}
	return o.order.cover.first
}

// UncoveredCount returns how many coverage violations the armed check
// has seen (0 when disarmed).
func (o *Observatory) UncoveredCount() uint64 {
	if o == nil || o.order == nil {
		return 0
	}
	return o.order.cover.count
}
