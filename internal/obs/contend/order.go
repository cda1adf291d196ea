package contend

import (
	"fmt"
	"strings"
)

// The runtime lock-order checker. A declared ordering DAG over lock
// *classes* says which class may be acquired while another is held;
// while armed, the observatory validates every Acquired call against
// the classes already on that core's held stack and captures the first
// violation with both acquisition sites. Off by default — an unarmed
// observatory returns from Acquired/Released after one nil check — and
// armed in tests and under mck schedule exploration.

// Order is an ordering DAG over lock classes: an edge before→after
// permits acquiring an `after`-class lock while a `before`-class lock
// is held. Permissions are transitive (Declare computes the closure
// incrementally); anything undeclared — including nesting a class
// inside itself — is an inversion.
type Order struct {
	allow map[string]map[string]bool
}

// NewOrder builds an empty ordering.
func NewOrder() *Order {
	return &Order{allow: make(map[string]map[string]bool)}
}

// Declare permits acquiring class `after` while class `before` is held,
// plus everything transitivity implies. Declaring a cycle panics — an
// ordering with a cycle cannot order anything.
func (d *Order) Declare(before, after string) {
	if before != after && d.Allows(after, before) {
		panic(fmt.Sprintf("contend: ordering cycle: %s -> %s declared but %s -> %s already allowed", before, after, after, before))
	}
	d.edge(before, after)
	// Close transitively: everything that may hold `before` may now take
	// `after` and its successors; `after`'s successors become reachable
	// from `before`'s predecessors.
	for a, outs := range d.allow {
		if outs[before] || a == before {
			for b := range d.allow[after] {
				d.edge(a, b)
			}
			d.edge(a, after)
		}
	}
}

func (d *Order) edge(a, b string) {
	m, ok := d.allow[a]
	if !ok {
		m = make(map[string]bool)
		d.allow[a] = m
	}
	m[b] = true
}

// Allows reports whether class b may be acquired while class a is held.
func (d *Order) Allows(a, b string) bool {
	if d == nil {
		return true
	}
	return d.allow[a][b]
}

// Rules returns the ordering's permitted edges as "a -> b" strings,
// sorted — for the report rendering of the DAG.
func (d *Order) Rules() []string {
	if d == nil {
		return nil
	}
	var out []string
	for a, outs := range d.allow {
		for b := range outs {
			out = append(out, a+" -> "+b)
		}
	}
	sortStrings(out)
	return out
}

// KernelOrder returns the kernel's declared lock ordering
// (docs/CONCURRENCY.md "Lock ordering"): the big lock outermost, then
// container frontiers, then endpoint frontiers, then the per-core
// run-queue frontiers — the DAG the sharded funnel acquires every lock
// plan in. The two self-edges permit the intra-class nestings the
// kernel performs, each in a total order the plan builder sorts:
// cross-container IPC holds the two containers of a rendezvous at once
// (ascending object address), and a plan touching several cores' run
// queues holds them in ascending core index. No edge leads out of
// runq or back from endpoint to container or big, which is exactly
// what the planted-inversion tests drive against.
func KernelOrder() *Order {
	d := NewOrder()
	d.Declare("big", "container")
	d.Declare("container", "container")
	d.Declare("container", "endpoint")
	d.Declare("endpoint", "runq")
	d.Declare("runq", "runq")
	return d
}

// heldLock is one entry of a core's held stack.
type heldLock struct {
	id   LockID
	site string
}

// Inversion captures one lock-order violation: while holding
// HeldClass/HeldInstance (acquired at HeldSite), core Core tried to
// acquire AcqClass/AcqInstance at AcqSite without a HeldClass→AcqClass
// edge in the ordering.
type Inversion struct {
	Core         int
	HeldClass    string
	HeldInstance string
	HeldSite     string
	AcqClass     string
	AcqInstance  string
	AcqSite      string
}

// String renders the deterministic two-site report.
func (v *Inversion) String() string {
	if v == nil {
		return "<no inversion>"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "lock-order inversion on core %d: acquiring %s/%s at %q while holding %s/%s acquired at %q (no %s -> %s edge declared)",
		v.Core, v.AcqClass, v.AcqInstance, v.AcqSite,
		v.HeldClass, v.HeldInstance, v.HeldSite,
		v.HeldClass, v.AcqClass)
	return b.String()
}

// Error makes an inversion a checker failure.
func (v *Inversion) Error() string { return v.String() }

// orderChecker is the armed checker state: the ordering and per-core
// held stacks, plus the two footprint checks that read the same stacks
// inside a bracketed funnel entry: run-queue coverage (coverage.go) and
// post-release flushes (flush.go).
type orderChecker struct {
	order      *Order
	held       [][]heldLock // per-core held stacks
	first      *Inversion
	inversions uint64
	entry      int // core of the in-flight funnel entry, -1 outside one
	cover      coverage
	flush      flushCheck
}

// ArmOrder arms the runtime lock-order checker against the given
// ordering for the given core count. Arming replaces any previous
// checker (held stacks reset); ArmOrder(nil, 0) disarms.
func (o *Observatory) ArmOrder(d *Order, cores int) {
	if o == nil {
		return
	}
	if d == nil {
		o.order = nil
		return
	}
	if cores < 1 {
		cores = 1
	}
	o.order = &orderChecker{order: d, held: make([][]heldLock, cores), entry: -1}
}

// BeginEntry opens core's funnel entry: until EndEntry, run-queue
// touches and post-release flushes are checked against core's held
// stack. No-op unless armed.
func (o *Observatory) BeginEntry(core int) {
	if o == nil || o.order == nil {
		return
	}
	if core < 0 || core >= len(o.order.held) {
		core = 0 // the stack Acquired pushed onto
	}
	o.order.entry = core
}

// EndEntry closes the in-flight funnel entry. sys names the syscall it
// ran; each check's first violation in the entry is reported under it.
// The held stack is still the entry's: the kernel releases after.
func (o *Observatory) EndEntry(sys string) {
	if o == nil || o.order == nil {
		return
	}
	o.order.cover.end(sys)
	o.endFlushes(sys)
	o.order.entry = -1
}

// heldIdents renders core's held stack as class/instance labels, in
// acquisition order, for a violation report.
func (o *Observatory) heldIdents(core int) []string {
	stack := o.order.held[core]
	held := make([]string, len(stack))
	for i, h := range stack {
		held[i] = o.ident(h.id)
	}
	return held
}

// Acquired pushes lock id onto core's held stack after validating the
// acquisition against the ordering. site names the acquisition site
// ("syscall", "irq", ...) so an inversion report points at code, not
// just classes. No-op unless the checker is armed.
func (o *Observatory) Acquired(core int, id LockID, site string) {
	if o == nil || o.order == nil || id < 0 || int(id) >= len(o.locks) {
		return
	}
	c := o.order
	if core < 0 || core >= len(c.held) {
		core = 0
	}
	acq := o.locks[id]
	for _, h := range c.held[core] {
		held := o.locks[h.id]
		if !c.order.Allows(held.class, acq.class) {
			c.inversions++
			if c.first == nil {
				c.first = &Inversion{
					Core:         core,
					HeldClass:    held.class,
					HeldInstance: held.inst,
					HeldSite:     h.site,
					AcqClass:     acq.class,
					AcqInstance:  acq.inst,
					AcqSite:      site,
				}
			}
		}
	}
	c.held[core] = append(c.held[core], heldLock{id: id, site: site})
}

// Released pops lock id from core's held stack (topmost matching entry,
// so non-LIFO release orders still unwind). No-op unless armed.
func (o *Observatory) Released(core int, id LockID) {
	if o == nil || o.order == nil {
		return
	}
	c := o.order
	if core < 0 || core >= len(c.held) {
		core = 0
	}
	stack := c.held[core]
	for i := len(stack) - 1; i >= 0; i-- {
		if stack[i].id == id {
			c.held[core] = append(stack[:i], stack[i+1:]...)
			return
		}
	}
}

// FirstInversion returns the first captured lock-order violation (nil
// if none, or the checker never armed). First-capture is deterministic:
// same seed, same schedule, same inversion.
func (o *Observatory) FirstInversion() *Inversion {
	if o == nil || o.order == nil {
		return nil
	}
	return o.order.first
}

// InversionCount returns how many ordering violations the armed checker
// has seen (0 when disarmed).
func (o *Observatory) InversionCount() uint64 {
	if o == nil || o.order == nil {
		return 0
	}
	return o.order.inversions
}

// Violation returns the armed checks' first finding: the first
// lock-order inversion, else the first run-queue coverage violation,
// else the first post-release violation; nil when all are clean or the
// checker never armed.
func (o *Observatory) Violation() error {
	if v := o.FirstInversion(); v != nil {
		return v
	}
	if u := o.FirstUncovered(); u != nil {
		return u
	}
	if u := o.FirstUnflushed(); u != nil {
		return u
	}
	return nil
}
