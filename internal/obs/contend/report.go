package contend

import (
	"fmt"
	"io"
	"sort"

	"atmosphere/internal/hw"
	"atmosphere/internal/obs"
)

// The contention report: plain text, sorted within every section, so
// equal runs render byte-identically — the property the CLI determinism
// checks and golden diffs rely on.

func sortStrings(s []string) { sort.Strings(s) }

// LockSummary is one row of the top-contended table.
type LockSummary struct {
	Ident        string // "class/instance"
	Acquisitions uint64
	Contended    uint64
	WaitCycles   uint64
	HoldCycles   uint64 // occupancy: release minus acquisition point, summed over entries
	MaxQueue     uint64
	P50, P99     uint64 // wait-cycle quantiles over contended acquisitions
}

// Summary builds the per-lock rows sorted most-contended first (by wait
// cycles, then identity for a stable total order).
func (o *Observatory) Summary() []LockSummary {
	if o == nil {
		return nil
	}
	out := make([]LockSummary, 0, len(o.locks))
	for _, st := range o.locks {
		a, c, w := st.sim.Stats()
		out = append(out, LockSummary{
			Ident:        st.class + "/" + st.inst,
			Acquisitions: a, Contended: c, WaitCycles: w, HoldCycles: st.hold,
			MaxQueue: st.maxDepth,
			P50:      st.waitHist.Quantile(0.50),
			P99:      st.waitHist.Quantile(0.99),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].WaitCycles != out[j].WaitCycles {
			return out[i].WaitCycles > out[j].WaitCycles
		}
		return out[i].Ident < out[j].Ident
	})
	return out
}

// ClassSummary is one row of the by-class rollup: every frontier of a
// class (dozens of endpoints, one row) merged into aggregate counts and
// a merged wait distribution.
type ClassSummary struct {
	Class        string
	Locks        int // frontiers registered under the class
	Acquisitions uint64
	Contended    uint64
	WaitCycles   uint64
	HoldCycles   uint64 // occupancy summed over the class's frontiers
	MaxQueue     uint64 // deepest holder queue any instance saw
	P50, P99     uint64 // quantiles over the merged wait histogram
}

// ByClass rolls the per-lock rows up into one row per class, sorted
// most-contended first (wait cycles, then class name). The per-lock
// wait histograms share bounds by construction, so the class quantiles
// come from an exact merge, not an approximation over summaries.
func (o *Observatory) ByClass() []ClassSummary {
	if o == nil {
		return nil
	}
	byClass := map[string]*ClassSummary{}
	hists := map[string]*obs.Histogram{}
	var order []string
	for _, st := range o.locks {
		cs, ok := byClass[st.class]
		if !ok {
			cs = &ClassSummary{Class: st.class}
			byClass[st.class] = cs
			hists[st.class] = obs.NewHistogram(nil)
			order = append(order, st.class)
		}
		a, c, w := st.sim.Stats()
		cs.Locks++
		cs.Acquisitions += a
		cs.Contended += c
		cs.WaitCycles += w
		cs.HoldCycles += st.hold
		if st.maxDepth > cs.MaxQueue {
			cs.MaxQueue = st.maxDepth
		}
		// Identical bounds by construction; Merge cannot fail.
		_ = hists[st.class].Merge(st.waitHist)
	}
	out := make([]ClassSummary, 0, len(order))
	for _, class := range order {
		cs := byClass[class]
		cs.P50 = hists[class].Quantile(0.50)
		cs.P99 = hists[class].Quantile(0.99)
		out = append(out, *cs)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].WaitCycles != out[j].WaitCycles {
			return out[i].WaitCycles > out[j].WaitCycles
		}
		return out[i].Class < out[j].Class
	})
	return out
}

// WriteLocksByClass writes the by-class rollup table — the view that
// keeps a sharded kernel's report readable when dozens of per-endpoint
// frontiers would otherwise flood the per-lock table.
func (o *Observatory) WriteLocksByClass(w io.Writer) error {
	if o == nil {
		return nil
	}
	for _, c := range o.ByClass() {
		if _, err := fmt.Fprintf(w, "class %s locks=%d acq=%d contended=%d waitcycles=%d holdcycles=%d maxqueue=%d p50=%d p99=%d\n",
			c.Class, c.Locks, c.Acquisitions, c.Contended, c.WaitCycles, c.HoldCycles, c.MaxQueue, c.P50, c.P99); err != nil {
			return err
		}
	}
	return nil
}

// WriteLocks writes the top-contended lock table.
func (o *Observatory) WriteLocks(w io.Writer) error {
	if o == nil {
		return nil
	}
	for _, l := range o.Summary() {
		if _, err := fmt.Fprintf(w, "lock %s acq=%d contended=%d waitcycles=%d holdcycles=%d maxqueue=%d p50=%d p99=%d\n",
			l.Ident, l.Acquisitions, l.Contended, l.WaitCycles, l.HoldCycles, l.MaxQueue, l.P50, l.P99); err != nil {
			return err
		}
	}
	return nil
}

// WriteAttribution writes the wait-attribution table: one row per
// (lock, syscall, container, core) cell, most wait first, ties broken
// by the row key so the order is total.
func (o *Observatory) WriteAttribution(w io.Writer) error {
	if o == nil {
		return nil
	}
	type row struct {
		key  attrKey
		line string
		wait uint64
		sort string
	}
	rows := make([]row, 0, len(o.rows))
	for k, r := range o.rows {
		ident := "?"
		if int(k.lock) < len(o.locks) {
			st := o.locks[k.lock]
			ident = st.class + "/" + st.inst
		}
		rows = append(rows, row{
			key:  k,
			wait: r.wait,
			sort: fmt.Sprintf("%s %s %s %d", ident, k.sys, o.nameOf(k.cntr), k.core),
			line: fmt.Sprintf("wait %s sys=%s cntr=%s core=%d count=%d contended=%d waitcycles=%d",
				ident, k.sys, o.nameOf(k.cntr), k.core, r.count, r.contended, r.wait),
		})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].wait != rows[j].wait {
			return rows[i].wait > rows[j].wait
		}
		return rows[i].sort < rows[j].sort
	})
	for _, r := range rows {
		if _, err := fmt.Fprintln(w, r.line); err != nil {
			return err
		}
	}
	return nil
}

// WriteSched writes the run-queue delay, steal-provenance, and
// blocked-edge tables.
func (o *Observatory) WriteSched(w io.Writer) error {
	if o == nil {
		return nil
	}
	s := &o.sched
	for core, h := range s.coreDelay {
		if h == nil || h.Count() == 0 {
			continue
		}
		if _, err := fmt.Fprintf(w, "runq core%d count=%d mean=%.1f p50=%d p99=%d\n",
			core, h.Count(), h.Mean(), h.Quantile(0.50), h.Quantile(0.99)); err != nil {
			return err
		}
	}
	cntrs := make([]string, 0, len(s.cntrDelay))
	byName := make(map[string]hw.PhysAddr, len(s.cntrDelay))
	for c := range s.cntrDelay {
		n := o.nameOf(c)
		cntrs = append(cntrs, n)
		byName[n] = c
	}
	sort.Strings(cntrs)
	for _, n := range cntrs {
		h := s.cntrDelay[byName[n]]
		if _, err := fmt.Fprintf(w, "runq cntr=%s count=%d mean=%.1f p50=%d p99=%d\n",
			n, h.Count(), h.Mean(), h.Quantile(0.50), h.Quantile(0.99)); err != nil {
			return err
		}
	}
	pairs := make([]stealPair, 0, len(s.stealProv))
	for p := range s.stealProv {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].thief != pairs[j].thief {
			return pairs[i].thief < pairs[j].thief
		}
		return pairs[i].victim < pairs[j].victim
	})
	for _, p := range pairs {
		if _, err := fmt.Fprintf(w, "steal core%d<-core%d count=%d\n", p.thief, p.victim, s.stealProv[p]); err != nil {
			return err
		}
	}
	edges := make([]blockEdge, 0, len(s.blockEdges))
	for e := range s.blockEdges {
		edges = append(edges, e)
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].cntr != edges[j].cntr {
			return edges[i].cntr < edges[j].cntr
		}
		return edges[i].on < edges[j].on
	})
	for _, e := range edges {
		if _, err := fmt.Fprintf(w, "blocked cntr=%s on=%#x count=%d\n", o.nameOf(e.cntr), uint64(e.on), s.blockEdges[e]); err != nil {
			return err
		}
	}
	return nil
}

// WriteOrder writes the lock-order checker status: the armed DAG's
// rules and the first inversion, if any.
func (o *Observatory) WriteOrder(w io.Writer) error {
	if o == nil {
		return nil
	}
	if o.order == nil {
		_, err := fmt.Fprintln(w, "order disarmed")
		return err
	}
	for _, r := range o.order.order.Rules() {
		if _, err := fmt.Fprintf(w, "order rule %s\n", r); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "order inversions=%d\n", o.order.inversions); err != nil {
		return err
	}
	if v := o.order.first; v != nil {
		if _, err := fmt.Fprintf(w, "order first: %s\n", v); err != nil {
			return err
		}
	}
	return nil
}

// WriteReport writes the full contention report: locks, attribution,
// scheduler, ordering.
func (o *Observatory) WriteReport(w io.Writer) error {
	if o == nil {
		return nil
	}
	if _, err := fmt.Fprintln(w, "== contention: locks =="); err != nil {
		return err
	}
	if err := o.WriteLocks(w); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "== contention: attribution =="); err != nil {
		return err
	}
	if err := o.WriteAttribution(w); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "== contention: scheduler =="); err != nil {
		return err
	}
	if err := o.WriteSched(w); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "== contention: order =="); err != nil {
		return err
	}
	return o.WriteOrder(w)
}
