// Package faults is the deterministic fault-injection layer. The
// paper's core claim (§3, §4.3) is that the kernel's invariants survive
// arbitrary behavior from untrusted user-level drivers; this package
// manufactures that behavior on demand — NVMe command errors and
// completion stalls, NIC descriptor corruption and DMA faults, dropped
// and spurious interrupts, transient allocator exhaustion — so the rest
// of the repository can demonstrate it survives.
//
// Everything is deterministic: an Injector draws from a seeded hw.Rand,
// so the same seed and the same opportunity sequence reproduce the same
// fault trace bit for bit. Each injected fault is appended to a running
// FNV-1a trace hash; two runs agree iff their hashes agree.
package faults

import (
	"fmt"
	"strings"

	"atmosphere/internal/hw"
	"atmosphere/internal/obs"
)

// Kind enumerates the injectable fault kinds.
type Kind int

// Fault kinds. Each names the hook point that consults the injector.
const (
	// NvmeCmdError completes an NVMe command with a non-zero status
	// instead of touching the media (the device's "internal error").
	NvmeCmdError Kind = iota
	// NvmeStall withholds an NVMe completion for Param cycles; the
	// driver observes a command that does not complete within its
	// polling budget.
	NvmeStall
	// NicDescCorrupt delivers an RX descriptor with a corrupted length
	// field (zero) and no frame payload.
	NicDescCorrupt
	// NicDMAFault makes one NIC DMA access fault as if the IOMMU had
	// rejected the translation.
	NicDMAFault
	// IRQDrop swallows a raised interrupt before dispatch (a lost
	// edge).
	IRQDrop
	// IRQSpurious is an extra interrupt on a line nobody raised; the
	// harness uses it to exercise the kernel's spurious-IRQ path.
	IRQSpurious
	// AllocExhaust makes one allocator request fail transiently with
	// out-of-memory, exercising every caller's ENOMEM path.
	AllocExhaust

	// The machine- and link-granularity kinds below drive the cluster
	// simulation (internal/cluster): the "entity" consulted is a whole
	// simulated machine or inter-machine link, identified by the
	// 1-based target id the hook passes to ShouldFor. Plans arm them
	// either probabilistically (Rate) or on a deterministic schedule
	// (Period); a rule with neither fires never and is rejected by
	// Validate.

	// MachineKill powers a simulated machine off mid-run: its kernel
	// instance dies, in-flight frames addressed to it are lost, and the
	// cluster supervisor later respawns a fresh instance.
	MachineKill
	// MachineStall freezes a machine for Param cycles: it stays "alive"
	// but processes nothing, so health checks flap without a kill.
	MachineStall
	// LinkPartition makes a link drop every frame for Param cycles, in
	// both directions, including frames already in flight.
	LinkPartition
	// LinkDelay arms one-shot extra latency: the next frame sent on the
	// link is delayed by Param additional cycles.
	LinkDelay
	// LinkCorrupt corrupts the next frame sent on the link (flipped
	// bytes), exercising the receivers' malformed-frame paths.
	LinkCorrupt

	// KindCount is the number of fault kinds.
	KindCount
)

// clusterKind reports whether k is a machine- or link-granularity kind,
// which must be armed by Rate or Period (a silent no-op rule for a
// scheduled-chaos kind is almost certainly a plan bug).
func clusterKind(k Kind) bool { return k >= MachineKill && k <= LinkCorrupt }

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case NvmeCmdError:
		return "nvme-cmd-error"
	case NvmeStall:
		return "nvme-stall"
	case NicDescCorrupt:
		return "nic-desc-corrupt"
	case NicDMAFault:
		return "nic-dma-fault"
	case IRQDrop:
		return "irq-drop"
	case IRQSpurious:
		return "irq-spurious"
	case AllocExhaust:
		return "alloc-exhaust"
	case MachineKill:
		return "machine-kill"
	case MachineStall:
		return "machine-stall"
	case LinkPartition:
		return "link-partition"
	case LinkDelay:
		return "link-delay"
	case LinkCorrupt:
		return "link-corrupt"
	}
	return "fault?"
}

// Rule arms one fault kind: Rate is the per-opportunity injection
// probability, [From, Until) the cycle window in which the rule is
// active (Until == 0 means no upper bound), and Param a kind-specific
// magnitude (stall cycles for NvmeStall and MachineStall, partition
// cycles for LinkPartition, extra latency for LinkDelay).
//
// Period, when nonzero, replaces Rate with a deterministic schedule:
// the rule fires at the first opportunity at or after each of the
// cycle points From+Period, From+2·Period, … (still clipped by the
// [From, Until) window), consuming no randomness. Rate and Period are
// mutually exclusive.
//
// Target restricts the rule to one entity of a multi-entity hook — the
// 1-based machine or link id the hook passes to ShouldFor; 0 matches
// every target.
type Rule struct {
	Kind   Kind
	Rate   float64
	From   uint64
	Until  uint64
	Param  uint64
	Period uint64
	Target uint64
}

// Plan is a declarative fault plan: the set of armed rules. The zero
// Plan injects nothing.
type Plan struct {
	Rules []Rule
}

// Validate rejects malformed plans: rates outside [0,1], unknown
// kinds, inverted windows, rules arming both Rate and Period, and
// machine/link rules with neither (the zero-period rule — a scheduled
// chaos kind that fires never is a plan bug, not a no-op).
func (p Plan) Validate() error {
	for i, r := range p.Rules {
		if r.Kind < 0 || r.Kind >= KindCount {
			return fmt.Errorf("faults: rule %d: unknown kind %d", i, int(r.Kind))
		}
		if r.Rate < 0 || r.Rate > 1 {
			return fmt.Errorf("faults: rule %d: rate %v outside [0,1]", i, r.Rate)
		}
		if r.Until != 0 && r.Until <= r.From {
			return fmt.Errorf("faults: rule %d: empty window [%d,%d)", i, r.From, r.Until)
		}
		if r.Rate > 0 && r.Period > 0 {
			return fmt.Errorf("faults: rule %d: rate and period are mutually exclusive", i)
		}
		if clusterKind(r.Kind) && r.Rate == 0 && r.Period == 0 {
			return fmt.Errorf("faults: rule %d: %v rule with zero rate and zero period fires never", i, r.Kind)
		}
	}
	return nil
}

// String renders the plan for reports.
func (p Plan) String() string {
	if len(p.Rules) == 0 {
		return "none"
	}
	var b strings.Builder
	for i, r := range p.Rules {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%v@%g", r.Kind, r.Rate)
		if r.From != 0 || r.Until != 0 {
			fmt.Fprintf(&b, "[%d:%d)", r.From, r.Until)
		}
	}
	return b.String()
}

// Injector decides, deterministically, whether each fault opportunity
// fires. One injector serves the whole machine; hook points in the
// device models, the allocator, and the IRQ path consult it.
type Injector struct {
	rand *hw.Rand
	plan Plan
	// now supplies the cycle-window time base (typically the machine's
	// aggregate cycle counter).
	now func() uint64
	// nextAt is the next scheduled fire point per periodic rule
	// (parallel to plan.Rules; unused entries stay 0).
	nextAt []uint64

	// Opportunities and Injected count, per kind, how often a hook
	// consulted the injector and how often it fired.
	Opportunities [KindCount]uint64
	Injected      [KindCount]uint64

	// traceHash accumulates (kind, sequence, cycle) of every injected
	// fault; traceLen counts them.
	traceHash uint64
	traceLen  uint64

	// Tracing (observe.go): an instant per injected fault on the
	// machine-wide faults track. Never consulted for randomness, so
	// attaching a tracer cannot move the fault trace.
	tr        *obs.Tracer
	track     obs.TrackID
	kindNames [KindCount]obs.NameID
}

// NewInjector builds an injector for plan, drawing randomness from seed
// and reading the current cycle count from now (nil means a constant
// zero clock, which keeps only un-windowed rules active).
func NewInjector(seed uint64, plan Plan, now func() uint64) (*Injector, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	if now == nil {
		now = func() uint64 { return 0 }
	}
	in := &Injector{
		rand:      hw.NewRand(seed),
		plan:      plan,
		now:       now,
		nextAt:    make([]uint64, len(plan.Rules)),
		traceHash: hw.FNVOffset,
	}
	for i, r := range plan.Rules {
		if r.Period > 0 {
			in.nextAt[i] = r.From + r.Period
		}
	}
	return in, nil
}

func (in *Injector) mix(w uint64) { in.traceHash = hw.FNV(in.traceHash, w) }

// Should reports whether the fault opportunity of kind k fires, and the
// armed rule's Param. Exactly one random draw is consumed per
// opportunity with an active probabilistic rule; inactive kinds and
// periodic rules consume none, so a plan that never arms a kind leaves
// the random stream untouched by that hook.
func (in *Injector) Should(k Kind) (bool, uint64) {
	return in.ShouldFor(k, 0)
}

// ShouldFor is Should for multi-entity hooks: target is the 1-based
// machine or link id consulting the injector (0 for single-entity
// hooks). The first rule of kind k whose window is active and whose
// Target matches decides the opportunity — by one random draw
// (probabilistic rules) or by crossing its next scheduled fire point
// (periodic rules, no randomness consumed).
func (in *Injector) ShouldFor(k Kind, target uint64) (bool, uint64) {
	if in == nil {
		return false, 0
	}
	in.Opportunities[k]++
	t := in.now()
	for i := range in.plan.Rules {
		r := &in.plan.Rules[i]
		if r.Kind != k {
			continue
		}
		if t < r.From || (r.Until != 0 && t >= r.Until) {
			continue
		}
		if r.Target != 0 && target != 0 && r.Target != target {
			continue
		}
		if r.Period > 0 {
			if t < in.nextAt[i] {
				return false, 0
			}
			// Advance past every crossed point so one boundary fires at
			// most one opportunity, however late the hook consults.
			for in.nextAt[i] <= t {
				in.nextAt[i] += r.Period
			}
			in.fire(k, r)
			return true, r.Param
		}
		if r.Rate == 0 {
			return false, 0
		}
		if in.rand.Float64() >= r.Rate {
			return false, 0
		}
		in.fire(k, r)
		return true, r.Param
	}
	return false, 0
}

// fire records one injected fault on the counters, the trace hash, and
// the tracer.
func (in *Injector) fire(k Kind, r *Rule) {
	in.Injected[k]++
	in.traceLen++
	in.mix(uint64(k))
	in.mix(in.traceLen)
	in.mix(in.now())
	if in.tr != nil {
		in.tr.Instant(in.track, in.kindNames[k], in.now(), r.Param)
	}
}

// Hit is the single-value form of Should for hooks that need no Param.
func (in *Injector) Hit(k Kind) bool {
	hit, _ := in.Should(k)
	return hit
}

// Now returns the injector's current cycle reading — the same time base
// the rule windows use, exposed so hook sites (e.g. stall release) stay
// on one clock.
func (in *Injector) Now() uint64 {
	if in == nil {
		return 0
	}
	return in.now()
}

// TraceHash returns the running hash over every injected fault
// (kind × sequence × cycle). Identical seeds and workloads produce
// identical hashes; any divergence in when or what was injected changes
// it.
func (in *Injector) TraceHash() uint64 {
	if in == nil {
		return 0
	}
	return in.traceHash
}

// TraceLen returns the number of injected faults so far.
func (in *Injector) TraceLen() uint64 {
	if in == nil {
		return 0
	}
	return in.traceLen
}

// InjectedTotal sums injected faults across kinds.
func (in *Injector) InjectedTotal() uint64 {
	if in == nil {
		return 0
	}
	var t uint64
	for _, n := range in.Injected {
		t += n
	}
	return t
}

// Counts renders the per-kind opportunity/injection counters (only
// kinds with at least one opportunity), in kind order for deterministic
// output.
func (in *Injector) Counts() string {
	if in == nil {
		return "faults: disabled"
	}
	var b strings.Builder
	for k := Kind(0); k < KindCount; k++ {
		if in.Opportunities[k] == 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%v=%d/%d", k, in.Injected[k], in.Opportunities[k])
	}
	if b.Len() == 0 {
		return "no fault opportunities"
	}
	return b.String()
}
