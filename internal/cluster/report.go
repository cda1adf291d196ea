package cluster

import "atmosphere/internal/hw"

// Event codes mixed into the trace hash. Order and values are part of
// the determinism contract: renumbering them changes every reference
// hash.
const (
	evSend uint64 = iota + 1
	evDeliver
	evResponse
	evTimeout
	evRetry
	evGaveUp
	evKill
	evRespawn
	evStall
	evPartition
	evLinkDrop
	evCorrupt
	evMisroute
	evRemove
	evAdd
	evProbe
	evProbeMiss
)

// mix folds one event into the run's trace hash (FNV-1a, like the
// fault injector's, so the two compose into one replayability check).
func (c *Cluster) mix(code, a, b uint64) { c.hash = hw.FNV(c.hash, code, a, b) }

// Report is a run's complete accounting. Everything is cumulative
// across machine respawns.
type Report struct {
	Ticks uint64

	// Client side.
	Sent, Responses, Retries, Timeouts uint64
	GaveUp, Shed, Stragglers           uint64
	Misses, SetRepairs                 uint64

	// Tier side.
	Delivered, Misrouted          uint64
	DroppedNoBackend, DroppedDead uint64
	DroppedMalformed, DroppedLink uint64
	Corrupted                     uint64
	Kills, Respawns               uint64
	RemoveEvents, AddEvents       uint64

	// Reconvergence SLOs (0 when the run had no such event).
	FirstKillTick          uint64
	InFlightAtKill         uint64
	ReconvergeKillCycles   uint64 // first kill → Maglev eviction
	ReconvergeReturnCycles uint64 // first respawn → Maglev reinstatement

	// Latency quantiles over completed requests, in cycles.
	P50, P99, P999 uint64

	// Burned CPU across all machines and generations.
	KernelCycles uint64

	// Distributed tracing (all zero when DistTracing is off).
	// DistCompleted counts requests with a fully joined trace;
	// DistStale replies whose attempt belonged to a retired request;
	// DistIrregular completed traces whose hop log was not the clean
	// 3-hop chain (an invariant violation — tests pin it to zero).
	// DistTraceEvents / DistTraceDropped sum ring occupancy and
	// evictions across every participant tracer (per-machine detail
	// via Dist().Pressure()).
	DistCompleted, DistAbandoned, DistOrphaned  uint64
	DistStale, DistHeaderRejects, DistIrregular uint64
	DistTraceEvents, DistTraceDropped           uint64

	// TraceHash folds every cluster event with the injector's own
	// hash: equal seeds must reproduce it bit for bit.
	TraceHash uint64
}

// Report finalizes the run's accounting.
func (c *Cluster) Report() Report {
	r := c.rep
	r.Ticks = c.tick
	h := c.health
	if h.removedAt != 0 {
		r.ReconvergeKillCycles = (h.removedAt - h.killAt) * TickCycles
	}
	if h.addedAt != 0 {
		r.ReconvergeReturnCycles = (h.addedAt - h.respawnAt) * TickCycles
	}
	r.P50 = c.client.latency.Quantile(0.50)
	r.P99 = c.client.latency.Quantile(0.99)
	r.P999 = c.client.latency.Quantile(0.999)
	for _, m := range c.machines {
		r.KernelCycles += m.TotalCycles()
	}
	if c.dist != nil {
		r.DistCompleted, r.DistAbandoned, r.DistOrphaned, r.DistStale, r.DistHeaderRejects = c.dist.Counts()
		r.DistIrregular = c.dist.IrregularCount()
		r.DistTraceEvents = c.dist.TraceEvents()
		r.DistTraceDropped = c.dist.TraceDropped()
	}
	r.TraceHash = c.hash ^ c.inj.TraceHash()
	return r
}
