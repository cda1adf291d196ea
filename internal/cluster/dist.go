package cluster

import (
	"atmosphere/internal/hw"
	"atmosphere/internal/netproto"
	"atmosphere/internal/obs/dist"
)

// Distributed-tracing hooks. With Config.DistTracing off, c.dist is
// nil and every hook is a no-op: no header goes on the wire and the
// run is byte-identical to an untraced build (pinned by the cluster
// rows of bench.TestProbesAreFree). With it on,
// the client stamps a netproto trace header ahead of each kv request,
// the LB and backends record per-hop spans on their own tracers and
// forward the header with an updated hop count and parent span ref,
// and the reply carries the header back so the client can join the
// completion to the exact attempt that served it.
//
// Participant slots in the collector line up with machine node ids:
// slot 0 is the client (dist.ClientSlot), slot 1 the LB (lbNode), and
// slot 2+i backend i (firstBackend+i) — so machine.id doubles as the
// collector slot.

// Dist returns the run's trace collector (nil when DistTracing is
// off).
func (c *Cluster) Dist() *dist.Collector { return c.dist }

// distArrive notes a machine-bound frame's delivery into the machine's
// inbox. Probes and untraced frames decode to no header and are
// skipped; stale trace IDs are ignored inside the collector.
func (c *Cluster) distArrive(data []byte, machine int) {
	if c.dist == nil {
		return
	}
	p, err := netproto.ParseUDP(data)
	if err != nil {
		return
	}
	if hdr, _, err := netproto.DecodeTraceHeader(p.Payload); err == nil {
		c.dist.Arrive(hdr.TraceID, machine, c.tick)
	}
}

// distSpan records machine's handling of a traced frame — the span
// covers [before, now) on the machine's clock, placed on the shared
// timeline at tick*TickCycles plus the within-tick offset from base
// (the clock reading when the tick's batch started) — and rewrites the
// header in place with the new hop count and this span's ref, so the
// next machine links back to it. Must run before the frame (or the
// reply built from its payload) is queued: send copies the bytes.
func (c *Cluster) distSpan(payload []byte, machine int, kind dist.HopKind, hop uint8, base, before uint64, clk *hw.Clock) {
	if c.dist == nil {
		return
	}
	hdr, _, err := netproto.DecodeTraceHeader(payload)
	if err != nil {
		return
	}
	start := c.tick*TickCycles + (before - base)
	end := c.tick*TickCycles + (clk.Cycles() - base)
	if ref, ok := c.dist.Process(hdr.TraceID, machine, kind, c.tick, start, end, hdr.Parent); ok {
		// Cannot fail: the header just decoded from this buffer.
		if err := netproto.UpdateTraceHeader(payload, hop, ref); err != nil {
			panic(err)
		}
	}
}
