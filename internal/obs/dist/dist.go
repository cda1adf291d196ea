// Package dist is the distributed-request tracer for the multi-machine
// cluster: it joins per-machine obs.Tracers into one causally-linked
// view. Each participant (the client, the load balancer, every
// backend) records its req.* spans on its own tracer on the shared
// tick timeline; the collector additionally keeps an exact per-request
// hop log — which machine saw which attempt of which request at which
// tick — so a merged Perfetto export can draw flow arrows across
// machine tracks and a critical-path analyzer can decompose every
// completed request's end-to-end latency into client-queue / link /
// LB / backend-service / retry-backoff components that sum exactly to
// the measured latency.
//
// Everything follows the observability contract of internal/obs: the
// collector never charges a cycle clock, every recording method is
// nil-safe, and with the collector absent the instrumented system is
// byte-identical to an uninstrumented build (the trace header is
// simply never put on the wire). Determinism: records append in the
// cluster's fixed sub-step order, maps are used only for lookups
// (never iterated into output), and exports sort with total orders —
// same seed, same bytes.
package dist

import (
	"atmosphere/internal/hw"
	"atmosphere/internal/obs"
)

// ClientSlot is the participant index reserved for the client; the
// tier's machines occupy 1..N in the order the caller names them.
const ClientSlot = 0

// HopKind labels one hop of a request's forward/return path.
type HopKind uint8

// Hop kinds, in path order.
const (
	HopLBForward HopKind = iota // LB routed the request toward a backend
	HopBackend                  // backend served it
	HopLBReturn                 // LB routed the reply back to the client
)

// hopsPerChain is the complete forward/return chain length.
const hopsPerChain = 3

func (k HopKind) String() string {
	switch k {
	case HopLBForward:
		return "lb-forward"
	case HopBackend:
		return "backend"
	case HopLBReturn:
		return "lb-return"
	}
	return "?"
}

// Config shapes a collector.
type Config struct {
	// EventCap is the per-participant tracer ring capacity
	// (obs.DefaultEventCapacity when <= 0).
	EventCap int
	// TickCycles converts the caller's tick clock to cycles; all span
	// timestamps and latency components are ticks times this.
	TickCycles uint64
	// Seed feeds trace-ID derivation (netproto.TraceID).
	Seed uint64
}

// Hop is one machine's handling of one attempt: delivered into the
// machine's inbox at Arrive, processed at Process (later than Arrive
// only when the machine was stalled or backlogged), with the service
// span [SpanTS, SpanTS+SpanDur) on the shared timeline and the
// machine-local span sequence number SpanRef — the value forwarded in
// the trace header as the next hop's parent.
type Hop struct {
	Machine int
	Kind    HopKind
	Arrive  uint64 // tick
	Process uint64 // tick
	SpanTS  uint64 // cycles
	SpanDur uint64 // cycles
	SpanRef uint32
	Parent  uint32 // span ref carried in the header when the frame arrived
	done    bool
}

// attempt is one transmission of a request.
type attempt struct {
	req           *request
	traceID       uint64
	index         int
	sentTick      uint64
	backoffBefore uint64 // request backoff ticks completed before this send
	hops          []Hop
}

// request is one client request: up to 1+budget attempts.
type request struct {
	flow         int
	seq          uint64
	firstTick    uint64
	rootID       uint64
	backoffStart uint64 // nonzero while the flow is backing off
	backoffTicks uint64 // completed backoff, cumulative
	attempts     []*attempt
}

// Collector owns the per-participant tracers and the request table.
// Participant 0 is the client; the remaining indices are the caller's
// machines in naming order.
type Collector struct {
	cfg   Config
	names []string

	tracers []*obs.Tracer
	tracks  []obs.TrackID
	svc     []*obs.Histogram // per-participant service cycles
	spanSeq []uint32

	// Interned span names, per participant tracer.
	nameReq    []obs.NameID // req.client / req.lb / req.backend
	nameRetry  obs.NameID   // client only
	nameGaveUp obs.NameID   // client only

	reqs    []*request // by flow
	seqs    []uint64   // per-flow request sequence
	byTrace map[uint64]*attempt

	completed []TraceRec

	abandoned     uint64
	orphaned      uint64
	staleReplies  uint64
	headerRejects uint64
	irregular     uint64
}

// svcBuckets bucket per-hop service cycles (tens to thousands of
// cycles of app work per frame).
var svcBuckets = []uint64{50, 100, 150, 250, 500, 1_000, 2_000, 4_000, 8_000, 16_000}

// New builds a collector for the given participants. names[0] must be
// the client; flows is the client's flow count (requests are keyed by
// flow). TickCycles must be positive.
func New(cfg Config, names []string, flows int) *Collector {
	if cfg.TickCycles == 0 {
		cfg.TickCycles = 1
	}
	c := &Collector{
		cfg:     cfg,
		names:   append([]string(nil), names...),
		reqs:    make([]*request, flows),
		seqs:    make([]uint64, flows),
		byTrace: make(map[uint64]*attempt),
	}
	for i, name := range c.names {
		tr := obs.NewTracer(cfg.EventCap)
		c.tracers = append(c.tracers, tr)
		c.tracks = append(c.tracks, tr.Track(i, name, "requests"))
		c.svc = append(c.svc, obs.NewHistogram(svcBuckets))
		switch {
		case i == ClientSlot:
			c.nameReq = append(c.nameReq, tr.Name("req.client"))
			c.nameRetry = tr.Name("req.retry")
			c.nameGaveUp = tr.Name("req.gaveup")
		case i == ClientSlot+1:
			c.nameReq = append(c.nameReq, tr.Name("req.lb"))
		default:
			c.nameReq = append(c.nameReq, tr.Name("req.backend"))
		}
	}
	c.spanSeq = make([]uint32, len(c.names))
	return c
}

// Participants returns the participant count (client included).
func (c *Collector) Participants() int {
	if c == nil {
		return 0
	}
	return len(c.names)
}

// ParticipantName returns participant i's name.
func (c *Collector) ParticipantName(i int) string {
	if c == nil || i < 0 || i >= len(c.names) {
		return "?"
	}
	return c.names[i]
}

// Tracer returns participant i's tracer (nil-safe; nil off-range).
func (c *Collector) Tracer(i int) *obs.Tracer {
	if c == nil || i < 0 || i >= len(c.tracers) {
		return nil
	}
	return c.tracers[i]
}

// cycles converts a tick to shared-timeline cycles.
func (c *Collector) cycles(tick uint64) uint64 { return tick * c.cfg.TickCycles }

// BeginRequest opens flow's next request at tick and returns the first
// attempt's trace ID. An uncompleted previous request on the flow (its
// reply was consumed by the straggler path, so Complete never fired)
// is retired as orphaned.
func (c *Collector) BeginRequest(flow int, tick uint64) uint64 {
	if c == nil {
		return 0
	}
	c.dropRequest(flow, true)
	seq := c.seqs[flow]
	c.seqs[flow]++
	r := &request{flow: flow, seq: seq, firstTick: tick}
	c.reqs[flow] = r
	id := c.newAttempt(r, tick)
	r.rootID = id
	return id
}

// newAttempt registers the request's next transmission.
func (c *Collector) newAttempt(r *request, tick uint64) uint64 {
	a := &attempt{
		req:           r,
		index:         len(r.attempts),
		sentTick:      tick,
		backoffBefore: r.backoffTicks,
	}
	// netproto.TraceID's derivation; a cluster test pins the equality.
	a.traceID = hw.FNV(hw.FNVOffset, c.cfg.Seed, uint64(r.flow), r.seq, uint64(a.index))
	r.attempts = append(r.attempts, a)
	c.byTrace[a.traceID] = a
	return a.traceID
}

// Timeout marks flow's active request as entering backoff at tick.
func (c *Collector) Timeout(flow int, tick uint64) {
	if c == nil || c.reqs[flow] == nil {
		return
	}
	c.reqs[flow].backoffStart = tick
}

// Retry closes the flow's backoff window at tick, records the
// req.retry span, and returns the new attempt's trace ID.
func (c *Collector) Retry(flow int, tick uint64) uint64 {
	if c == nil || c.reqs[flow] == nil {
		return 0
	}
	r := c.reqs[flow]
	if r.backoffStart != 0 {
		r.backoffTicks += tick - r.backoffStart
		c.tracers[ClientSlot].SpanArg(c.tracks[ClientSlot], c.nameRetry,
			c.cycles(r.backoffStart), c.cycles(tick), r.rootID)
		r.backoffStart = 0
	}
	return c.newAttempt(r, tick)
}

// Abandon retires flow's request after its retry budget ran out.
func (c *Collector) Abandon(flow int, tick uint64) {
	if c == nil || c.reqs[flow] == nil {
		return
	}
	c.tracers[ClientSlot].Instant(c.tracks[ClientSlot], c.nameGaveUp,
		c.cycles(tick), c.reqs[flow].rootID)
	c.abandoned++
	c.dropRequest(flow, false)
}

// dropRequest forgets flow's active request and all its attempts.
func (c *Collector) dropRequest(flow int, orphan bool) {
	r := c.reqs[flow]
	if r == nil {
		return
	}
	for _, a := range r.attempts {
		delete(c.byTrace, a.traceID)
	}
	c.reqs[flow] = nil
	if orphan {
		c.orphaned++
	}
}

// Arrive records that the attempt's frame was delivered into machine's
// inbox at tick. Unknown trace IDs (stale attempts of completed
// requests) are ignored — they can never re-join a live trace.
func (c *Collector) Arrive(id uint64, machine int, tick uint64) {
	if c == nil {
		return
	}
	a, ok := c.byTrace[id]
	if !ok {
		return
	}
	a.hops = append(a.hops, Hop{Machine: machine, Arrive: tick})
}

// Process records that machine handled the attempt's frame at tick,
// with the service span [spanStart, spanEnd) on the shared timeline
// and the parent span ref the frame carried in. It returns the hop's
// own span ref — what the caller writes into the forwarded header —
// and false for unknown trace IDs.
func (c *Collector) Process(id uint64, machine int, kind HopKind, tick uint64, spanStart, spanEnd uint64, parent uint32) (uint32, bool) {
	if c == nil {
		return 0, false
	}
	a, ok := c.byTrace[id]
	if !ok {
		return 0, false
	}
	// Pair with the oldest unprocessed hop on this machine; a frame
	// processed without a recorded delivery (the first tick boots with
	// pre-armed inboxes only in tests) charges zero queue time.
	var h *Hop
	for i := range a.hops {
		if !a.hops[i].done && a.hops[i].Machine == machine {
			h = &a.hops[i]
			break
		}
	}
	if h == nil {
		a.hops = append(a.hops, Hop{Machine: machine, Arrive: tick})
		h = &a.hops[len(a.hops)-1]
	}
	c.spanSeq[machine]++
	ref := c.spanSeq[machine]
	h.Kind = kind
	h.Process = tick
	h.SpanTS = spanStart
	if spanEnd > spanStart {
		h.SpanDur = spanEnd - spanStart
	}
	h.SpanRef = ref
	h.Parent = parent
	h.done = true
	if machine >= 0 && machine < len(c.tracers) {
		c.tracers[machine].SpanArg(c.tracks[machine], c.nameReq[machine], spanStart, spanEnd, id)
		c.svc[machine].Observe(h.SpanDur)
	}
	return ref, true
}

// Complete closes the request that attempt id belongs to: the reply
// reached the client at tick on the given flow. It records the
// req.client span, decomposes the end-to-end latency into components
// (critpath.go), and retires the request. It returns false — and
// records nothing — when the id is unknown or belongs to another flow:
// a stale or corrupted reply must never complete someone else's trace.
func (c *Collector) Complete(id uint64, flow int, tick uint64) bool {
	if c == nil {
		return false
	}
	a, ok := c.byTrace[id]
	if !ok || a.req.flow != flow {
		c.staleReplies++
		return false
	}
	r := a.req
	c.tracers[ClientSlot].SpanArg(c.tracks[ClientSlot], c.nameReq[ClientSlot],
		c.cycles(r.firstTick), c.cycles(tick), r.rootID)
	rec := c.decompose(a, tick)
	c.completed = append(c.completed, rec)
	if rec.Irregular {
		c.irregular++
	}
	c.dropRequest(flow, false)
	return true
}

// RejectHeader counts a reply whose trace header failed to decode
// (corruption): the frame is still served by the caller exactly as an
// untraced frame would be, but it joins no trace.
func (c *Collector) RejectHeader() {
	if c != nil {
		c.headerRejects++
	}
}

// Completed returns every completed request's record, in completion
// order.
func (c *Collector) Completed() []TraceRec {
	if c == nil {
		return nil
	}
	return c.completed
}

// IrregularCount returns how many completed requests had a hop log
// that was not the clean 3-hop forward/return chain.
func (c *Collector) IrregularCount() uint64 {
	if c == nil {
		return 0
	}
	return c.irregular
}

// Counts returns the collector's bookkeeping tallies: completed,
// abandoned (budget exhausted), orphaned (reply lost to the straggler
// path), stale replies rejected, and corrupt headers rejected.
func (c *Collector) Counts() (completed, abandoned, orphaned, stale, rejects uint64) {
	if c == nil {
		return
	}
	return uint64(len(c.completed)), c.abandoned, c.orphaned, c.staleReplies, c.headerRejects
}

// Pressure is one participant's tracer ring occupancy. Dropped > 0
// means the ring evicted events: the merged export is then missing the
// oldest spans (the hop log behind the attribution is unaffected), so
// reports warn on it.
type Pressure struct {
	Name    string
	Events  int
	Cap     int
	Dropped uint64
}

// Pressure reports every participant's ring occupancy, client first.
func (c *Collector) Pressure() []Pressure {
	if c == nil {
		return nil
	}
	out := make([]Pressure, len(c.tracers))
	for i, tr := range c.tracers {
		out[i] = Pressure{Name: c.names[i], Events: tr.Len(), Cap: tr.Cap(), Dropped: tr.Dropped()}
	}
	return out
}

// TraceEvents sums live events across all participant rings.
func (c *Collector) TraceEvents() uint64 {
	var n uint64
	if c == nil {
		return 0
	}
	for _, tr := range c.tracers {
		n += uint64(tr.Len())
	}
	return n
}

// TraceDropped sums ring evictions across all participant rings.
func (c *Collector) TraceDropped() uint64 {
	var n uint64
	if c == nil {
		return 0
	}
	for _, tr := range c.tracers {
		n += tr.Dropped()
	}
	return n
}

// ServiceHistogram merges every machine's per-hop service-cycle
// histogram (obs.Histogram.Merge) into one cluster-wide view.
func (c *Collector) ServiceHistogram() *obs.Histogram {
	if c == nil {
		return nil
	}
	merged := obs.NewHistogram(svcBuckets)
	for _, h := range c.svc {
		// Bounds are identical by construction; Merge cannot fail.
		if err := merged.Merge(h); err != nil {
			panic(err)
		}
	}
	return merged
}
