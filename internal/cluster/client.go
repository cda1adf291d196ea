package cluster

import (
	"encoding/binary"

	"atmosphere/internal/apps"
	"atmosphere/internal/netproto"
	"atmosphere/internal/obs"
)

// Flow states mirror the wrk client's: a flow owns one request at a
// time and walks deadline → backoff → retransmit until the budget runs
// out, at which point the request is counted lost and the flow freed.
const (
	flowIdle uint8 = iota
	flowWaiting
	flowBackoff
)

type flow struct {
	state     uint8
	op        byte
	needsSet  bool // read-repair: last GET missed, next request re-SETs
	firstAt   uint64
	sentAt    uint64
	nextTryAt uint64
	attempts  int
}

// client is the open-loop load generator: Rate new requests per tick
// regardless of completions (arrivals shed only when every flow is
// busy), each flow keyed by its index so a respawned backend's empty
// store shows up as misses the client repairs.
type client struct {
	c      *Cluster
	ip     netproto.IPv4
	mac    netproto.MAC
	flows  []flow
	cursor int

	latency *obs.Histogram
	frame   [256]byte
	key     [8]byte
	val     [8]byte
}

// clusterLatencyBuckets spans the 4-tick baseline RTT (80k cycles)
// through multi-retry tails.
var clusterLatencyBuckets = []uint64{
	80_000, 100_000, 120_000, 160_000, 200_000,
	300_000, 400_000, 600_000, 1_000_000, 2_000_000,
}

func newClient(c *Cluster) *client {
	cl := &client{
		c:   c,
		ip:  netproto.IPv4{10, 0, 0, 9},
		mac: netproto.MAC{2, 0, 0, 0, 0, 9},
	}
	cl.flows = make([]flow, Flows)
	for i := range cl.flows {
		cl.flows[i].needsSet = true // first request seeds the key
	}
	if c.cfg.Metrics != nil {
		name := c.cfg.Name
		if name == "" {
			name = "cluster"
		}
		cl.latency = c.cfg.Metrics.Histogram(name+".latency", clusterLatencyBuckets)
	} else {
		cl.latency = obs.NewHistogram(clusterLatencyBuckets)
	}
	return cl
}

func flowPort(i int) uint16 { return uint16(40000 + i) }

// step is the per-tick client work: admit Rate new requests, then run
// the retry state machine over in-flight flows in index order.
func (cl *client) step(tick uint64) {
	c := cl.c
	for n := 0; n < Rate; n++ {
		i, ok := cl.nextIdle()
		if !ok {
			c.rep.Shed++
			continue
		}
		f := &cl.flows[i]
		f.op = apps.KVGet
		if f.needsSet || c.rand.Float64() < setFraction {
			f.op = apps.KVSet
		}
		f.state = flowWaiting
		f.firstAt = tick
		f.sentAt = tick
		f.attempts = 0
		cl.transmit(i, c.dist.BeginRequest(i, tick))
		c.rep.Sent++
	}
	for i := range cl.flows {
		f := &cl.flows[i]
		switch f.state {
		case flowWaiting:
			if tick-f.sentAt < deadlineTicks {
				continue
			}
			c.rep.Timeouts++
			c.mix(evTimeout, uint64(i), tick)
			if f.attempts >= retryBudget {
				c.rep.GaveUp++
				c.mix(evGaveUp, uint64(i), tick)
				c.dist.Abandon(i, tick)
				f.state = flowIdle
				continue
			}
			f.attempts++
			backoff := backoffTicks << (f.attempts - 1)
			if backoff > backoffCapTicks {
				backoff = backoffCapTicks
			}
			f.nextTryAt = tick + backoff
			f.state = flowBackoff
			c.dist.Timeout(i, tick)
		case flowBackoff:
			if tick < f.nextTryAt {
				continue
			}
			f.state = flowWaiting
			f.sentAt = tick
			cl.transmit(i, c.dist.Retry(i, tick))
			c.rep.Retries++
			c.mix(evRetry, uint64(i), tick)
		}
	}
}

// nextIdle scans round-robin from the cursor for a free flow.
func (cl *client) nextIdle() (int, bool) {
	for scan := 0; scan < len(cl.flows); scan++ {
		i := cl.cursor
		cl.cursor = (cl.cursor + 1) % len(cl.flows)
		if cl.flows[i].state == flowIdle {
			return i, true
		}
	}
	return 0, false
}

// transmit builds and queues flow i's current request toward the VIP.
// With tracing on the attempt's trace header travels ahead of the kv
// request (hop 0, no parent — the client is the root).
func (cl *client) transmit(i int, traceID uint64) {
	f := &cl.flows[i]
	binary.LittleEndian.PutUint64(cl.key[:], uint64(i))
	var payload [64]byte
	var off int
	if cl.c.dist != nil {
		var err error
		off, err = netproto.EncodeTraceHeader(payload[:], netproto.TraceHeader{TraceID: traceID})
		if err != nil {
			panic(err)
		}
	}
	var n int
	var err error
	if f.op == apps.KVSet {
		binary.LittleEndian.PutUint64(cl.val[:], uint64(i)^0xa5a5)
		n, err = apps.BuildKVRequest(payload[off:], apps.KVSet, cl.key[:], cl.val[:])
	} else {
		n, err = apps.BuildKVRequest(payload[off:], apps.KVGet, cl.key[:], nil)
	}
	if err != nil {
		panic(err)
	}
	fn, err := netproto.BuildUDP(cl.frame[:], cl.mac, lbMAC, cl.ip, lbIP,
		flowPort(i), 80, payload[:off+n])
	if err != nil {
		panic(err)
	}
	cl.c.send(cl.c.links[0], cl.frame[:fn], false, false)
}

// consume handles one server→client frame off the client link.
func (cl *client) consume(data []byte, tick uint64) {
	c := cl.c
	p, err := netproto.ParseUDP(data)
	if err != nil || len(p.Payload) == 0 {
		c.rep.DroppedMalformed++
		return
	}
	body := p.Payload
	var traceID uint64
	if c.dist != nil {
		// Traced replies echo the request's header ahead of the kv
		// status. A header that fails to decode (corruption) is
		// counted and the frame dropped — it must never join, let
		// alone complete, someone else's trace.
		hdr, rest, err := netproto.DecodeTraceHeader(p.Payload)
		if err != nil || len(rest) == 0 {
			c.dist.RejectHeader()
			c.rep.DroppedMalformed++
			return
		}
		body = rest
		traceID = hdr.TraceID
	}
	i := int(p.DstPort) - 40000
	if i < 0 || i >= len(cl.flows) {
		c.rep.DroppedMalformed++
		return
	}
	f := &cl.flows[i]
	if f.state == flowIdle {
		// A straggler for a request we already gave up on (or a
		// duplicate from a retransmit racing the original).
		c.rep.Stragglers++
		return
	}
	// Join the completion to its trace. A false return (a stale
	// attempt's reply arriving while a newer request occupies the
	// flow) is counted by the collector; the flow itself behaves
	// identically either way, keeping traced and untraced runs in
	// cycle lockstep.
	c.dist.Complete(traceID, i, tick)
	cl.latency.Observe((tick - f.firstAt) * TickCycles)
	c.rep.Responses++
	c.mix(evResponse, uint64(i), tick)
	if f.op == apps.KVGet && body[0] == 0 {
		c.rep.Misses++
		f.needsSet = true
	} else {
		if f.needsSet && f.op == apps.KVSet {
			c.rep.SetRepairs++
		}
		f.needsSet = false
	}
	f.state = flowIdle
}

// inFlight counts flows with a request outstanding (the denominator of
// the <5%-lost SLO at kill time).
func (cl *client) inFlight() uint64 {
	var n uint64
	for i := range cl.flows {
		if cl.flows[i].state != flowIdle {
			n++
		}
	}
	return n
}
