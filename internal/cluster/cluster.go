// Package cluster scales the evaluation from one kernel to a serving
// tier: N kernel.Kernel instances ("machines") joined by simulated NIC
// links speaking internal/netproto, a Maglev front machine consistent-
// hashing flows onto kvstore backend shards, and an open-loop wrk-style
// client driving the topology — all on one deterministic clock, so
// chaos runs (machine kills, link partitions) replay byte-identically
// from a seed. This is ROADMAP item 2: the separation-kernel discipline
// one level up — a dead machine must not take down the tier, and the
// run measures how long the tier takes to reconverge.
package cluster

import (
	"fmt"

	"atmosphere/internal/apps"
	"atmosphere/internal/faults"
	"atmosphere/internal/hw"
	"atmosphere/internal/netproto"
	"atmosphere/internal/obs"
	"atmosphere/internal/obs/dist"
)

// TickCycles is the simulation quantum: every tick advances the shared
// cluster clock by this many cycles, and every link hop takes one tick.
// At 2.2 GHz a tick is ~9 µs, so the 4-hop client→LB→backend→LB→client
// round trip lands at ~36 µs — datacenter-RTT scale.
const TickCycles = 20_000

// ProbePort is the UDP port the front tier health-checks backends on.
const ProbePort = 9

// Config shapes a cluster run. Durations are in ticks (multiply by
// TickCycles for cycles); the fault plan stays in cycles like every
// other injector user.
type Config struct {
	Name         string // metric-name prefix ("cluster" when empty)
	Backends     int    // backend machine count
	Flows        int    // concurrent client flows (one request in flight each)
	Rate         int    // open-loop arrivals per tick
	Ticks        uint64 // run length
	Seed         uint64
	TableSize    uint64 // Maglev table size (prime)
	StoreEntries uint64 // per-backend kvstore capacity
	SetFraction  float64

	// Client retry policy, in ticks.
	DeadlineTicks   uint64
	BackoffTicks    uint64
	BackoffCapTicks uint64
	RetryBudget     int

	// Front-tier health checking, in ticks.
	ProbeEvery   uint64
	ProbeTimeout uint64
	DeadAfter    int // consecutive probe misses before removal
	LiveAfter    int // consecutive probe replies before reinstatement

	// Supervisor respawn delay, in ticks.
	RespawnDelayTicks uint64

	// Distributed tracing (internal/obs/dist): when on, every request
	// carries a 16-byte trace header, each machine records per-hop
	// spans on its own tracer, and the run can export a merged
	// multi-machine Perfetto trace with critical-path attribution.
	// Cycle-free: the traced run charges exactly the cycles of an
	// untraced one (only the wire bytes and the TraceHash differ).
	DistTracing  bool
	DistEventCap int // per-participant ring capacity (obs default when 0)

	Plan    faults.Plan
	Tracer  *obs.Tracer
	Metrics *obs.Registry
}

// DefaultConfig is the bench topology: 4 backends, 1024 flows, 8
// arrivals/tick.
func DefaultConfig() Config {
	return Config{
		Backends:     4,
		Flows:        1024,
		Rate:         8,
		Ticks:        2000,
		Seed:         1107,
		TableSize:    4093,
		StoreEntries: 1 << 13,
		SetFraction:  0.1,

		DeadlineTicks:   16,
		BackoffTicks:    8,
		BackoffCapTicks: 64,
		RetryBudget:     3,

		ProbeEvery:   5,
		ProbeTimeout: 4,
		DeadAfter:    2,
		LiveAfter:    2,

		RespawnDelayTicks: 300,
	}
}

// Node ids (1-based, for fault targeting): 1 is the load-balancer
// machine, 2..Backends+1 the backend machines. The client is not a
// machine — it models the outside world. Link ids: 1 is client↔LB,
// 2..Backends+1 is LB↔backend(id-2).
const (
	lbNode        = 1
	firstBackend  = 2
	clientLink    = 1
	firstBackLink = 2
)

// Cluster is one multi-machine serving tier.
type Cluster struct {
	cfg    Config
	tick   uint64
	rand   *hw.Rand
	inj    *faults.Injector
	maglev *apps.Maglev

	machines []*machine // [0] = LB, [1..B] = backends
	links    []*link    // [0] = client link, [1..B] = backend links
	client   *client
	health   *health
	dist     *dist.Collector // nil unless cfg.DistTracing

	tracer *obs.Tracer
	track  obs.TrackID
	nameKill, nameRespawn, nameRemove, nameAdd,
	nameStall, namePartition obs.NameID

	frame [2048]byte // scratch for reply/probe construction
	due   []inflight // scratch for one link's due frames in deliver
	free  [][]byte   // frame buffers no link, inbox or consumer holds
	rep   Report
	hash  uint64
}

// lbIP is the virtual IP clients address; backendIP(i) derives backend
// i's address arithmetically so IP→index needs no map.
var lbIP = netproto.IPv4{192, 168, 1, 1}

func backendIP(i int) netproto.IPv4 { return netproto.IPv4{172, 16, 0, byte(i + 1)} }

func backendIndex(ip netproto.IPv4) int {
	if ip[0] != 172 || ip[1] != 16 || ip[2] != 0 || ip[3] == 0 {
		return -1
	}
	return int(ip[3]) - 1
}

// New assembles the tier: boots every machine, populates the Maglev
// table over all backends, and arms the fault injector against the
// shared clock.
func New(cfg Config) (*Cluster, error) {
	if cfg.Backends < 1 {
		return nil, fmt.Errorf("cluster: need at least one backend")
	}
	if cfg.Flows < 1 || cfg.Rate < 1 || cfg.Ticks == 0 {
		return nil, fmt.Errorf("cluster: flows, rate, and ticks must be positive")
	}
	c := &Cluster{cfg: cfg, rand: hw.NewRand(cfg.Seed), hash: hw.FNVOffset}
	inj, err := faults.NewInjector(cfg.Seed+1, cfg.Plan, func() uint64 { return c.tick * TickCycles })
	if err != nil {
		return nil, err
	}
	c.inj = inj
	if cfg.Tracer != nil {
		c.tracer = cfg.Tracer
		c.track = c.tracer.Track(100, "cluster", "events")
		c.nameKill = c.tracer.Name("machine-kill")
		c.nameRespawn = c.tracer.Name("machine-respawn")
		c.nameRemove = c.tracer.Name("backend-remove")
		c.nameAdd = c.tracer.Name("backend-add")
		c.nameStall = c.tracer.Name("machine-stall")
		c.namePartition = c.tracer.Name("link-partition")
		inj.SetTracer(c.tracer)
	}

	names := make([]string, cfg.Backends)
	addrs := make([]netproto.IPv4, cfg.Backends)
	for i := 0; i < cfg.Backends; i++ {
		names[i] = fmt.Sprintf("backend-%d", i)
		addrs[i] = backendIP(i)
	}
	c.maglev, err = apps.NewMaglev(names, addrs, cfg.TableSize)
	if err != nil {
		return nil, err
	}

	lb, err := newMachine(lbNode, "lb", 0)
	if err != nil {
		return nil, err
	}
	c.machines = append(c.machines, lb)
	for i := 0; i < cfg.Backends; i++ {
		m, err := newMachine(firstBackend+i, names[i], cfg.StoreEntries)
		if err != nil {
			return nil, err
		}
		c.machines = append(c.machines, m)
	}
	for i := 0; i <= cfg.Backends; i++ {
		c.links = append(c.links, &link{id: clientLink + i})
	}
	c.client = newClient(c)
	c.health = newHealth(cfg.Backends)
	if cfg.DistTracing {
		participants := append([]string{"client", "lb"}, names...)
		c.dist = dist.New(
			dist.Config{EventCap: cfg.DistEventCap, TickCycles: TickCycles, Seed: cfg.Seed},
			participants, cfg.Flows)
	}
	return c, nil
}

// Run executes the configured number of ticks and returns the report.
func (c *Cluster) Run() Report {
	for c.tick < c.cfg.Ticks {
		c.Step()
	}
	return c.Report()
}

// Step advances the cluster one tick. The sub-step order is fixed —
// faults, supervisor, client arrivals, link delivery, LB, backends,
// health — so a seed fully determines the event sequence.
func (c *Cluster) Step() {
	c.tick++
	c.injectFaults()
	c.supervise()
	c.client.step(c.tick)
	c.deliver()
	c.lbStep()
	c.backendsStep()
	c.health.step(c, c.tick)
}

// injectFaults consults the injector for every machine and link, in id
// order, once per tick.
func (c *Cluster) injectFaults() {
	for _, m := range c.machines {
		if hit, _ := c.inj.ShouldFor(faults.MachineKill, uint64(m.id)); hit && m.alive {
			c.killMachine(m)
		}
		if hit, param := c.inj.ShouldFor(faults.MachineStall, uint64(m.id)); hit && m.alive {
			m.stalledUntil = c.tick + ticksFromCycles(param)
			m.Stalls++
			c.mix(evStall, uint64(m.id), c.tick)
			c.instant(c.nameStall, uint64(m.id))
		}
	}
	for _, l := range c.links {
		if hit, param := c.inj.ShouldFor(faults.LinkPartition, uint64(l.id)); hit {
			l.partitionedUntil = c.tick + ticksFromCycles(param)
			dropped := c.flush(l)
			c.rep.DroppedLink += dropped
			c.mix(evPartition, uint64(l.id), dropped)
			c.instant(c.namePartition, uint64(l.id))
		}
		if hit, param := c.inj.ShouldFor(faults.LinkDelay, uint64(l.id)); hit {
			l.delayExtra = ticksFromCycles(param)
		}
		if hit, _ := c.inj.ShouldFor(faults.LinkCorrupt, uint64(l.id)); hit {
			l.corruptNext = true
		}
	}
}

// ticksFromCycles converts a fault Param given in cycles to ticks,
// never rounding to zero (a fired fault always bites for one tick).
func ticksFromCycles(cycles uint64) uint64 {
	t := cycles / TickCycles
	if t == 0 {
		t = 1
	}
	return t
}

func (c *Cluster) killMachine(m *machine) {
	m.alive = false
	m.diedAt = c.tick
	m.stalledUntil = 0
	c.rep.DroppedDead += uint64(len(m.inbox))
	c.free = append(c.free, m.inbox...)
	m.inbox = m.inbox[:0]
	m.Kills++
	c.rep.Kills++
	c.mix(evKill, uint64(m.id), c.tick)
	c.instant(c.nameKill, uint64(m.id))
	if m.id >= firstBackend {
		b := m.id - firstBackend
		c.health.noteKill(b, c.tick)
		if c.rep.FirstKillTick == 0 {
			c.rep.FirstKillTick = c.tick
			c.rep.InFlightAtKill = c.client.inFlight()
		}
	}
}

// supervise respawns dead machines after the respawn delay: a fresh
// kernel boot and an empty store (state died with the machine — the
// client's read-repair refills it), with stats cumulative across
// generations like the driver supervisors.
func (c *Cluster) supervise() {
	for _, m := range c.machines {
		if m.alive || c.tick < m.diedAt+c.cfg.RespawnDelayTicks {
			continue
		}
		if err := m.respawn(); err != nil {
			// Respawn cannot fail with a valid config; surface loudly.
			panic(fmt.Sprintf("cluster: respawn %s: %v", m.name, err))
		}
		c.rep.Respawns++
		c.mix(evRespawn, uint64(m.id), c.tick)
		c.instant(c.nameRespawn, uint64(m.id))
		if m.id >= firstBackend {
			c.health.noteRespawn(m.id-firstBackend, c.tick)
		}
	}
}

// deliver moves due frames: the client link's LB-bound frames into the
// LB inbox and client-bound frames into the client; backend links
// likewise by direction. Nothing the loop calls delivers, so one
// buffer serves every link. A frame the client consumes, or that finds
// its machine dead, gives its buffer back at once.
func (c *Cluster) deliver() {
	for _, l := range c.links {
		c.due = l.due(c.tick, c.due[:0])
		for _, f := range c.due {
			c.rep.Delivered++
			c.mix(evDeliver, uint64(l.id), uint64(len(f.data)))
			if f.toClient {
				c.client.consume(f.data, c.tick)
				c.free = append(c.free, f.data)
			} else {
				m := c.machineFor(l, f)
				if m == nil || !m.alive {
					c.rep.DroppedDead++
					c.free = append(c.free, f.data)
					continue
				}
				c.distArrive(f.data, m.id)
				m.inbox = append(m.inbox, f.data)
			}
		}
	}
}

// machineFor routes a non-client-bound frame: on the client link it is
// LB-bound; on a backend link direction distinguishes LB from backend.
func (c *Cluster) machineFor(l *link, f inflight) *machine {
	if l.id == clientLink {
		return c.machines[0]
	}
	if f.toLB {
		return c.machines[0]
	}
	return c.machines[l.id-firstBackLink+1]
}

// lbStep runs the front tier: route probe replies to the health
// checker, responses back to the client, and requests through Maglev to
// a backend link. Each frame charges Maglev's forwarding cost to the LB
// machine's clock; a nonempty tick costs one kernel crossing.
func (c *Cluster) lbStep() {
	lb := c.machines[0]
	if !lb.ready(c.tick) {
		return
	}
	clk := lb.clock()
	base := clk.Cycles()
	for _, data := range lb.inbox {
		before := clk.Cycles()
		clk.Charge(apps.ProcessCycles)
		p, err := netproto.ParseUDP(data)
		if err != nil {
			c.rep.DroppedMalformed++
			continue
		}
		switch {
		case p.DstIP == lbIP && p.DstPort == ProbePort:
			c.health.reply(c, backendIndex(p.SrcIP), c.tick)
		case p.DstIP == c.client.ip:
			// A backend reply passing through on its way out: hop 3.
			c.distSpan(p.Payload, lbNode, dist.HopLBReturn, 3, base, before, clk)
			c.send(c.links[0], data, true, false)
		default:
			idx := c.maglev.Lookup(p.Tuple())
			if idx < 0 {
				c.rep.DroppedNoBackend++
				continue
			}
			if err := netproto.RewriteDstIP(data, backendIP(idx)); err != nil {
				c.rep.DroppedMalformed++
				continue
			}
			if !c.machines[1+idx].alive {
				c.rep.Misrouted++
				c.mix(evMisroute, uint64(idx), c.tick)
			}
			c.distSpan(p.Payload, lbNode, dist.HopLBForward, 1, base, before, clk)
			lb.forwarded++
			c.send(c.links[1+idx], data, false, false)
		}
	}
	if len(lb.inbox) > 0 {
		lb.crossKernel()
	}
	c.free = append(c.free, lb.inbox...)
	lb.inbox = lb.inbox[:0]
}

// backendsStep serves every live backend's inbox: health probes are
// echoed, kvstore requests served in place and the reply addressed back
// to the requester. Stalled machines hold their inboxes (frames are
// delayed, not lost); dead machines had them dropped at delivery.
func (c *Cluster) backendsStep() {
	for i := 1; i < len(c.machines); i++ {
		m := c.machines[i]
		if !m.alive || !m.ready(c.tick) {
			continue
		}
		clk := m.clock()
		base := clk.Cycles()
		for _, data := range m.inbox {
			p, err := netproto.ParseUDP(data)
			if err != nil {
				c.rep.DroppedMalformed++
				continue
			}
			if p.DstPort == ProbePort {
				n, err := netproto.BuildUDP(c.frame[:], m.mac, lbMAC, backendIP(i-1), lbIP,
					ProbePort, ProbePort, p.Payload)
				if err == nil {
					c.send(c.links[i], c.frame[:n], false, true)
				}
				continue
			}
			before := clk.Cycles()
			// A traced request is served past its header (the reply
			// overwrites the kv body in place, leaving the header
			// intact); an untraced one is served whole. Both charge
			// the same ServeCycles.
			traced := false
			served := false
			if c.dist != nil {
				if _, rest, err := netproto.DecodeTraceHeader(p.Payload); err == nil {
					traced = true
					served = m.store.ServePayload(clk, rest)
				}
			}
			if !traced {
				served = m.store.Serve(clk, data)
			}
			if !served {
				c.rep.DroppedMalformed++
				continue
			}
			if traced {
				c.distSpan(p.Payload, m.id, dist.HopBackend, 2, base, before, clk)
			}
			m.served++
			// The payload now holds the reply in place; re-address it
			// to the requester.
			n, err := netproto.BuildUDP(c.frame[:], m.mac, lbMAC, backendIP(i-1), p.SrcIP,
				p.DstPort, p.SrcPort, p.Payload)
			if err != nil {
				c.rep.DroppedMalformed++
				continue
			}
			c.send(c.links[i], c.frame[:n], false, true)
		}
		if len(m.inbox) > 0 {
			m.crossKernel()
		}
		c.free = append(c.free, m.inbox...)
		m.inbox = m.inbox[:0]
	}
}

// send queues a copy of a frame on a link, applying the link's fault
// state. The copy reuses a released buffer when there is one.
func (c *Cluster) send(l *link, data []byte, toClient, toLB bool) {
	if c.tick < l.partitionedUntil {
		c.rep.DroppedLink++
		c.mix(evLinkDrop, uint64(l.id), c.tick)
		return
	}
	var buf []byte
	if n := len(c.free); n > 0 {
		buf = c.free[n-1][:0]
		c.free = c.free[:n-1]
	}
	buf = append(buf, data...)
	delay := uint64(1) + l.delayExtra
	l.delayExtra = 0
	if l.corruptNext {
		l.corruptNext = false
		// Flip the EtherType: the receiver's parser rejects the frame.
		if len(buf) > 12 {
			buf[12] ^= 0xff
		}
		c.rep.Corrupted++
		c.mix(evCorrupt, uint64(l.id), c.tick)
	}
	l.queue = append(l.queue, inflight{at: c.tick + delay, data: buf, toClient: toClient, toLB: toLB})
	c.mix(evSend, uint64(l.id), uint64(len(buf)))
}

func (c *Cluster) probe(b int, seq uint64) {
	lb := c.machines[0]
	if !lb.alive {
		return
	}
	var payload [8]byte
	for i := range payload {
		payload[i] = byte(seq >> (8 * i))
	}
	n, err := netproto.BuildUDP(c.frame[:], lbMAC, c.machines[1+b].mac, lbIP, backendIP(b),
		ProbePort, ProbePort, payload[:])
	if err != nil {
		return
	}
	c.send(c.links[1+b], c.frame[:n], false, false)
	c.mix(evProbe, uint64(b), seq)
}

func (c *Cluster) instant(name obs.NameID, arg uint64) {
	if c.tracer != nil {
		c.tracer.Instant(c.track, name, c.tick*TickCycles, arg)
	}
}

// Maglev exposes the front tier's table (test hook).
func (c *Cluster) Maglev() *apps.Maglev { return c.maglev }

// Machine returns machine m (0 = LB, 1.. = backends; test hook).
func (c *Cluster) Machine(i int) *machine { return c.machines[i] }
