package cluster

// health is the front tier's backend prober: a UDP ping per backend
// every ProbeEvery ticks, DeadAfter consecutive misses evicts the
// backend from the Maglev table, LiveAfter consecutive replies after a
// respawn reinstates it. Everything is slice-indexed by backend — no
// maps anywhere near the deterministic path.
type health struct {
	inTable     []bool // mirrors maglev membership
	outstanding []bool
	sentAt      []uint64
	misses      []int
	oks         []int
	seq         uint64

	// Reconvergence bookkeeping (first chaos event of each kind).
	killAt    uint64 // tick the first backend kill fired
	removedAt uint64 // tick the health checker evicted it
	respawnAt uint64 // tick the supervisor brought it back
	addedAt   uint64 // tick the health checker reinstated it
}

func newHealth(backends int) *health {
	h := &health{
		inTable:     make([]bool, backends),
		outstanding: make([]bool, backends),
		sentAt:      make([]uint64, backends),
		misses:      make([]int, backends),
		oks:         make([]int, backends),
	}
	for i := range h.inTable {
		h.inTable[i] = true
	}
	return h
}

func (h *health) noteKill(b int, tick uint64) {
	if h.killAt == 0 {
		h.killAt = tick
	}
}

func (h *health) noteRespawn(b int, tick uint64) {
	if h.respawnAt == 0 {
		h.respawnAt = tick
	}
}

// step times out overdue probes and launches the next round. Probe
// replies arrive through the LB inbox (reply, below) before step runs,
// so a reply and its timeout can never both count in one tick.
func (h *health) step(c *Cluster, tick uint64) {
	if !c.machines[0].alive {
		return
	}
	for b := range h.inTable {
		if h.outstanding[b] && tick-h.sentAt[b] >= probeTimeout {
			h.outstanding[b] = false
			h.oks[b] = 0
			h.misses[b]++
			c.mix(evProbeMiss, uint64(b), tick)
			if h.inTable[b] && h.misses[b] >= DeadAfter {
				h.evict(c, b, tick)
			}
		}
		if tick%ProbeEvery == 0 && !h.outstanding[b] {
			h.outstanding[b] = true
			h.sentAt[b] = tick
			h.seq++
			c.probe(b, h.seq)
		}
	}
}

// reply consumes one probe echo routed up from the LB inbox.
func (h *health) reply(c *Cluster, b int, tick uint64) {
	if b < 0 || b >= len(h.inTable) || !h.outstanding[b] {
		return
	}
	h.outstanding[b] = false
	h.misses[b] = 0
	h.oks[b]++
	if !h.inTable[b] && h.oks[b] >= liveAfter {
		h.reinstate(c, b, tick)
	}
}

func (h *health) evict(c *Cluster, b int, tick uint64) {
	if err := c.maglev.RemoveBackend(c.machines[1+b].name); err != nil {
		return
	}
	h.inTable[b] = false
	c.rep.RemoveEvents++
	c.mix(evRemove, uint64(b), tick)
	c.instant(c.nameRemove, uint64(b))
	if h.removedAt == 0 && h.killAt != 0 {
		h.removedAt = tick
	}
}

func (h *health) reinstate(c *Cluster, b int, tick uint64) {
	if err := c.maglev.AddBackend(c.machines[1+b].name, backendIP(b)); err != nil {
		return
	}
	h.inTable[b] = true
	c.rep.AddEvents++
	c.mix(evAdd, uint64(b), tick)
	c.instant(c.nameAdd, uint64(b))
	if h.addedAt == 0 && h.respawnAt != 0 {
		h.addedAt = tick
	}
}
