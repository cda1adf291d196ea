// Package apps implements the three data-intensive applications of the
// evaluation (§6.6): the Maglev load balancer, a memcached-style
// key-value store, and a static web server. Each is a real
// implementation of the algorithm (Maglev's permutation-table population,
// FNV open addressing with linear probing, HTTP parsing) whose packet
// processing plugs into the driver configurations as an AppWork.
package apps

import (
	"fmt"
	"hash/fnv"

	"atmosphere/internal/hw"
	"atmosphere/internal/netproto"
)

// Maglev implements Google's Maglev consistent hashing (§6.6, [55]):
// each backend generates a permutation of table positions from two
// hashes of its name (offset, skip), and the population algorithm lets
// backends claim positions round-robin until the lookup table is full.
// The result balances within ~1% and minimizes disruption on backend
// changes.
type Maglev struct {
	backends []string
	vips     []netproto.IPv4
	// active marks backends currently claiming table positions.
	// Removing a backend deactivates it rather than reindexing, so
	// every surviving backend keeps its permutation (offset, skip) and
	// the repopulated table disrupts a minimal fraction of positions —
	// Maglev's headline property.
	active []bool
	perms  []perm // by backend index, computed once per backend
	m      uint64 // table size, prime
	table  []int32

	// Stats.
	Forwarded uint64
}

// perm is one backend's permutation of table positions — position j is
// (offset + j·skip) mod m — and populate's cursor j into it.
type perm struct{ offset, skip, next uint64 }

// DefaultTableSize is a small prime (Maglev's paper uses 65537 for
// evaluation); it trades memory for balance quality.
const DefaultTableSize = 65537

// NewMaglev builds a load balancer for the named backends with their
// addresses.
func NewMaglev(backends []string, addrs []netproto.IPv4, tableSize uint64) (*Maglev, error) {
	if len(backends) == 0 || len(backends) != len(addrs) {
		return nil, fmt.Errorf("apps: need equal non-empty backends and addresses")
	}
	if tableSize == 0 {
		tableSize = DefaultTableSize
	}
	m := &Maglev{
		backends: backends, vips: addrs, m: tableSize,
		active: make([]bool, len(backends)),
		perms:  make([]perm, 0, len(backends)),
		table:  make([]int32, tableSize),
	}
	for i, b := range backends {
		m.active[i] = true
		m.permute(b)
	}
	m.populate()
	return m, nil
}

func hash64(s string, seed uint64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for i := range b {
		b[i] = byte(seed >> (8 * i))
	}
	h.Write(b[:])
	h.Write([]byte(s))
	return h.Sum64()
}

// permute appends a new backend's permutation: its offset and skip
// from two hashes of its name.
func (m *Maglev) permute(name string) {
	m.perms = append(m.perms, perm{
		offset: hash64(name, 0xc0ffee) % m.m,
		skip:   hash64(name, 0xdecade)%(m.m-1) + 1,
	})
}

// populate is the algorithm from §3.4 of the Maglev paper: round-robin
// over the active backends, each taking its next preferred free slot.
// The permutations are computed once per backend (permute), so populate
// only refills the table and the cursors in place. With no active
// backend the table is all -1 and Lookup returns -1.
func (m *Maglev) populate() {
	for i := range m.table {
		m.table[i] = -1
	}
	if m.ActiveBackends() == 0 {
		return
	}
	for i := range m.perms {
		m.perms[i].next = 0
	}
	n := len(m.backends)
	filled := uint64(0)
	for filled < m.m {
		for i := 0; i < n && filled < m.m; i++ {
			if !m.active[i] {
				continue
			}
			p := &m.perms[i]
			c := (p.offset + p.next*p.skip) % m.m
			for m.table[c] >= 0 {
				p.next++
				c = (p.offset + p.next*p.skip) % m.m
			}
			m.table[c] = int32(i)
			p.next++
			filled++
		}
	}
}

// AddBackend activates a backend: a known name is reinstated (a healed
// machine returning to the pool), an unknown one appended with addr.
// The table is repopulated; surviving backends keep their permutations,
// so disruption is limited to the positions the new backend claims.
func (m *Maglev) AddBackend(name string, addr netproto.IPv4) error {
	for i, b := range m.backends {
		if b != name {
			continue
		}
		if m.active[i] {
			return fmt.Errorf("apps: maglev: backend %q already active", name)
		}
		m.active[i] = true
		m.vips[i] = addr
		m.populate()
		return nil
	}
	m.backends = append(m.backends, name)
	m.vips = append(m.vips, addr)
	m.active = append(m.active, true)
	m.permute(name)
	m.populate()
	return nil
}

// RemoveBackend deactivates a backend (a dead machine leaving the
// pool) and repopulates the table. The backend keeps its index, so a
// later AddBackend reinstates it with the same permutation.
func (m *Maglev) RemoveBackend(name string) error {
	for i, b := range m.backends {
		if b != name {
			continue
		}
		if !m.active[i] {
			return fmt.Errorf("apps: maglev: backend %q already removed", name)
		}
		m.active[i] = false
		m.populate()
		return nil
	}
	return fmt.Errorf("apps: maglev: unknown backend %q", name)
}

// Lookup returns the backend index for a flow, or -1 with no active
// backends.
func (m *Maglev) Lookup(t netproto.FiveTuple) int {
	h := fnv.New64a()
	h.Write(t.SrcIP[:])
	h.Write(t.DstIP[:])
	h.Write([]byte{byte(t.SrcPort >> 8), byte(t.SrcPort), byte(t.DstPort >> 8), byte(t.DstPort), t.Proto})
	return int(m.table[h.Sum64()%m.m])
}

// TableCounts returns how many table entries each backend owns (balance
// verification). Inactive backends own zero.
func (m *Maglev) TableCounts() []int {
	counts := make([]int, len(m.backends))
	for _, b := range m.table {
		if b >= 0 {
			counts[b]++
		}
	}
	return counts
}

// TableSnapshot copies the lookup table — position → backend index, -1
// for unowned — for disruption measurements.
func (m *Maglev) TableSnapshot() []int32 {
	out := make([]int32, len(m.table))
	copy(out, m.table)
	return out
}

// Backends returns the backend count (active or not).
func (m *Maglev) Backends() int { return len(m.backends) }

// ActiveBackends returns how many backends currently claim positions.
func (m *Maglev) ActiveBackends() int {
	n := 0
	for _, a := range m.active {
		if a {
			n++
		}
	}
	return n
}

// ProcessCycles is the measured per-packet forwarding cost: header
// parse, flow hash, one table load (the 64K-entry table misses L1), and
// the incremental checksum rewrite.
const ProcessCycles = 118

// Forward processes one frame in place: parse, look up the backend,
// rewrite the destination, and report whether to transmit. Malformed
// frames are dropped.
func (m *Maglev) Forward(clk *hw.Clock, frame []byte) bool {
	clk.Charge(ProcessCycles)
	p, err := netproto.ParseUDP(frame)
	if err != nil {
		return false
	}
	idx := m.Lookup(p.Tuple())
	if idx < 0 {
		return false
	}
	if err := netproto.RewriteDstIP(frame, m.vips[idx]); err != nil {
		return false
	}
	m.Forwarded++
	return true
}
