package cluster

import (
	"atmosphere/internal/apps"
	"atmosphere/internal/hw"
	"atmosphere/internal/kernel"
	"atmosphere/internal/netproto"
	"atmosphere/internal/pm"
)

// lbMAC is the front machine's NIC address; backend MACs derive from
// their node id.
var lbMAC = netproto.MAC{2, 0, 0, 0, 0, 1}

// machineConfig is the per-node kernel shape: single core, small
// memory — the cluster charges app and syscall costs, not capacity.
func machineConfig() hw.Config {
	return hw.Config{Frames: 512, Cores: 1, TLBSlots: 64}
}

// machine is one node of the tier: a booted kernel plus the app it
// runs (kvstore for backends, nothing extra for the LB — Maglev state
// lives in the Cluster so it survives an LB respawn rebuild).
type machine struct {
	id   int // 1-based node id (fault target)
	name string

	k     *kernel.Kernel
	tid   pm.Ptr
	mac   netproto.MAC
	store *apps.KVStore // nil on the LB

	inbox        [][]byte
	alive        bool
	stalledUntil uint64
	diedAt       uint64
	gen          int

	// Cumulative across respawns, like the driver supervisors' stats.
	served, forwarded uint64
	kernelCrossings   uint64
	retiredCycles     uint64 // cycles from generations that died
	Kills, Stalls     uint64
}

// newMachine boots a machine's first generation; a backend
// (storeCap > 0) allocates the one store every generation serves from.
func newMachine(id int, name string, storeCap uint64) (*machine, error) {
	m := &machine{
		id: id, name: name,
		mac: netproto.MAC{2, 0, 0, 0, 0, byte(id)},
	}
	if err := m.boot(); err != nil {
		return nil, err
	}
	if storeCap > 0 {
		s, err := apps.NewKVStore(storeCap, 8, 8)
		if err != nil {
			return nil, err
		}
		m.store = s
	}
	return m, nil
}

// boot starts a generation on a freshly booted kernel.
func (m *machine) boot() error {
	k, tid, err := kernel.Boot(machineConfig())
	if err != nil {
		return err
	}
	m.k = k
	m.tid = tid
	m.alive = true
	m.stalledUntil = 0
	m.inbox = m.inbox[:0]
	return nil
}

// respawn replaces the dead generation: it empties the dead
// generation's store in place and boots a fresh kernel. No entry is
// carried over: a machine's memory dies with it, so clients see an
// empty store whose GETs miss until read-repair refills them.
func (m *machine) respawn() error {
	m.retiredCycles += m.k.Machine.TotalCycles()
	m.gen++
	if m.store != nil {
		m.store.Reset()
	}
	return m.boot()
}

// ready reports whether the machine processes its inbox this tick
// (alive and not mid-stall; a stalled machine keeps its inbox queued).
func (m *machine) ready(tick uint64) bool {
	return m.alive && tick >= m.stalledUntil
}

func (m *machine) clock() *hw.Clock { return &m.k.Machine.Core(0).Clock }

// crossKernel charges one user→kernel→user round trip for the tick's
// batch, the same SysYield the drivers use as their crossing.
func (m *machine) crossKernel() {
	m.k.SysYield(0, m.tid)
	m.kernelCrossings++
}

// TotalCycles sums the machine's burned cycles across all generations.
func (m *machine) TotalCycles() uint64 {
	return m.retiredCycles + m.k.Machine.TotalCycles()
}

// Generation returns how many times the machine has respawned.
func (m *machine) Generation() int { return m.gen }

// Alive reports liveness (test hook).
func (m *machine) Alive() bool { return m.alive }

// Served returns the cumulative request count (test hook).
func (m *machine) Served() uint64 { return m.served }
