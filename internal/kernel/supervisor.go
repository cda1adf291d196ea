package kernel

import (
	"fmt"
	"sort"

	"atmosphere/internal/hw"
	"atmosphere/internal/pm"
)

// Driver supervision. Atmosphere's core claim (§1) is that an untrusted
// user-space driver can fail without taking the system down: the kernel
// confines it, and a trusted supervisor process tears down the wedged
// driver container and starts a fresh one. This file is that
// supervisor's kernel-side logic: a heartbeat watchdog over registered
// driver containers, bounded teardown through SysKillContainerBounded
// (so the big lock is never held for unbounded time even during
// recovery), and a respawn callback that rebuilds the driver.
//
// Time is the machine's aggregate cycle count — deterministic, advancing
// exactly when simulated work happens, so a wedged driver (one that has
// stopped charging cycles for completions) is detected identically on
// every run with the same seed.

// SupervisorEvent identifies one recovery action taken by Check.
type SupervisorEvent struct {
	Name     string // registered driver name
	Restarts uint64 // restart count after this event
	AtCycles uint64 // machine total cycles when the timeout fired
}

// SupervisorStats counts watchdog activity.
type SupervisorStats struct {
	Heartbeats uint64 // beats recorded
	Checks     uint64 // watchdog sweeps
	Timeouts   uint64 // heartbeat deadlines missed
	KillRounds uint64 // bounded-kill invocations issued
	Restarts   uint64 // successful respawns
	Failures   uint64 // respawn attempts that errored
}

// watch is one supervised driver container.
type watch struct {
	cntr     pm.Ptr
	lastBeat uint64
	restarts uint64
	respawn  func() (pm.Ptr, error)
}

// Supervisor watches driver heartbeats and restarts wedged drivers. It
// runs in the context of a trusted thread (Tid) that is an ancestor of
// every supervised container — the same authority structure §3 uses for
// container management.
type Supervisor struct {
	K   *Kernel
	Tid pm.Ptr // supervisor thread (root/init), issues the kill syscalls

	// HeartbeatTimeout is the cycle budget between beats before a driver
	// is declared wedged.
	HeartbeatTimeout uint64
	// KillBudget is the work-unit budget per bounded-kill invocation.
	KillBudget int
	// MaxKillRounds bounds the teardown loop of one recovery (a huge
	// container still tears down; a kernel bug cannot spin forever).
	MaxKillRounds int

	watches map[string]*watch
	Stats   SupervisorStats

	// OnStep, when set, runs after every bounded-kill invocation — the
	// verification hook that checks invariants on each intermediate
	// teardown state.
	OnStep func() error
}

// NewSupervisor builds a supervisor with the given watchdog timeout.
// When the kernel has a metrics registry attached, the supervisor's
// counters are published as live gauges under "supervisor.*".
func NewSupervisor(k *Kernel, tid pm.Ptr, timeout uint64) *Supervisor {
	s := &Supervisor{
		K: k, Tid: tid,
		HeartbeatTimeout: timeout,
		KillBudget:       8,
		MaxKillRounds:    100_000,
		watches:          make(map[string]*watch),
	}
	if m := k.Metrics(); m != nil {
		m.Gauge("supervisor.heartbeats", func() uint64 { return s.Stats.Heartbeats })
		m.Gauge("supervisor.checks", func() uint64 { return s.Stats.Checks })
		m.Gauge("supervisor.timeouts", func() uint64 { return s.Stats.Timeouts })
		m.Gauge("supervisor.kill_rounds", func() uint64 { return s.Stats.KillRounds })
		m.Gauge("supervisor.restarts", func() uint64 { return s.Stats.Restarts })
		m.Gauge("supervisor.failures", func() uint64 { return s.Stats.Failures })
	}
	return s
}

// Register begins supervising a driver container. respawn must rebuild
// the driver (new container, process, thread, device setup) and return
// the new container; it runs with the old container fully reclaimed.
func (s *Supervisor) Register(name string, cntr pm.Ptr, respawn func() (pm.Ptr, error)) {
	s.watches[name] = &watch{
		cntr:     cntr,
		lastBeat: s.K.Machine.TotalCycles(),
		respawn:  respawn,
	}
}

// Heartbeat records liveness for a driver. Drivers beat after each
// completed batch; a driver stuck in a poll loop that never completes
// stops beating even though it is burning cycles.
func (s *Supervisor) Heartbeat(name string) {
	if w, ok := s.watches[name]; ok {
		w.lastBeat = s.K.Machine.TotalCycles()
		s.Stats.Heartbeats++
	}
}

// Restarts returns how many times a driver has been restarted.
func (s *Supervisor) Restarts(name string) uint64 {
	if w, ok := s.watches[name]; ok {
		return w.restarts
	}
	return 0
}

// Check sweeps every watch, recovering drivers whose heartbeat deadline
// passed. Names are visited in sorted order so recovery order is
// deterministic. Returns the recovery events performed.
func (s *Supervisor) Check(core int) ([]SupervisorEvent, error) {
	s.Stats.Checks++
	now := s.K.Machine.TotalCycles()
	names := make([]string, 0, len(s.watches))
	for n := range s.watches {
		names = append(names, n)
	}
	sort.Strings(names)
	var events []SupervisorEvent
	for _, name := range names {
		w := s.watches[name]
		if now-w.lastBeat <= s.HeartbeatTimeout {
			continue
		}
		s.Stats.Timeouts++
		s.obsInstant(core, "supervisor.timeout", now-w.lastBeat)
		if err := s.recover(core, name, w); err != nil {
			return events, err
		}
		events = append(events, SupervisorEvent{
			Name: name, Restarts: w.restarts, AtCycles: now,
		})
	}
	return events, nil
}

// recover tears the wedged container down with bounded kill invocations
// and respawns the driver.
func (s *Supervisor) recover(core int, name string, w *watch) error {
	for round := 0; ; round++ {
		if round >= s.MaxKillRounds {
			return fmt.Errorf("kernel: supervisor: %s teardown exceeded %d rounds", name, s.MaxKillRounds)
		}
		s.Stats.KillRounds++
		r := s.K.SysKillContainerBounded(core, s.Tid, w.cntr, s.KillBudget)
		if s.OnStep != nil {
			if err := s.OnStep(); err != nil {
				return fmt.Errorf("kernel: supervisor: invariant violated mid-teardown: %w", err)
			}
		}
		if r.Errno == OK {
			break
		}
		if r.Errno != EAGAIN {
			return fmt.Errorf("kernel: supervisor: kill %s: %v", name, r.Errno)
		}
		// Yield-equivalent pause between invocations: other work runs
		// while the teardown is in progress.
		clk := &s.K.Machine.Core(core).Clock
		base := clk.Cycles()
		clk.Charge(hw.CostContextSwitch)
		if l := s.K.Ledger(); l != nil {
			// The pause is supervisor work: bill it to the supervisor
			// thread's own container, not the victim.
			if st, ok := s.K.PM.TryThrd(s.Tid); ok {
				l.ChargeCycles(st.OwningCntr, hw.CostContextSwitch)
			}
		}
		if t := s.K.Tracer(); t != nil {
			tr := t.Track(core, CoreName(core), "supervisor")
			t.Span(tr, t.Name("supervisor.pause"), base, clk.Cycles())
		}
	}
	cntr, err := w.respawn()
	if err != nil {
		s.Stats.Failures++
		return fmt.Errorf("kernel: supervisor: respawn %s: %w", name, err)
	}
	w.cntr = cntr
	w.restarts++
	w.lastBeat = s.K.Machine.TotalCycles()
	s.Stats.Restarts++
	s.obsInstant(core, "supervisor.restart", w.restarts)
	return nil
}

// obsInstant emits a supervisor marker on core's supervisor track (the
// core's own timeline, like every other per-core track).
func (s *Supervisor) obsInstant(core int, name string, arg uint64) {
	t := s.K.Tracer()
	if t == nil {
		return
	}
	tr := t.Track(core, CoreName(core), "supervisor")
	t.Instant(tr, t.Name(name), s.K.Machine.Core(core).Clock.Cycles(), arg)
}
