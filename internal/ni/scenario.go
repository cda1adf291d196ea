// Package ni implements the paper's isolation and non-interference
// argument (§4.3) as an executable checker.
//
// The system configuration is the paper's running example: two
// untrusted, isolated containers A and B, and a verified shared service
// container V. A and B may each talk to V over a dedicated endpoint but
// have no channel to each other. The checker drives arbitrary system
// calls with arbitrary arguments from A's and B's threads and validates:
//
//   - memory_iso and endpoint_iso (the §4.3 invariants) after every step;
//   - step consistency (SC): a step by A leaves B's observable state
//     bit-identical, and vice versa;
//   - output consistency (OC): the kernel is a deterministic function of
//     its pre-state — replaying a trace reproduces every return value
//     and every observable state;
//   - local respect (LR): subsumed by SC in this configuration, as in
//     the paper.
//
// V's functional correctness — it never leaks memory between A and B and
// always releases pages it receives, even when a client dies — is
// checked by the Service type's own invariants (service.go).
package ni

import (
	"fmt"

	"atmosphere/internal/hw"
	"atmosphere/internal/kernel"
	"atmosphere/internal/pm"
)

// Scenario is the instantiated A/B/V configuration.
type Scenario struct {
	K    *kernel.Kernel
	Init pm.Ptr // root container's setup thread

	A, B, V    pm.Ptr // containers
	PA, PB, PV pm.Ptr // initial processes
	TA, TB, TV pm.Ptr // initial threads

	// EpAV and EpBV are the two service endpoints: V <-> A and V <-> B.
	EpAV, EpBV pm.Ptr

	// Slot assignments (same on both sides).
	SlotAV, SlotBV int
}

// Config sizes the scenario: the machine Build boots and each
// container's quota.
type Config struct {
	QuotaA   uint64
	QuotaB   uint64
	QuotaV   uint64
	HWConfig hw.Config
}

// DefaultConfig returns the standard scenario sizing.
func DefaultConfig() Config {
	return Config{
		HWConfig: hw.Config{Frames: 8192, Cores: 4, TLBSlots: 256},
		QuotaA:   512, QuotaB: 512, QuotaV: 512,
	}
}

// Build boots a kernel and assembles the A/B/V configuration. The
// trusted parent (the root container's init thread) creates the three
// containers, one process and thread each, and installs the two service
// endpoints — the boot-time channel setup the paper's configuration
// assumes. A gets core 1, B core 2, V core 3 (complete CPU separation).
func Build(cfg Config) (*Scenario, error) {
	k, init, err := kernel.Boot(cfg.HWConfig)
	if err != nil {
		return nil, err
	}
	s := &Scenario{K: k, Init: init, SlotAV: 0, SlotBV: 1}

	mk := func(quota uint64, core int) (cntr, proc, thrd pm.Ptr, err error) {
		r := k.SysNewContainer(0, init, quota, []int{core})
		if r.Errno != kernel.OK {
			return 0, 0, 0, fmt.Errorf("new_container: %v", r.Errno)
		}
		cntr = pm.Ptr(r.Vals[0])
		r = k.SysNewProcessIn(0, init, cntr)
		if r.Errno != kernel.OK {
			return 0, 0, 0, fmt.Errorf("new_proc_in: %v", r.Errno)
		}
		proc = pm.Ptr(r.Vals[0])
		r = k.SysNewThreadIn(0, init, proc, core)
		if r.Errno != kernel.OK {
			return 0, 0, 0, fmt.Errorf("new_thread_in: %v", r.Errno)
		}
		thrd = pm.Ptr(r.Vals[0])
		return cntr, proc, thrd, nil
	}
	if s.A, s.PA, s.TA, err = mk(cfg.QuotaA, 1); err != nil {
		return nil, err
	}
	if s.B, s.PB, s.TB, err = mk(cfg.QuotaB, 2); err != nil {
		return nil, err
	}
	if s.V, s.PV, s.TV, err = mk(cfg.QuotaV, 3); err != nil {
		return nil, err
	}

	// V creates the two service endpoints; the trusted parent installs
	// the matching descriptors into A and B (boot-time channel setup).
	r := k.SysNewEndpoint(3, s.TV, s.SlotAV)
	if r.Errno != kernel.OK {
		return nil, fmt.Errorf("endpoint AV: %v", r.Errno)
	}
	s.EpAV = pm.Ptr(r.Vals[0])
	r = k.SysNewEndpoint(3, s.TV, s.SlotBV)
	if r.Errno != kernel.OK {
		return nil, fmt.Errorf("endpoint BV: %v", r.Errno)
	}
	s.EpBV = pm.Ptr(r.Vals[0])
	k.PM.Thrd(s.TA).Endpoints[s.SlotAV] = s.EpAV
	k.PM.EndpointIncRef(s.EpAV, 1)
	k.PM.Thrd(s.TB).Endpoints[s.SlotBV] = s.EpBV
	k.PM.EndpointIncRef(s.EpBV, 1)
	return s, nil
}

// DomainOf reports which top-level domain a thread belongs to ("A", "B",
// "V", or "root").
func (s *Scenario) DomainOf(tid pm.Ptr) string {
	t, ok := s.K.PM.TryThrd(tid)
	if !ok {
		return "?"
	}
	switch {
	case t.OwningCntr == s.A || s.K.PM.IsAncestor(s.A, t.OwningCntr):
		return "A"
	case t.OwningCntr == s.B || s.K.PM.IsAncestor(s.B, t.OwningCntr):
		return "B"
	case t.OwningCntr == s.V || s.K.PM.IsAncestor(s.V, t.OwningCntr):
		return "V"
	}
	return "root"
}
