// Package ni implements the paper's isolation and non-interference
// argument (§4.3) as an executable checker.
//
// A Scenario is n mutually isolated client containers and, when asked,
// a verified shared service container V that talks to each client over
// a dedicated endpoint; the clients have no channel to each other. The
// paper's running example, A/B/V, is two clients plus V. Without V it is
// the §4.3 discussion's generalization: "in the case when any number of
// isolated containers do not communicate, the proof is a strict subset
// of the proof presented here." A Fuzzer drives arbitrary system calls
// with arbitrary arguments from the clients' threads and validates:
//
//   - memory_iso and endpoint_iso (the §4.3 invariants) for every client
//     pair after every step;
//   - step consistency (SC): a step by one client leaves every other
//     client's observable state bit-identical;
//   - output consistency (OC): the kernel is a deterministic function of
//     its pre-state — replaying a trace reproduces every return value
//     and every observable state;
//   - local respect (LR): subsumed by SC in this configuration, as in
//     the paper.
//
// V's functional correctness — it never leaks memory between clients
// and always releases pages it receives, even when a client dies — is
// checked by the Service type's own invariants (service.go).
package ni

import (
	"fmt"

	"atmosphere/internal/hw"
	"atmosphere/internal/kernel"
	"atmosphere/internal/pm"
)

// Every scenario boots the same machine size and gives every container
// the same quota.
const (
	scenarioFrames = 8192
	domainQuota    = 512 // pages
)

// Domain is one top-level container of a scenario: the container, its
// initial process and thread, and the one core it reserves.
type Domain struct {
	Cntr, Proc, Thread pm.Ptr
	Core               int
	// Endpoint is a client's channel to V (pm.NoEndpoint without V).
	// Client i holds it in descriptor slot i of its thread, and V in
	// slot i of its own.
	Endpoint pm.Ptr
}

// Scenario is an instantiated configuration.
type Scenario struct {
	K    *kernel.Kernel
	Init pm.Ptr // root container's setup thread

	// Clients[i] is named clientName(i) and runs on core i+1.
	Clients []Domain
	// V is the shared service, on the core after the clients'; nil when
	// the scenario has none.
	V *Domain
}

// Build boots a kernel and assembles n isolated clients, plus V when
// withV is set. The trusted parent (the root container's init thread)
// creates each container with one process and one thread on a core of
// its own; with V, V creates one endpoint per client and the parent
// installs each into its client — the boot-time channel setup the
// paper's configuration assumes.
//
// Exclusive cores are not optional: the checker itself demonstrates
// that two isolated domains time-sharing a core observe each other
// through scheduler state (running vs runnable), the classic CPU covert
// channel separation kernels close by partitioning cores.
func Build(n int, withV bool) (*Scenario, error) {
	// V holds one descriptor slot per client, and client names run
	// from A to P.
	if n < 2 || n > pm.MaxEndpoints {
		return nil, fmt.Errorf("ni: need 2 to %d clients, not %d", pm.MaxEndpoints, n)
	}
	cores := 1 + n
	if withV {
		cores++
	}
	k, init, err := kernel.Boot(hw.Config{Frames: scenarioFrames, Cores: cores, TLBSlots: 256})
	if err != nil {
		return nil, err
	}
	s := &Scenario{K: k, Init: init}

	mk := func(name string, core int) (Domain, error) {
		d := Domain{Core: core}
		r := k.SysNewContainer(0, init, domainQuota, []int{core})
		if r.Errno != kernel.OK {
			return d, fmt.Errorf("ni: %s new_container: %v", name, r.Errno)
		}
		d.Cntr = pm.Ptr(r.Vals[0])
		r = k.SysNewProcessIn(0, init, d.Cntr)
		if r.Errno != kernel.OK {
			return d, fmt.Errorf("ni: %s new_proc_in: %v", name, r.Errno)
		}
		d.Proc = pm.Ptr(r.Vals[0])
		r = k.SysNewThreadIn(0, init, d.Proc, core)
		if r.Errno != kernel.OK {
			return d, fmt.Errorf("ni: %s new_thread_in: %v", name, r.Errno)
		}
		d.Thread = pm.Ptr(r.Vals[0])
		return d, nil
	}
	for i := 0; i < n; i++ {
		c, err := mk(clientName(i), 1+i)
		if err != nil {
			return nil, err
		}
		s.Clients = append(s.Clients, c)
	}
	if !withV {
		return s, nil
	}
	v, err := mk("V", 1+n)
	if err != nil {
		return nil, err
	}
	s.V = &v
	for i := range s.Clients {
		c := &s.Clients[i]
		r := k.SysNewEndpoint(v.Core, v.Thread, i)
		if r.Errno != kernel.OK {
			return nil, fmt.Errorf("ni: endpoint V-%s: %v", clientName(i), r.Errno)
		}
		c.Endpoint = pm.Ptr(r.Vals[0])
		k.PM.Thrd(c.Thread).Endpoints[i] = c.Endpoint
		k.PM.EndpointIncRef(c.Endpoint, 1)
	}
	return s, nil
}

// clientName names client i in traces and reports: A, B, C, ...
func clientName(i int) string { return string(rune('A' + i)) }

// DomainOf reports which top-level domain a thread belongs to: a
// client's name, "V", or "root".
func (s *Scenario) DomainOf(tid pm.Ptr) string {
	t, ok := s.K.PM.TryThrd(tid)
	if !ok {
		return "?"
	}
	in := func(d Domain) bool {
		return t.OwningCntr == d.Cntr || s.K.PM.IsAncestor(d.Cntr, t.OwningCntr)
	}
	for i, c := range s.Clients {
		if in(c) {
			return clientName(i)
		}
	}
	if s.V != nil && in(*s.V) {
		return "V"
	}
	return "root"
}
