package ni

import (
	"encoding/binary"
	"fmt"

	"atmosphere/internal/hw"
	"atmosphere/internal/kernel"
	"atmosphere/internal/pm"
)

// Service is V, the verified shared service of §4.3: a single container
// with one process running one thread, implemented as an event-driven
// state machine. It waits on its client endpoints in turn; when a
// request arrives — scalars plus optionally a shared page and/or
// an endpoint capability — it computes a response (for pages: response
// word = request word + 1, written back into the shared page), replies,
// and then releases everything it received.
//
// Its two functional-correctness properties (§3) are checked after every
// step by CheckCorrectness:
//
//  1. no leak between clients: V never forwards a capability, and no
//     page or endpoint is ever reachable from two clients' subtrees;
//  2. full release: between transactions V's address space and
//     descriptor table equal its baseline, even when the client died
//     mid-transaction.
type Service struct {
	s *Scenario

	// recvVA is where incoming pages land in V's address space.
	recvVA hw.VirtAddr

	// nextSlot is the endpoint V waits on next; slot i is client i's.
	nextSlot int
	// waitingOn is the slot V last posted a receive on (-1: none).
	waitingOn int

	// baselineEndpoints is V's descriptor table at service start.
	baselineEndpoints [pm.MaxEndpoints]pm.Ptr
	// baselineMappings is the size of V's address space at start.
	baselineMappings int

	// Handled counts completed transactions.
	Handled int
	// Released counts released pages (munmaps of client pages).
	Released int
}

// NewService initializes V's event loop state.
func NewService(s *Scenario) *Service {
	v := &Service{s: s, recvVA: 0x7f0000000, waitingOn: -1}
	v.baselineEndpoints = s.K.PM.Thrd(s.V.Thread).Endpoints
	v.baselineMappings = len(s.K.PM.Proc(s.V.Proc).PageTable.AddressSpace())
	return v
}

// Step advances V's state machine by one action: post a receive, or
// handle a delivered message (respond, reply, release). It is safe to
// call whenever; a blocked V simply keeps waiting.
func (v *Service) Step() error {
	k := v.s.K
	t := k.PM.Thrd(v.s.V.Thread)
	switch {
	case t.State == pm.ThreadBlockedRecv:
		// Still waiting for a client.
		return nil
	case v.waitingOn >= 0:
		// A message was delivered (either inline or by wake).
		slot := v.waitingOn
		v.waitingOn = -1
		if t.IPC.Err != nil {
			// The endpoint died with its container; nothing was
			// transferred. Back to waiting.
			t.IPC.Err = nil
			return nil
		}
		return v.handle(slot)
	default:
		// Idle: post a receive on the next endpoint in turn.
		slot := v.nextSlot
		v.nextSlot = (v.nextSlot + 1) % len(v.s.Clients)
		if t.Endpoints[slot] == pm.NoEndpoint {
			return nil // channel revoked (client died); keep serving the others
		}
		r := k.SysRecv(v.s.V.Core, v.s.V.Thread, slot, kernel.RecvArgs{PageVA: v.recvVA, EdptSlot: -1})
		switch r.Errno {
		case kernel.EWOULDBLOCK, kernel.OK:
			v.waitingOn = slot
		case kernel.EINVAL, kernel.EDEADOBJ:
			// Channel gone.
		default:
			return fmt.Errorf("service recv: %v", r.Errno)
		}
		return nil
	}
}

// handle processes the message in V's IPC state for the given slot.
func (v *Service) handle(slot int) error {
	k := v.s.K
	t := k.PM.Thrd(v.s.V.Thread)
	msg := t.IPC.Msg
	proc := k.PM.Proc(v.s.V.Proc)

	reply := kernel.SendArgs{Regs: [4]uint64{msg.Regs[0] + 1, uint64(v.Handled)}}
	if msg.HasPage {
		// Read the request word from the shared page, write the
		// response next to it (the client observes it via its own
		// mapping — the shared-memory fast path of §3).
		if req, okL := k.Machine.MMU.Load(proc.PageTable.CR3(), v.recvVA, 8); okL {
			var out [8]byte
			binary.LittleEndian.PutUint64(out[:], binary.LittleEndian.Uint64(req)+1)
			if msg.PagePerm.Write {
				k.Machine.MMU.Store(proc.PageTable.CR3(), v.recvVA+8, out[:])
			}
			reply.Regs[2] = binary.LittleEndian.Uint64(req)
		}
	}
	// Reply to the caller if one awaits (a crashed client simply has no
	// reply queued; EWOULDBLOCK is fine).
	if t.Endpoints[slot] != pm.NoEndpoint {
		r := k.SysReply(v.s.V.Core, v.s.V.Thread, slot, reply)
		if r.Errno != kernel.OK && r.Errno != kernel.EWOULDBLOCK {
			return fmt.Errorf("service reply: %v", r.Errno)
		}
	}
	// Release everything received — page first, then any endpoint
	// capability (V never retains or forwards client resources).
	if msg.HasPage {
		if r := k.SysMunmap(v.s.V.Core, v.s.V.Thread, v.recvVA, 1, msg.PageSize); r.Errno != kernel.OK {
			return fmt.Errorf("service release page: %v", r.Errno)
		}
		v.Released++
	}
	for i, e := range t.Endpoints {
		if e != pm.NoEndpoint && e != v.baselineEndpoints[i] {
			if r := k.SysCloseEndpoint(v.s.V.Core, v.s.V.Thread, i); r.Errno != kernel.OK {
				return fmt.Errorf("service release endpoint: %v", r.Errno)
			}
		}
	}
	v.Handled++
	return nil
}

// CheckCorrectness validates V's functional-correctness invariants.
// While a transaction is in flight V may hold exactly one extra page;
// between transactions it must be exactly at its baseline.
func (v *Service) CheckCorrectness() error {
	k := v.s.K
	t := k.PM.Thrd(v.s.V.Thread)
	space := k.PM.Proc(v.s.V.Proc).PageTable.AddressSpace()
	extra := len(space) - v.baselineMappings
	inFlight := v.waitingOn >= 0 &&
		t.State != pm.ThreadBlockedRecv // woken with an unprocessed message
	if inFlight {
		if extra > 1 {
			return fmt.Errorf("service: %d extra mappings mid-transaction", extra)
		}
	} else if t.State == pm.ThreadBlockedRecv || v.waitingOn < 0 {
		if extra != 0 {
			return fmt.Errorf("service: %d retained client pages between transactions", extra)
		}
		for i, e := range t.Endpoints {
			if e != v.baselineEndpoints[i] && e != pm.NoEndpoint {
				return fmt.Errorf("service: retained client endpoint in slot %d", i)
			}
		}
	}
	// V never bridges its clients: memory_iso and endpoint_iso, rechecked
	// from V's perspective.
	return v.s.CheckIsolation()
}
