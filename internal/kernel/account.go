package kernel

import (
	"atmosphere/internal/obs/account"
)

// Ledger glue, the funnel's accounting probe: the ledger
// (internal/obs/account) mirrors the allocator's page lifecycle under an
// attribution context the kernel maintains. A resolved caller sets the
// context to its container; the handful of syscalls that allocate or
// free on behalf of a *different* container override it at the site via
// Ledger().SetContext/SwapContext (every Ledger method is nil-safe, so
// the sites need no attach check). IPC page transfers move a reference
// through the account.InFlight pseudo-container.

type ledgerProbe struct{ l *account.Ledger }

func (p ledgerProbe) on(k *Kernel, ev event, delta uint64) {
	switch {
	case ev == evResolved:
		p.l.SetContext(k.cur.cntr)
	case ev == evLeave && k.cur.kind == kindSyscall:
		// Bill the syscall's cycles to the caller's container (0 =
		// unattributed: invalid caller) and drop the attribution context
		// before the lock releases. Interrupt dispatch bills nobody.
		p.l.ChargeCycles(k.cur.cntr, delta)
		p.l.SetContext(0)
	}
}

// AttachLedger binds a ledger to the kernel's allocator, seeding it with
// the current allocation state attributed to the root container. Pass
// nil to detach.
func (k *Kernel) AttachLedger(l *account.Ledger) {
	k.big.Lock()
	defer k.big.Unlock()
	if l == nil {
		k.Alloc.SetObserver(nil)
		k.setProbe(probeLedger, nil)
		return
	}
	l.Bind(k.Alloc, k.PM.RootContainer)
	l.NameContainer(k.PM.RootContainer, "root")
	k.setProbe(probeLedger, ledgerProbe{l})
}

// Ledger returns the attached ledger (nil when detached).
func (k *Kernel) Ledger() *account.Ledger {
	p, _ := k.probes[probeLedger].(ledgerProbe)
	return p.l
}
