package kernel

import (
	"atmosphere/internal/obs/contend"
)

// Contention-observatory glue (internal/obs/contend), the funnel's
// contention probe. The big lock registers as the frontier "big/kernel";
// container and endpoint shards register as "container/<name>" and
// "endpoint/<name>" frontiers as their plans first touch them
// (shard.go). Each acquisition reports into the observatory (and, when
// the lock-order checker is armed, is validated against the declared
// ordering), and each held frontier's wait is attributed at leave to
// the (syscall, container, core) the entry resolved meanwhile —
// interrupts under the pseudo-syscall "irq", owned by no container.

type contendProbe struct{ o *contend.Observatory }

func (p contendProbe) on(k *Kernel, ev event, _ uint64) {
	c := &k.cur
	switch ev {
	case evAcquired:
		site := "syscall"
		if c.kind == kindIRQ {
			site = "irq"
		}
		for _, f := range c.held {
			p.o.Acquired(c.core, p.o.Register(f.sim), site)
		}
	case evLeave:
		for i := len(c.held) - 1; i >= 0; i-- {
			id := p.o.Register(c.held[i].sim) // registered already: a lookup
			p.o.AttributeWait(id, c.sys, c.cntr, c.core, c.held[i].wait)
			p.o.Released(c.core, id)
		}
	}
}

// AttachContention wires a contention observatory into the kernel: the
// big lock is named (class "big", instance "kernel", unless an identity
// was already set) and registered as a frontier, every existing shard
// registers in creation order (new shards register as they are
// created), the root container gets its display name, and the
// scheduler's run-queue delay stream is attached. Pass nil to detach.
func (k *Kernel) AttachContention(o *contend.Observatory) {
	k.big.Lock()
	defer k.big.Unlock()
	if o == nil {
		k.setProbe(probeContend, nil)
		k.lock.SetObserver(nil)
		for _, s := range k.shards {
			s.sim.SetObserver(nil)
		}
		k.PM.SetSchedObserver(nil)
		return
	}
	if k.lock.Class() == "" {
		k.lock.SetIdentity("big", "kernel")
	}
	k.setProbe(probeContend, contendProbe{o})
	o.Register(&k.lock)
	for _, s := range k.shards {
		o.Register(&s.sim)
	}
	o.NameContainer(k.PM.RootContainer, "root")
	k.PM.SetSchedObserver(o)
}

// Contention returns the attached observatory (nil when detached).
func (k *Kernel) Contention() *contend.Observatory {
	p, _ := k.probes[probeContend].(contendProbe)
	return p.o
}

// ArmLockOrder arms the attached observatory's runtime lock-order
// checker with the kernel's declared ordering (contend.KernelOrder) for
// this machine's core count. No-op without an observatory; the checker
// stays off by default — tests and schedule exploration arm it.
func (k *Kernel) ArmLockOrder() {
	k.big.Lock()
	defer k.big.Unlock()
	k.Contention().ArmOrder(contend.KernelOrder(), k.Machine.NumCores())
}
