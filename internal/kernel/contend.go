package kernel

import (
	"fmt"

	"atmosphere/internal/hw"
	"atmosphere/internal/mem"
	"atmosphere/internal/obs/contend"
)

// Contention-observatory glue (internal/obs/contend), the funnel's
// contention probe. The big lock registers as the frontier "big/kernel"
// and each core's run queue as "runq/cpu<q>"; container and endpoint
// shards register as "container/<name>" and "endpoint/<name>" frontiers
// as their plans first touch them (shard.go). Each acquisition reports
// into the observatory (and, when the lock-order checker is armed, is
// validated against the declared ordering), the entry is bracketed for
// the run-queue coverage and post-release checks, every frame whose
// shootdown the entry counts after release is reported, and each held
// frontier's wait is attributed at leave to the (syscall, container,
// core) the entry resolved meanwhile — interrupts under the
// pseudo-syscall "irq", owned by no container.

type contendProbe struct{ o *contend.Observatory }

func (p contendProbe) on(k *Kernel, ev event, arg uint64) {
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
		p.o.BeginEntry(c.core)
	case evFlushAfterRelease:
		p.o.FlushedAfterRelease(hw.PhysAddr(arg))
	case evLeave:
		p.o.EndEntry(c.sys)
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
// this machine's core count, and with it two footprint checks. Run-queue
// coverage: every run queue the scheduler mutates inside a syscall or
// interrupt must be one whose frontier the entry's plan holds.
// Post-release: every frame whose shootdown an entry counts after
// release must end the entry on the invoking core's cache stack. No-op
// without an observatory; all stay off by default — tests, the fuzz
// targets and schedule exploration arm them.
func (k *Kernel) ArmLockOrder() {
	k.big.Lock()
	defer k.big.Unlock()
	o := k.Contention()
	o.ArmOrder(contend.KernelOrder(), k.Machine.NumCores())
	runqs := make([]*hw.LockSim, len(k.runqs))
	for q, s := range k.runqs {
		runqs[q] = &s.sim
	}
	o.CoverRunqs(runqs)
	o.CheckFlushes(k.frameHome)
}

// frameHome is the post-release check's locator (contend.FrameHome):
// the core whose page cache holds frame p, else -1 and where p is.
func (k *Kernel) frameHome(p hw.PhysAddr) (int, string) {
	if k.caches != nil {
		if q := k.caches.Holder(p); q >= 0 {
			return q, ""
		}
	}
	switch m, err := k.Alloc.Meta(p); {
	case err != nil:
		return -1, err.Error()
	case m.State == mem.StateFree:
		return -1, "the shared free list"
	case m.State == mem.StateMapped:
		return -1, fmt.Sprintf("a mapping with refcount %d", m.RefCount)
	default:
		return -1, fmt.Sprintf("state %s, owner %s", m.State, m.Owner)
	}
}
