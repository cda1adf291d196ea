package kernel

import (
	"strings"
	"testing"

	"atmosphere/internal/hw"
	"atmosphere/internal/obs"
	"atmosphere/internal/obs/account"
	"atmosphere/internal/obs/contend"
	"atmosphere/internal/pm"
	"atmosphere/internal/pt"
)

// irqSetup boots a kernel with a handler thread holding an endpoint in
// slot 0, bound to IRQ 9.
func irqSetup(t *testing.T) (*Kernel, pm.Ptr) {
	t.Helper()
	k, init := boot(t)
	mustOK(t, k.SysNewEndpoint(0, init, 0))
	mustOK(t, k.SysIrqRegister(0, init, 9, 0))
	return k, init
}

func TestIrqRegisterValidation(t *testing.T) {
	k, init := boot(t)
	if r := k.SysIrqRegister(0, init, 9, 0); r.Errno != EINVAL {
		t.Fatalf("register with empty slot: %v", r.Errno)
	}
	mustOK(t, k.SysNewEndpoint(0, init, 0))
	if r := k.SysIrqRegister(0, init, -1, 0); r.Errno != EINVAL {
		t.Fatalf("negative irq: %v", r.Errno)
	}
	mustOK(t, k.SysIrqRegister(0, init, 9, 0))
	if r := k.SysIrqRegister(0, init, 9, 0); r.Errno != EALREADY {
		t.Fatalf("double bind: %v", r.Errno)
	}
	// Binding holds a reference: closing the descriptor keeps the
	// endpoint alive.
	ep := k.PM.Thrd(init).Endpoints[0]
	mustOK(t, k.SysCloseEndpoint(0, init, 0))
	if _, ok := k.PM.TryEdpt(ep); !ok {
		t.Fatal("bound endpoint died with its last descriptor")
	}
}

func TestIrqWakesBlockedHandler(t *testing.T) {
	k, init := irqSetup(t)
	// A second runnable thread keeps the core busy while init waits.
	mustOK(t, k.SysNewThread(0, init, 0))
	if r := k.SysIrqWait(0, init, 9); r.Errno != EWOULDBLOCK {
		t.Fatalf("irq_wait should block: %v", r.Errno)
	}
	if k.PM.Thrd(init).State != pm.ThreadBlockedRecv {
		t.Fatal("handler not blocked")
	}
	k.RaiseIRQ(0, 9)
	ti := k.PM.Thrd(init)
	if ti.State != pm.ThreadRunnable {
		t.Fatalf("handler state after interrupt: %v", ti.State)
	}
	if ti.IPC.Msg.Regs[0] != 9 || ti.IPC.Msg.Regs[1] != 1 {
		t.Fatalf("interrupt message %v", ti.IPC.Msg.Regs)
	}
}

func TestIrqPendsWhenHandlerBusy(t *testing.T) {
	k, init := irqSetup(t)
	k.RaiseIRQ(0, 9)
	k.RaiseIRQ(0, 9)
	k.RaiseIRQ(0, 9)
	if k.PendingIRQ(9) != 3 {
		t.Fatalf("pending = %d", k.PendingIRQ(9))
	}
	r := mustOK(t, k.SysIrqWait(0, init, 9))
	if r.Vals[0] != 9 || r.Vals[1] != 3 {
		t.Fatalf("consumed %v", r.Vals)
	}
	if k.PendingIRQ(9) != 0 {
		t.Fatal("pending not cleared")
	}
}

func TestIrqWaitRequiresBindingAndDescriptor(t *testing.T) {
	k, init := irqSetup(t)
	if r := k.SysIrqWait(0, init, 10); r.Errno != ENOENT {
		t.Fatalf("wait on unbound irq: %v", r.Errno)
	}
	// A foreign thread without the descriptor is refused.
	rt := mustOK(t, k.SysNewThread(0, init, 0))
	stranger := pm.Ptr(rt.Vals[0])
	if r := k.SysIrqWait(0, stranger, 9); r.Errno != EPERM {
		t.Fatalf("stranger wait: %v", r.Errno)
	}
	if r := k.SysIrqUnregister(0, stranger, 9); r.Errno != EPERM {
		t.Fatalf("stranger unregister: %v", r.Errno)
	}
}

func TestIrqUnregister(t *testing.T) {
	k, init := irqSetup(t)
	ep := k.PM.Thrd(init).Endpoints[0]
	mustOK(t, k.SysIrqUnregister(0, init, 9))
	if r := k.SysIrqUnregister(0, init, 9); r.Errno != ENOENT {
		t.Fatalf("double unregister: %v", r.Errno)
	}
	// The binding's reference is gone; the descriptor's remains.
	if k.PM.Edpt(ep).RefCount != 1 {
		t.Fatalf("refcount = %d", k.PM.Edpt(ep).RefCount)
	}
	// Interrupts on the unbound line are dropped.
	k.RaiseIRQ(0, 9)
	if k.PendingIRQ(9) != 0 {
		t.Fatal("unbound interrupt pended")
	}
}

func TestIrqBindingDiesWithContainer(t *testing.T) {
	k, init := boot(t)
	r := mustOK(t, k.SysNewContainer(0, init, 60, []int{0}))
	cntr := pm.Ptr(r.Vals[0])
	rp := mustOK(t, k.SysNewProcessIn(0, init, cntr))
	rt := mustOK(t, k.SysNewThreadIn(0, init, pm.Ptr(rp.Vals[0]), 0))
	driver := pm.Ptr(rt.Vals[0])
	mustOK(t, k.SysNewEndpoint(0, driver, 0))
	mustOK(t, k.SysIrqRegister(0, driver, 5, 0))
	mustOK(t, k.SysKillContainer(0, init, cntr))
	if len(k.IRQBindings()) != 0 {
		t.Fatal("binding survived container kill")
	}
	// Interrupts on the orphaned line are dropped, not crashed on.
	k.RaiseIRQ(0, 5)
}

func TestIrqChargesInterruptDispatch(t *testing.T) {
	k, _ := irqSetup(t)
	before := k.Machine.Core(2).Clock.Cycles()
	k.RaiseIRQ(2, 9)
	if delta := k.Machine.Core(2).Clock.Cycles() - before; delta < hw.CostInterruptDispatch {
		t.Fatalf("interrupt charged %d cycles", delta)
	}
}

// An interrupt raised on core 1 while core 0's big-lock syscall still
// holds the frontier waits like a syscall does: the wait lands as a
// lock.wait span on core 1's kernel track and as a sys=irq row owned by
// no container, the dispatch as a span on core 1's irq track, the
// frontier is released at core 1's clock, and the ledger bills nobody.
func TestContendedIrqAttribution(t *testing.T) {
	k, init := irqSetup(t)
	tr, l, o := obs.NewTracer(0), account.NewLedger(), contend.New()
	k.AttachObs(tr, obs.NewRegistry())
	k.AttachLedger(l)
	k.AttachContention(o)
	k.EnableContention()
	mustOK(t, k.SysNewEndpoint(0, init, 1)) // big plan: frontier moves to core 0's clock
	cycles := func() (sum uint64) {
		for _, r := range l.Rows() {
			sum += r.Cycles
		}
		return sum
	}
	before, rows := cycles(), len(l.Rows())
	wait := k.lock.Frontier() - k.Machine.Core(1).Clock.Cycles()
	if wait == 0 {
		t.Fatal("core 1 is not behind the big frontier")
	}
	k.RaiseIRQ(1, 9)
	if k.PendingIRQ(9) != 1 {
		t.Fatalf("pending = %d", k.PendingIRQ(9))
	}
	if f, c := k.lock.Frontier(), k.Machine.Core(1).Clock.Cycles(); f != c {
		t.Errorf("big frontier %d not released at core 1's clock %d", f, c)
	}
	if cycles() != before || len(l.Rows()) != rows {
		t.Errorf("ledger billed the interrupt: cycles %d -> %d, rows %d -> %d", before, cycles(), rows, len(l.Rows()))
	}
	var lockWait, irq bool
	for _, e := range tr.Events() {
		tk := tr.Tracks()[e.Track]
		switch {
		case e.Kind != obs.KindSpan || tk.PID != 1:
		case tr.NameOf(e.Name) == "lock.wait" && tk.TIDName == "kernel" && e.Dur == wait:
			lockWait = true
		case tr.NameOf(e.Name) == "irq" && tk.TIDName == "irq" && e.Arg == 9:
			irq = true
		}
	}
	if !lockWait || !irq {
		t.Errorf("core 1 spans: lock.wait=%v irq=%v, want both", lockWait, irq)
	}
	var rep strings.Builder
	if err := o.WriteAttribution(&rep); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.String(), "wait big/kernel sys=irq cntr=- core=1 count=1 contended=1 ") {
		t.Errorf("no sys=irq wait row for core 1:\n%s", rep.String())
	}
}

func TestMmap2MSuperpage(t *testing.T) {
	// End-to-end 2 MiB mapping through the syscall: the kernel merges
	// free 4 KiB pages on demand.
	k, init, err := Boot(hw.Config{Frames: 3 * hw.Pages4KPer2M, Cores: 1, TLBSlots: 64})
	if err != nil {
		t.Fatal(err)
	}
	usedBefore := k.PM.Cntr(k.PM.RootContainer).UsedPages
	va := hw.VirtAddr(1 << 21)
	r := k.SysMmap(0, init, va, 1, hw.Size2M, ptRW())
	if r.Errno != OK {
		t.Fatalf("2M mmap: %v", r.Errno)
	}
	// Quota charged at 512 4K-pages plus table nodes.
	used := k.PM.Cntr(k.PM.RootContainer).UsedPages
	if used < usedBefore+512 {
		t.Fatalf("2M mapping charged only %d pages", used-usedBefore)
	}
	// The MMU resolves it as one 2M translation.
	proc := k.PM.Proc(k.PM.Thrd(init).OwningProc)
	tr, okW := k.Machine.MMU.Walk(proc.PageTable.CR3(), va+0x123456)
	if !okW || tr.Size != hw.Size2M {
		t.Fatalf("walk = %+v ok=%v", tr, okW)
	}
	// Munmap returns the superpage; quota credited in full.
	if r := k.SysMunmap(0, init, va, 1, hw.Size2M); r.Errno != OK {
		t.Fatalf("2M munmap: %v", r.Errno)
	}
	if k.Alloc.FreeCount2M() != 1 {
		t.Fatal("superpage not returned to the 2M free list")
	}
}

func TestMmap2MFailsWhenFragmented(t *testing.T) {
	// A machine with no alignable free run cannot satisfy a 2M map.
	k, init, err := Boot(hw.Config{Frames: 600, Cores: 1, TLBSlots: 64})
	if err != nil {
		t.Fatal(err)
	}
	if r := k.SysMmap(0, init, 1<<21, 1, hw.Size2M, ptRW()); r.Errno != ENOMEM {
		t.Fatalf("fragmented 2M mmap: %v", r.Errno)
	}
}

// ptRW is the common user read-write mapping permission.
func ptRW() pt.Perm { return pt.RW }
