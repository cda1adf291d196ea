// Package kernel implements the Atmosphere microkernel proper: the
// big-lock syscall layer over the process manager, page allocator, page
// tables, and IOMMU (§3).
//
// Every syscall follows the same shape as the paper's verified functions:
// validate arguments against the caller's authority, perform the state
// transition, and keep the ghost/abstract state in lock-step with the
// concrete state. internal/spec's Interp is the executable
// specification, one step per syscall; internal/verify's Checker steps
// it and compares the kernel against it, together with the global
// well-formedness invariants, after every transition.
package kernel

import (
	"errors"
	"fmt"
	"sync"

	"atmosphere/internal/hw"
	"atmosphere/internal/iommu"
	"atmosphere/internal/mem"
	"atmosphere/internal/pm"
)

// Errno is the syscall status delivered to user code.
type Errno int

// Syscall status codes.
const (
	OK Errno = iota
	EINVAL
	ENOMEM
	EQUOTA
	EPERM
	EALREADY
	ENOENT
	EWOULDBLOCK
	EDEADOBJ
	EAGAIN
)

// String implements fmt.Stringer.
func (e Errno) String() string {
	switch e {
	case OK:
		return "OK"
	case EINVAL:
		return "EINVAL"
	case ENOMEM:
		return "ENOMEM"
	case EQUOTA:
		return "EQUOTA"
	case EPERM:
		return "EPERM"
	case EALREADY:
		return "EALREADY"
	case ENOENT:
		return "ENOENT"
	case EWOULDBLOCK:
		return "EWOULDBLOCK"
	case EDEADOBJ:
		return "EDEADOBJ"
	case EAGAIN:
		return "EAGAIN"
	}
	return "E?"
}

// ErrEndpointDead is delivered to threads woken because the endpoint they
// were blocked on was destroyed with its owning container.
var ErrEndpointDead = errors.New("kernel: endpoint destroyed")

// Ret is the SyscallReturnStruct of the paper: status plus up to four
// scalar return values.
type Ret struct {
	Errno Errno
	Vals  [4]uint64
}

func ok(vals ...uint64) Ret {
	var r Ret
	copy(r.Vals[:], vals)
	return r
}

func fail(e Errno) Ret { return Ret{Errno: e} }

// Kernel is one booted Atmosphere instance.
type Kernel struct {
	Machine *hw.Machine
	Alloc   *mem.Allocator
	PM      *pm.ProcessManager
	IOMMU   *iommu.IOMMU

	// big is the Go mutex guarding every kernel data structure: all
	// syscalls and interrupts still serialize their real execution
	// through it (§3). The *virtual* cost model is sharded (shard.go):
	// big no longer stands for "one frontier".
	big sync.Mutex

	// lock is the deterministic contention model of the big lock —
	// since the sharding refactor, only the frontier of *global*
	// operations (lifecycle, IRQ, IOMMU, shared free-list access); each
	// container and endpoint has its own frontier in cntrShards /
	// edptShards. When enabled (EnableContention), each acquisition
	// charges the invoking core the wait implied by concurrent holders'
	// virtual clocks. Disabled (the default), only the uncontended
	// CostBigLock is paid and every plan is free.
	lock hw.LockSim

	// Shard tables (shard.go): the per-core run-queue frontiers created
	// at boot, lazily created per-container and per-endpoint lock
	// frontiers, the flat list of live shards in creation order (for
	// enable/jitter/registration propagation), the counts of retired
	// ones, label sequence counters, and the armed jitter parameters new
	// shards inherit.
	runqs      []*shard
	cntrShards map[pm.Ptr]*shard
	edptShards map[pm.Ptr]*shard
	shards     []*shard
	retired    lockTally
	cntrSeq    int
	edptSeq    int
	jitterSeed uint64
	jitterMax  uint64

	// cur is the in-flight funnel entry, probes the consumers its events
	// fan out to (probe.go), and leaveFn the bound k.leave every entry
	// returns — bound once at boot, so entering allocates nothing.
	cur     call
	probes  [nProbes]probe
	leaveFn func()

	// caches, when non-nil (EnableCoreCaches), are the per-core
	// page-frame caches the hot mmap/munmap 4 KiB path allocates
	// through.
	caches *mem.CoreCaches

	// kclock is the clock substrates charge to; syscall exit moves the
	// delta onto the invoking core's clock.
	kclock *hw.Clock

	// irqs maps bound interrupt lines to their notification endpoints.
	irqs map[int]*irqState

	// dying marks containers frozen by an in-progress iterative kill;
	// their threads cannot enter the kernel (iterkill.go).
	dying map[pm.Ptr]bool

	// batchCore marks cores currently draining a syscall batch
	// (syscalls_batch.go). While set, the funnel suppresses the per-op
	// entry/dispatch/exit trampoline: the batch paid entry once and pays
	// exit once; each drained op pays only the SQE decode/dispatch and
	// its own lock plan. Mutated and read only under big — a core is a
	// single execution stream, so its own flag cannot race.
	batchCore []bool

	// mutant is the planted bug, if any (SetMutantForTest).
	mutant Mutant

	// PostSyscall, when set, sees every syscall's result as post records
	// it — how the verifier observes each transition (nil in benchmarks;
	// charged nothing).
	PostSyscall func(name string, caller pm.Ptr, ret Ret)

	// IRQFilter, when set, is consulted on every raised interrupt; a
	// false return drops the edge before dispatch (the fault layer's
	// lost-interrupt injection). Dropping an edge is always safe for
	// kernel invariants — hardware loses edges too — so the filter
	// exercises the paths that must tolerate it.
	IRQFilter func(core, irq int) bool
}

// Boot creates a machine, allocator, IOMMU, process manager with a root
// container holding every non-reserved page, plus an initial process and
// thread on core 0 (the init thread).
func Boot(cfg hw.Config) (*Kernel, pm.Ptr, error) {
	machine := hw.NewMachine(cfg)
	kclock := &hw.Clock{}
	alloc := mem.NewAllocator(machine.Mem, kclock, 1)
	k := &Kernel{
		Machine:    machine,
		Alloc:      alloc,
		kclock:     kclock,
		cntrShards: make(map[pm.Ptr]*shard),
		edptShards: make(map[pm.Ptr]*shard),
		batchCore:  make([]bool, machine.NumCores()),
	}
	k.leaveFn = k.leave
	k.newRunqShards()
	// The largest plan is the big lock, two containers, an endpoint and
	// every run queue; sized now, no entry ever grows the buffer.
	k.cur.held = make([]frontier, 0, 4+len(k.runqs))
	iom, err := iommu.New(alloc, kclock)
	if err != nil {
		return nil, 0, err
	}
	k.IOMMU = iom
	// Root quota: everything the allocator can hand out, minus the
	// IOMMU root page already taken.
	// (its own object page is the first page it consumes).
	quota := uint64(alloc.FreeCount4K())
	p, err := pm.New(alloc, kclock, cfg.Cores, quota)
	if err != nil {
		return nil, 0, err
	}
	k.PM = p
	// An endpoint dying with buffered asynchronous messages (last
	// descriptor closed, or dropped by a thread exit) must release the
	// page references those messages hold — the manager frees the
	// object, the kernel settles the allocator and the ledger.
	p.OnEndpointFree = func(e *pm.Endpoint) {
		for i := range e.Buffer {
			k.dropMsg(&e.Buffer[i])
		}
		e.Buffer = nil
	}
	initProc, err := p.NewProcess(p.RootContainer, 0)
	if err != nil {
		return nil, 0, err
	}
	initThread, err := p.NewThread(initProc, 0)
	if err != nil {
		return nil, 0, err
	}
	p.Dispatch(initThread)
	return k, initThread, nil
}

// enter charges syscall entry, the slowpath dispatcher, and the lock;
// with no plan resolver the op is global and takes the big lock alone.
// The returned leave function charges exit and attributes the syscall's
// cycles to core.
func (k *Kernel) enter(core int) (leave func()) {
	return k.enterWith(core, kindSyscall, hw.CostSyscallEntry+hw.CostSyscallDispatch, nil)
}

// enterPlan is the slowpath prologue for sharded ops: resolve runs
// under the Go mutex and names the frontiers this syscall holds.
func (k *Kernel) enterPlan(core int, resolve func() lockPlan) (leave func()) {
	return k.enterWith(core, kindSyscall, hw.CostSyscallEntry+hw.CostSyscallDispatch, resolve)
}

// enterFastPlan is the IPC fastpath prologue: no dispatcher (arguments
// stay in registers end to end, as in seL4's fastpath), sharded plan.
func (k *Kernel) enterFastPlan(core int, resolve func() lockPlan) (leave func()) {
	return k.enterWith(core, kindSyscall, hw.CostSyscallEntry, resolve)
}

// enterWith is the funnel every syscall and interrupt passes through.
// Under the Go mutex it resolves the lock plan, materializes the planned
// frontiers in DAG order (big, containers by address, endpoint, run
// queues by core; shard.go), and virtually acquires them in sequence:
// each frontier's wait pushes the arrival the next one sees, so a core
// queues behind every planned frontier exactly as a real nested
// acquisition would. pre is the trampoline the core runs before it
// requests the plan: entry, plus the dispatcher on the slow path, which
// works out which syscall (and so which plan) is running. Neither
// touches state a frontier guards. A syscall also pays CostBigLock for
// its plan; an interrupt pays neither, and inside a batch drain pre is
// the SQE dispatch. The summed wait is charged to the core clock, the
// entry cost (once, whatever the plan) to the kernel clock. It fills
// the in-flight record and reports evAcquired (probe.go).
func (k *Kernel) enterWith(core int, kind callKind, pre uint64, resolve func() lockPlan) (leave func()) {
	k.big.Lock()
	cclk := &k.Machine.Core(core).Clock
	var lockCost, exitCost uint64
	if kind == kindSyscall {
		lockCost, exitCost = hw.CostBigLock, hw.CostSyscallExit
		if core >= 0 && core < len(k.batchCore) && k.batchCore[core] {
			// The batch itself paid entry once and pays exit once
			// (syscalls_batch.go).
			pre, exitCost = hw.CostBatchDispatch, 0
		}
	}
	plan := planBig()
	if resolve != nil {
		// Resolution happens before start is read: a resolver that
		// charged (through pm's Cntr/Proc/Thrd/Edpt rather than the
		// Try accessors) would lose those cycles without a trace.
		before := k.kclock.Cycles()
		plan = resolve()
		if n := k.kclock.Cycles() - before; n != 0 {
			k.big.Unlock()
			panic(fmt.Sprintf("kernel: core %d's lock-plan resolution charged %d cycles", core, n))
		}
	}
	held := k.cur.held[:0] // reuse the previous entry's buffer
	if plan.big {
		held = append(held, frontier{sim: &k.lock})
	}
	for i := 0; i < plan.ncntr; i++ {
		held = append(held, frontier{sim: &k.cntrShard(plan.cntr[i]).sim})
	}
	if plan.edpt != pm.NoEndpoint {
		held = append(held, frontier{sim: &k.edptShard(plan.edpt).sim})
	}
	if k.mutant == MutantPlanFlip {
		for i, j := 0, len(held)-1; i < j; i, j = i+1, j-1 {
			held[i], held[j] = held[j], held[i]
		}
	}
	if plan.allRunq {
		for _, s := range k.runqs {
			held = append(held, frontier{sim: &s.sim})
		}
	} else {
		for _, q := range plan.runq[:plan.nrunq] {
			held = append(held, frontier{sim: &k.runqs[q].sim})
		}
	}
	arrival := cclk.Cycles()
	at := arrival + pre
	for i := range held {
		held[i].wait = held[i].sim.Acquire(at)
		at += held[i].wait
	}
	wait := at - arrival - pre
	cclk.Charge(wait)
	k.cur = call{kind: kind, core: core, arrival: arrival, wait: wait, held: held,
		start: k.kclock.Cycles(), base: cclk.Cycles(), big: plan.big, exit: exitCost}
	k.emit(evAcquired, 0)
	k.kclock.Charge(pre + lockCost)
	return k.leaveFn
}

// leave ends the in-flight entry: it charges exit, reports evLeave with
// the cycles the entry charged, moves them onto the core clock, and
// releases every held frontier at the same point — the entry's end
// minus the exit trampoline and the post-release share (page-cache
// hand-outs, and the shootdowns of frames that stay in the invoking
// core's cache, do not extend the hold time other cores observe). A
// hold is thus CostBigLock plus the work under the plan, and another
// core's trampoline overlaps it in virtual time.
func (k *Kernel) leave() {
	c := &k.cur
	k.kclock.Charge(c.exit)
	delta := k.kclock.Cycles() - c.start
	k.emit(evLeave, delta)
	cclk := &k.Machine.Core(c.core).Clock
	cclk.Charge(delta)
	heldUntil := cclk.Cycles() - c.exit - c.local
	for i := len(c.held) - 1; i >= 0; i-- {
		c.held[i].sim.Release(heldUntil)
	}
	k.big.Unlock()
}

// EnableContention turns on the deterministic contention model
// (hw.LockSim) for every frontier: the big lock and all run-queue,
// container and endpoint shards, existing and future (armShard inherits
// the setting).
// Meaningful only for workloads that drive cores in lock-step from
// aligned clocks — the multicore scalability series; legacy single-core
// benchmarks keep the uncontended model.
func (k *Kernel) EnableContention() {
	k.big.Lock()
	defer k.big.Unlock()
	k.lock.Enable()
	for _, s := range k.shards {
		s.sim.Enable()
	}
}

// SetLockJitter arms seeded arrival jitter on every frontier
// (hw.LockSim.SetJitter): each acquisition's virtual arrival time is
// shifted by a deterministic pseudo-random delay in [0, max], perturbing
// the hand-off order per seed. Each shard gets a decorrelated seed
// (seed XOR its salt) so frontiers don't jitter in unison; shards
// created later inherit the arming the same way. Schedule exploration
// uses it to cover interleavings the FIFO arbiter alone never produces.
func (k *Kernel) SetLockJitter(seed, max uint64) {
	k.big.Lock()
	defer k.big.Unlock()
	k.jitterSeed, k.jitterMax = seed, max
	k.lock.SetJitter(seed, max)
	for _, s := range k.shards {
		s.sim.SetJitter(seed^s.salt, max)
	}
}

// LockStats reports the contention model's (acquisitions, contended
// acquisitions, total wait cycles) summed over every frontier the kernel
// ever had — the big lock, the live shards, and the retired ones
// (gcShards), so the sums never decrease; zeros while disabled.
func (k *Kernel) LockStats() (acquisitions, contended, waitCycles uint64) {
	t := k.retired
	t.add(&k.lock)
	for _, s := range k.shards {
		t.add(&s.sim)
	}
	return t.acq, t.contended, t.wait
}

// EnableCoreCaches routes the hot 4 KiB user-page allocation path
// through per-core page-frame caches refilled batch frames at a time —
// the split that takes zeroing and hand-out off the big lock's critical
// path. Call after Boot, before issuing syscalls.
func (k *Kernel) EnableCoreCaches(batch int) {
	k.big.Lock()
	defer k.big.Unlock()
	k.caches = mem.NewCoreCaches(k.Alloc, k.Machine.NumCores(), batch)
}

// CoreCaches returns the per-core page-frame caches (nil unless
// EnableCoreCaches ran).
func (k *Kernel) CoreCaches() *mem.CoreCaches { return k.caches }

// PageCachePagesInto adds the kernel's own view of the frames parked in
// per-core caches to s — what verify.MemoryWF compares against the
// allocator's OwnerPCache closure. It adds nothing when caches are
// disabled.
func (k *Kernel) PageCachePagesInto(s *mem.PageSet) {
	if k.caches != nil {
		k.caches.PagesInto(s)
	}
}

// callerThread validates the invoking thread pointer and, when valid,
// makes its container the entry's caller: the attribution context for
// every page transition the syscall performs and the bill for its
// cycles and lock wait (evResolved).
func (k *Kernel) callerThread(tid pm.Ptr) (*pm.Thread, bool) {
	t, okk := k.runnable(k.cur.core, tid)
	if okk {
		k.cur.cntr = t.OwningCntr
		k.emit(evResolved, 0)
	}
	return t, okk
}

// runnable reports whether tid can be executing user code on core. A
// blocked thread cannot, so a syscall from one is rejected (it would
// otherwise end up queued on two endpoints at once); so is a thread
// whose container is frozen by an in-progress iterative kill, and one
// trapping on a core its container does not reserve. That last check
// is the premise scoped TLB shootdowns rest on — an address space is
// loaded only on its container's cores — not kernel work, so it reads
// the container uncharged.
func (k *Kernel) runnable(core int, tid pm.Ptr) (*pm.Thread, bool) {
	t, okk := k.PM.TryThrd(tid)
	if !okk || t.State == pm.ThreadExited ||
		t.State == pm.ThreadBlockedSend || t.State == pm.ThreadBlockedRecv || k.frozen(t) {
		return nil, false
	}
	if c, _ := k.PM.TryCntr(t.OwningCntr); !c.Reserves(core) {
		return nil, false
	}
	return t, true
}

// post records the entry's result and hands it to PostSyscall; every
// syscall return path calls it before the deferred leave runs.
func (k *Kernel) post(name string, caller pm.Ptr, ret Ret) Ret {
	k.cur.sys, k.cur.errno = name, ret.Errno
	if k.PostSyscall != nil {
		k.PostSyscall(name, caller, ret)
	}
	return ret
}

// errnoOf maps internal errors onto user-visible status codes.
func errnoOf(err error) Errno {
	switch {
	case err == nil:
		return OK
	case errors.Is(err, pm.ErrQuotaExceeded):
		return EQUOTA
	case errors.Is(err, mem.ErrOutOfMemory):
		return ENOMEM
	case errors.Is(err, pm.ErrBadCPU):
		return EINVAL
	case errors.Is(err, ErrEndpointDead):
		return EDEADOBJ
	default:
		return EINVAL
	}
}

// SysYield rotates the caller's core to the next runnable thread. Its
// lock plan is the core's run-queue frontier alone (planYield): a yield
// touches that queue and two threads' scheduling state, no container
// state, so yields on different cores overlap and no yield queues
// behind a container's mmap traffic.
func (k *Kernel) SysYield(core int, tid pm.Ptr) Ret {
	defer k.enterPlan(core, func() lockPlan { return k.planYield(core) })()
	if _, okk := k.callerThread(tid); !okk {
		return k.post("yield", tid, fail(EINVAL))
	}
	k.kclock.Charge(hw.CostContextSwitch)
	k.noteSwitch(false, tid)
	k.PM.PickNext(core)
	return k.post("yield", tid, ok())
}

// Mutant names a bug the kernel can plant for its oracles to catch
// (SetMutantForTest). The zero Mutant plants nothing.
type Mutant uint8

// The planted bugs.
const (
	// MutantGrantLeak is the double grant: resolveMsg skips revoking the
	// sender's mapping on a grant transfer, so sender and receiver both
	// end up owning the page — exactly the aliasing a linear-ownership
	// discipline forbids. The differential oracle must catch the
	// diverged address spaces and quota.
	MutantGrantLeak Mutant = iota + 1
	// MutantPlanFlip reverses the acquisition order of every lock plan's
	// big, container and endpoint frontiers — endpoint before container
	// before big; run queues stay innermost — a cross-shard lock-order
	// inversion for the armed checker to catch. It changes which
	// frontier the checker sees first, not a single charged cycle's
	// amount.
	MutantPlanFlip
	// MutantShootdownLocalOnly confines every unmap's TLB invalidation
	// and every teardown's flush to the initiating core: the other
	// reserved cores keep the stale translations (each IPI is still
	// charged). The TLB-coherence oracle must catch them.
	MutantShootdownLocalOnly
	// MutantMmapAlias maps an mmap's second page onto its first page's
	// frame, taking a reference, instead of a fresh frame: the two
	// mappings alias with consistent reference counts, so only the
	// spec's fresh-frame witness sees it.
	MutantMmapAlias
	// MutantMmapReuse maps an mmap's first page onto the frame the
	// caller already maps just below it, taking a reference: a page that
	// was not free, again with consistent reference counts.
	MutantMmapReuse
	// MutantMunmapRemap moves the page mapped just past a munmap'd
	// range onto a fresh frame: a surviving mapping changes frame with
	// consistent reference counts and quota, which only the spec's
	// frames see.
	MutantMunmapRemap
	// MutantIommuWrongFrame pins the frame mapped at va+4K instead of
	// va's: a consistent pin on the wrong page, which only the spec's
	// copied source frame sees.
	MutantIommuWrongFrame
)

// SetMutantForTest plants m, replacing any mutant planted before (the
// zero Mutant removes it). Test harnesses only.
func (k *Kernel) SetMutantForTest(m Mutant) {
	k.big.Lock()
	defer k.big.Unlock()
	k.mutant = m
}
