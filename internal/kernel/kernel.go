// Package kernel implements the Atmosphere microkernel proper: the
// big-lock syscall layer over the process manager, page allocator, page
// tables, and IOMMU (§3).
//
// Every syscall follows the same shape as the paper's verified functions:
// validate arguments against the caller's authority, perform the state
// transition, and keep the ghost/abstract state in lock-step with the
// concrete state. internal/spec defines the executable postcondition of
// each syscall; internal/verify checks them, together with the global
// well-formedness invariants, after every transition.
package kernel

import (
	"errors"
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

	// Shard tables (shard.go): lazily created per-container and
	// per-endpoint lock frontiers, the flat list in creation order (for
	// enable/jitter/registration propagation), label sequence counters,
	// the armed jitter parameters new shards inherit, and the test-only
	// plan flip.
	cntrShards map[pm.Ptr]*shard
	edptShards map[pm.Ptr]*shard
	shards     []*shard
	cntrSeq    int
	edptSeq    int
	jitterSeed uint64
	jitterMax  uint64
	planFlip   bool

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

	// grantLeak, when set by SetGrantLeakForTest, makes resolveMsg skip
	// revoking the sender's mapping on a grant transfer — the planted
	// double-grant bug the differential oracle must catch.
	grantLeak bool

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
	return k.enterWith(core, kindSyscall, hw.CostSyscallEntry+hw.CostSyscallDispatch+hw.CostBigLock, nil)
}

// enterPlan is the slowpath prologue for sharded ops: resolve runs
// under the Go mutex and names the frontiers this syscall holds.
func (k *Kernel) enterPlan(core int, resolve func() lockPlan) (leave func()) {
	return k.enterWith(core, kindSyscall, hw.CostSyscallEntry+hw.CostSyscallDispatch+hw.CostBigLock, resolve)
}

// enterFastPlan is the IPC fastpath prologue: no dispatcher (arguments
// stay in registers end to end, as in seL4's fastpath), sharded plan.
func (k *Kernel) enterFastPlan(core int, resolve func() lockPlan) (leave func()) {
	return k.enterWith(core, kindSyscall, hw.CostSyscallEntry+hw.CostBigLock, resolve)
}

// enterWith is the funnel every syscall and interrupt passes through.
// Under the Go mutex it resolves the lock plan, materializes the planned
// frontiers in DAG order (big, containers by address, endpoint;
// shard.go), and virtually acquires them in sequence: each frontier's
// wait pushes the arrival the next one sees, so a core queues behind
// every planned frontier exactly as a real nested acquisition would.
// The summed wait is charged to the core; entry cost is charged once,
// whatever the plan. It fills the in-flight record and reports
// evAcquired (probe.go). Interrupts (kindIRQ) pay no trampoline; inside
// a batch drain a syscall pays only the SQE dispatch and its lock.
func (k *Kernel) enterWith(core int, kind callKind, entryCost uint64, resolve func() lockPlan) (leave func()) {
	k.big.Lock()
	cclk := &k.Machine.Core(core).Clock
	exitCost := uint64(0)
	if kind == kindSyscall {
		exitCost = hw.CostSyscallExit
		if core >= 0 && core < len(k.batchCore) && k.batchCore[core] {
			// The batch itself paid entry once and pays exit once
			// (syscalls_batch.go).
			entryCost, exitCost = hw.CostBatchDispatch+hw.CostBigLock, 0
		}
	}
	plan := planBig()
	if resolve != nil {
		plan = resolve()
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
	if k.planFlip {
		for i, j := 0, len(held)-1; i < j; i, j = i+1, j-1 {
			held[i], held[j] = held[j], held[i]
		}
	}
	arrival := cclk.Cycles()
	at := arrival
	for i := range held {
		held[i].wait = held[i].sim.Acquire(at)
		at += held[i].wait
	}
	cclk.Charge(at - arrival)
	k.cur = call{kind: kind, core: core, arrival: arrival, wait: at - arrival, held: held,
		start: k.kclock.Cycles(), base: cclk.Cycles(), exit: exitCost}
	k.emit(evAcquired, 0)
	k.kclock.Charge(entryCost)
	return k.leaveFn
}

// leave ends the in-flight entry: it charges exit, reports evLeave with
// the cycles the entry charged, moves them onto the core clock, and
// releases every held frontier at the same point — the entry's end
// minus its core-local share (page-cache hand-outs do not extend the
// hold time other cores observe) — so independent containers' syscalls
// overlap in virtual time while every plan containing only the big lock
// costs exactly what the pre-sharding funnel cost.
func (k *Kernel) leave() {
	c := &k.cur
	k.kclock.Charge(c.exit)
	delta := k.kclock.Cycles() - c.start
	k.emit(evLeave, delta)
	cclk := &k.Machine.Core(c.core).Clock
	cclk.Charge(delta)
	heldUntil := cclk.Cycles() - c.local
	for i := len(c.held) - 1; i >= 0; i-- {
		c.held[i].sim.Release(heldUntil)
	}
	k.big.Unlock()
}

// EnableContention turns on the deterministic contention model
// (hw.LockSim) for every frontier: the big lock and all container and
// endpoint shards, existing and future (armShard inherits the setting).
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
// acquisitions, total wait cycles) summed over every frontier — the big
// lock plus all container and endpoint shards; zeros while disabled.
func (k *Kernel) LockStats() (acquisitions, contended, waitCycles uint64) {
	acquisitions, contended, waitCycles = k.lock.Stats()
	for _, s := range k.shards {
		a, c, w := s.sim.Stats()
		acquisitions += a
		contended += c
		waitCycles += w
	}
	return acquisitions, contended, waitCycles
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

// PageCachePages returns the kernel's own view of the frames parked in
// per-core caches — what verify.MemoryWF compares against the
// allocator's OwnerPCache closure. Empty when caches are disabled.
func (k *Kernel) PageCachePages() mem.PageSet {
	if k.caches == nil {
		return mem.NewPageSet()
	}
	return k.caches.Pages()
}

// callerThread validates the invoking thread pointer and, when valid,
// makes its container the entry's caller: the attribution context for
// every page transition the syscall performs and the bill for its
// cycles and lock wait (evResolved).
func (k *Kernel) callerThread(tid pm.Ptr) (*pm.Thread, bool) {
	t, okk := k.runnable(tid)
	if okk {
		k.cur.cntr = t.OwningCntr
		k.emit(evResolved, 0)
	}
	return t, okk
}

// runnable reports whether tid can be executing user code. A blocked
// thread cannot, so a syscall from one is rejected (it would otherwise
// end up queued on two endpoints at once); so is a thread whose
// container is frozen by an in-progress iterative kill.
func (k *Kernel) runnable(tid pm.Ptr) (*pm.Thread, bool) {
	t, okk := k.PM.TryThrd(tid)
	if !okk || t.State == pm.ThreadExited ||
		t.State == pm.ThreadBlockedSend || t.State == pm.ThreadBlockedRecv || k.frozen(t) {
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
// lock plan is the caller's container frontier alone: a yield touches
// only that container's run state.
func (k *Kernel) SysYield(core int, tid pm.Ptr) Ret {
	defer k.enterPlan(core, func() lockPlan { return k.planCaller(tid) })()
	if _, okk := k.callerThread(tid); !okk {
		return k.post("yield", tid, fail(EINVAL))
	}
	k.kclock.Charge(hw.CostContextSwitch)
	k.noteSwitch(false, tid)
	k.PM.PickNext(core)
	return k.post("yield", tid, ok())
}

// SetGrantLeakForTest plants the double-grant bug: resolveMsg skips
// revoking the sender's mapping on a grant transfer, so sender and
// receiver both end up owning the page — exactly the aliasing a
// linear-ownership discipline forbids. The differential oracle must
// catch the diverged address spaces and quota. Test harnesses only.
func (k *Kernel) SetGrantLeakForTest(v bool) {
	k.big.Lock()
	defer k.big.Unlock()
	k.grantLeak = v
}

// unblockForTest force-wakes a blocked thread, unlinking it from its
// endpoint queue and dropping any in-flight message references. Only
// tests use it (the simulation has no timer to time out rendezvous).
func (k *Kernel) unblockForTest(tid pm.Ptr) {
	k.big.Lock()
	defer k.big.Unlock()
	t, okk := k.PM.TryThrd(tid)
	if !okk || (t.State != pm.ThreadBlockedSend && t.State != pm.ThreadBlockedRecv) {
		return
	}
	k.unlinkFromEndpoint(tid, t)
	k.PM.Wake(tid, ErrEndpointDead)
}
