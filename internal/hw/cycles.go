package hw

// The cycle cost model. All performance results in the repository are
// deterministic functions of the operations the kernel and devices execute,
// priced by this table. The constants are calibrated so the microbenchmark
// primitives land where the paper measured them on the CloudLab c220g5
// testbed (Table 3 and §6.4-§6.6); the derived results (drivers,
// applications) then follow from the same operation sequences the real
// system executes.

// ClockHz is the simulated CPU frequency (c220g5: Xeon Silver 4114,
// 2.20 GHz, turbo and frequency scaling disabled as in §6).
const ClockHz = 2_200_000_000

// Cost constants, in cycles.
const (
	// CostSyscallEntry prices the sysenter trampoline: swapgs, stack
	// switch, register save (the 172 lines of trusted assembly in §5).
	// It touches only the core's own kernel stack, so it runs before
	// the syscall's lock plan is requested.
	CostSyscallEntry = 110
	// CostSyscallExit prices sysexit and register restore, which run
	// after the lock plan is released.
	CostSyscallExit = 110
	// CostSyscallDispatch prices the slowpath dispatcher: argument copy
	// from user registers, range validation, and the syscall table
	// indirect call. It works out which syscall, and so which lock
	// plan, is running, so it too runs before the plan is requested.
	// The IPC fastpath (call/reply) skips it, as seL4's fastpath does.
	CostSyscallDispatch = 150
	// CostBigLock prices acquiring and releasing a syscall's lock plan
	// (the kernel big lock of §3, or its sharded frontiers) on an
	// uncontended cache-hot path: the one part of the entry cost inside
	// the hold. This is deliberately the *uncontended* cost — what a
	// single-core run pays; contention is not a constant but a function
	// of concurrent holders, derived deterministically by LockSim
	// (lock.go) and charged on top when the contention model is enabled.
	CostBigLock = 40
	// CostContextSwitch prices a full thread context switch: register
	// file save/restore, CR3 reload, and the direct-cost part of the
	// TLB refill.
	CostContextSwitch = 430
	// CostCacheTouch prices touching one cache line of kernel state
	// (an L1-hit load/store pair).
	CostCacheTouch = 4
	// CostCacheMiss prices an LLC-missing memory reference (used for
	// cold descriptor and DMA buffer access in device models).
	CostCacheMiss = 90
	// CostPTWrite prices one page-table entry store plus the
	// accounting writes around it.
	CostPTWrite = 24
	// CostPTWalkLevel prices one level of a software page-table walk
	// performed by the kernel (not the MMU).
	CostPTWalkLevel = 18
	// CostInvlpg prices a single-address TLB invalidation.
	CostInvlpg = 120
	// CostPageZero prices zeroing a fresh 4 KiB page: 64 cache lines of
	// cold stores, each paying the read-for-ownership miss (~20 cycles
	// per line on the c220g5's DRAM).
	CostPageZero = 1250
	// CostAllocFast prices the page allocator fast path (pop from a
	// doubly-linked free list + page-state update).
	CostAllocFast = 36
	// CostEndpointOp prices the endpoint bookkeeping of one IPC
	// operation: queue unlink, message register copy, descriptor
	// transfer bookkeeping.
	CostEndpointOp = 150
	// CostSchedPick prices the scheduler picking the next runnable
	// thread.
	CostSchedPick = 60
	// CostSchedSteal prices a work-stealing migration: scanning the
	// victim queues, the cross-core cache transfer of the stolen
	// thread's state, and the queue relinking.
	CostSchedSteal = 250
	// CostDirectSwitch prices the IPC fastpath's direct handoff to the
	// partner thread (register windows only; no scheduler, no full
	// context save).
	CostDirectSwitch = 100
	// CostMMIORead and CostMMIOWrite price uncached device register
	// access (doorbells, tail pointers).
	CostMMIORead  = 300
	CostMMIOWrite = 280
	// CostDMADescriptor prices processing one DMA descriptor in a
	// device ring (read/writeback).
	CostDMADescriptor = 55
	// CostPerByteCopy prices one byte of a software packet copy
	// (amortized rep movsb).
	CostPerByteCopy = 1.0 / 16
	// CostInterruptDispatch prices vectoring through the IDT into a
	// handler (unused on polling paths, exercised by interrupt tests).
	CostInterruptDispatch = 600
	// CostBatchDispatch prices decoding and dispatching one submission
	// entry inside a syscall batch: SQE load, opcode table lookup, and
	// the per-op argument unpack. It replaces the per-op
	// entry/dispatch/exit trampoline costs, which a batch pays once.
	CostBatchDispatch = 40
	// CostEndpointBuffer prices appending to or popping from an
	// endpoint's bounded asynchronous message buffer: no partner wakeup,
	// no scheduler work — just the queue store and bookkeeping.
	CostEndpointBuffer = 80
)

// Clock accumulates simulated cycles for one core.
type Clock struct {
	cycles uint64
}

// Cycles returns the cycles elapsed so far.
func (c *Clock) Cycles() uint64 { return c.cycles }

// Charge adds n cycles.
func (c *Clock) Charge(n uint64) { c.cycles += n }

// ChargeBytes adds the copy cost of n bytes.
func (c *Clock) ChargeBytes(n int) {
	c.cycles += uint64(float64(n) * CostPerByteCopy)
}

// Reset zeroes the clock.
func (c *Clock) Reset() { c.cycles = 0 }

// Seconds converts the elapsed cycles to simulated wall-clock seconds.
func (c *Clock) Seconds() float64 { return float64(c.cycles) / ClockHz }

// PerSecond converts an event count observed over the clock's elapsed
// cycles into an events-per-second rate. It returns 0 when no cycles have
// elapsed.
func (c *Clock) PerSecond(events uint64) float64 {
	if c.cycles == 0 {
		return 0
	}
	return float64(events) * ClockHz / float64(c.cycles)
}
