package hw

// LockSim is the deterministic contention model of the kernel big lock
// (§3). The real kernel serializes every syscall through one mutex; on
// real hardware a core arriving while another holds the lock spins, and
// those spin cycles are what keep a big-lock kernel from scaling. The
// simulation reproduces that cost as a pure function of the per-core
// virtual clocks: the lock keeps a monotone *frontier* — the global
// cycle timestamp at which the last holder released — and an arriving
// core whose clock reads earlier than the frontier waits exactly the
// difference. This is a conservative FIFO (ticket-lock) arbiter that
// serves calls in the program's (deterministic) call order, not in
// order of their virtual timestamps: a call arriving before the
// frontier waits up to it even when the previous holder acquired later
// in virtual time. While the cores' clocks stay close that is the same
// order; once they diverge, a lagging core's wait is mostly catch-up to
// the cores ahead of it rather than time another core held the lock.
//
// The model is opt-in (Enable). It interprets per-core clock readings as
// timestamps on one global timeline, which is only meaningful for
// workloads that drive cores in lock-step from aligned clocks (the
// multicore scalability series, cross-core tests). Legacy single-core
// benchmarks and tests that issue occasional syscalls from skewed cores
// keep the uncontended model: a disabled LockSim charges nothing, so
// every pre-existing number is bit-identical.
type LockSim struct {
	enabled bool
	freeAt  uint64 // frontier: global cycle at which the lock is next free

	acquisitions uint64
	contended    uint64
	waitCycles   uint64

	// Seeded arrival jitter (SetJitter): each Acquire adds a deterministic
	// pseudo-random delay in [0, jitterMax] to the arrival timestamp,
	// perturbing the FIFO service order without giving up reproducibility.
	jitterMax   uint64
	jitterState uint64

	// Identity (SetIdentity): the lock's class ("big", "endpoint",
	// "container", ...) and instance label. A kernel with one frontier
	// has one class; a sharded kernel registers many instances of a few
	// classes into one contention registry, which attributes waits and
	// checks acquisition ordering per class.
	class    string
	instance string

	// obs, when non-nil, receives every enabled acquisition and release
	// (SetObserver). The observer reads state and charges nothing, so
	// attaching one never changes a wait.
	obs LockObserver
}

// LockObserver receives a registered lock's enabled acquisitions and
// releases — the hook a contention registry (internal/obs/contend)
// installs so every frontier reports into it. Implementations must not
// charge cycles.
type LockObserver interface {
	// LockAcquire fires after the wait is computed: arrival is the
	// (jittered) arrival timestamp, wait the cycles the core will spin.
	LockAcquire(l *LockSim, arrival, wait uint64)
	// LockRelease fires after the frontier update with the holder's
	// release point (under jitter it can lie behind the frontier).
	LockRelease(l *LockSim, heldUntil uint64)
}

// SetIdentity names the lock: a class shared with every frontier of the
// same kind plus an instance label. Registries key ordering rules by
// class and reports by (class, instance).
func (l *LockSim) SetIdentity(class, instance string) {
	if l != nil {
		l.class, l.instance = class, instance
	}
}

// Class returns the lock's class ("" until SetIdentity).
func (l *LockSim) Class() string {
	if l == nil {
		return ""
	}
	return l.class
}

// Instance returns the lock's instance label ("" until SetIdentity).
func (l *LockSim) Instance() string {
	if l == nil {
		return ""
	}
	return l.instance
}

// SetObserver installs (or, with nil, removes) the acquisition observer.
func (l *LockSim) SetObserver(o LockObserver) {
	if l != nil {
		l.obs = o
	}
}

// Frontier returns the current frontier — the global cycle at which the
// lock is next free. It is monotone: Release never moves it backwards.
func (l *LockSim) Frontier() uint64 {
	if l == nil {
		return 0
	}
	return l.freeAt
}

// Enable turns the contention model on. Off (the zero value), Acquire
// and Release are no-ops and the lock costs only CostBigLock.
func (l *LockSim) Enable() {
	if l != nil {
		l.enabled = true
	}
}

// Enabled reports whether the contention model is active.
func (l *LockSim) Enabled() bool { return l != nil && l.enabled }

// SetJitter arms seeded arrival jitter: every subsequent Acquire shifts
// its arrival timestamp forward by a splitmix64-derived delay in
// [0, max]. Schedule-exploration harnesses use this to reorder lock
// hand-offs per seed while staying fully deterministic; max = 0 turns
// the jitter back off.
func (l *LockSim) SetJitter(seed, max uint64) {
	if l == nil {
		return
	}
	l.jitterState = seed
	l.jitterMax = max
}

// nextJitter steps the splitmix64 stream and folds it into [0, jitterMax].
func (l *LockSim) nextJitter() uint64 {
	l.jitterState += 0x9e3779b97f4a7c15
	z := l.jitterState
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return z % (l.jitterMax + 1)
}

// Acquire records a lock acquisition by a core whose clock reads arrival
// and returns the wait cycles the core must charge before it holds the
// lock: max(0, frontier - arrival). Disabled, it returns 0.
func (l *LockSim) Acquire(arrival uint64) uint64 {
	if l == nil || !l.enabled {
		return 0
	}
	if l.jitterMax > 0 {
		arrival += l.nextJitter()
	}
	l.acquisitions++
	var wait uint64
	if l.freeAt > arrival {
		wait = l.freeAt - arrival
		l.contended++
		l.waitCycles += wait
	}
	if l.obs != nil {
		l.obs.LockAcquire(l, arrival, wait)
	}
	return wait
}

// Release advances the frontier to heldUntil — the global cycle at which
// the holder let go (its arrival + wait + the cycles it spent under the
// lock). The frontier is monotone: a release in the past (possible when
// a core's clock lags the frontier's previous holder) leaves it alone.
func (l *LockSim) Release(heldUntil uint64) {
	if l == nil || !l.enabled {
		return
	}
	if heldUntil > l.freeAt {
		l.freeAt = heldUntil
	}
	if l.obs != nil {
		l.obs.LockRelease(l, heldUntil)
	}
}

// Stats reports (acquisitions, contended acquisitions, total wait
// cycles) since Enable.
func (l *LockSim) Stats() (acquisitions, contended, waitCycles uint64) {
	if l == nil {
		return 0, 0, 0
	}
	return l.acquisitions, l.contended, l.waitCycles
}
