package pm

import (
	"fmt"

	"atmosphere/internal/hw"
)

// Scheduler is Atmosphere's per-core round-robin scheduler. A thread is
// affine to one core (chosen from its container's CPU reservation at
// creation); each core has a FIFO run queue plus a current thread. The
// kernel runs under a big lock, so the scheduler needs no internal
// locking (§3).
type Scheduler struct {
	queues  [][]Ptr
	current []Ptr // 0 = core idle

	// stealing enables deterministic work stealing: a core whose queue
	// runs empty takes the tail of the longest other queue instead of
	// idling (EnableWorkStealing).
	stealing bool
	steals   uint64

	// stealSeeded switches victim selection from longest-queue to a
	// seeded pseudo-random pick among the non-empty queues
	// (SetStealSeed). Schedule exploration uses this to cover migration
	// interleavings the fixed policy never produces.
	stealSeeded bool
	stealSeed   uint64

	// obs, when non-nil (SetSchedObserver), receives ready→running
	// run-queue delays, steal provenance, and blocked-on edges. clock is
	// the manager clock the timestamps read; neither is ever charged, so
	// attaching an observer cannot move a cycle.
	obs   SchedObserver
	clock *hw.Clock
}

// SchedObserver receives scheduler events for contention attribution
// (internal/obs/contend). Implementations only record — they must not
// charge cycles or mutate scheduler state. All timestamps are manager
// clock readings.
type SchedObserver interface {
	// RunqDelay reports one ready→running transition: the thread of
	// container cntr waited delay cycles on core's run queue.
	RunqDelay(core int, cntr Ptr, delay, now uint64)
	// Steal reports one work-stealing migration: thief took thrd (of
	// container cntr) from victim's queue.
	Steal(thief, victim int, thrd, cntr Ptr, now uint64)
	// Blocked reports a thread of container cntr blocking on object on
	// (the endpoint of an IPC rendezvous).
	Blocked(thrd, cntr, on Ptr, now uint64)
	// RunqTouched reports a mutation of core's run queue: its FIFO or
	// its current thread. The kernel's coverage check compares these
	// against the run-queue frontiers the syscall's lock plan holds.
	RunqTouched(core int)
}

// SetSchedObserver attaches (or, with nil, detaches) a scheduler
// observer. While attached, enqueue stamps each thread's ReadyAt so the
// ready→running delay is exact; detached, nothing is stamped and the
// scheduler behaves bit-identically to an unobserved one.
func (m *ProcessManager) SetSchedObserver(o SchedObserver) {
	m.sched.obs = o
	m.sched.clock = m.clock
}

func newScheduler(cores int) *Scheduler {
	if cores < 1 {
		panic("pm: scheduler needs at least one core")
	}
	return &Scheduler{
		queues:  make([][]Ptr, cores),
		current: make([]Ptr, cores),
	}
}

// Cores returns the number of cores.
func (s *Scheduler) Cores() int { return len(s.queues) }

// Current returns the thread running on core (0 if idle).
func (s *Scheduler) Current(core int) Ptr { return s.current[core] }

// QueueInto returns buf[:0] with core's run queue appended, in order
// (for invariant checks).
func (s *Scheduler) QueueInto(core int, buf []Ptr) []Ptr {
	return append(buf[:0], s.queues[core]...)
}

// touched reports a mutation of core's run queue to the observer.
func (s *Scheduler) touched(core int) {
	if s.obs != nil {
		s.obs.RunqTouched(core)
	}
}

// enqueue appends a runnable thread to its core's queue.
func (s *Scheduler) enqueue(t *Thread) {
	if t.State != ThreadRunnable {
		panic(fmt.Sprintf("pm: enqueueing %v thread %#x", t.State, t.Ptr))
	}
	if s.obs != nil {
		t.ReadyAt = s.clock.Cycles()
		s.obs.RunqTouched(t.Core)
	}
	s.queues[t.Core] = append(s.queues[t.Core], t.Ptr)
}

// noteRun reports a ready→running transition to the observer. Threads
// enqueued before the observer attached carry no stamp and are skipped;
// the stamp is consumed so a later re-dispatch cannot double-report.
func (s *Scheduler) noteRun(t *Thread, core int) {
	if s.obs == nil || t.ReadyAt == 0 {
		return
	}
	now := s.clock.Cycles()
	delay := uint64(0)
	if now > t.ReadyAt {
		delay = now - t.ReadyAt
	}
	t.ReadyAt = 0
	s.obs.RunqDelay(core, t.OwningCntr, delay, now)
}

// remove deletes a thread from wherever the scheduler holds it.
func (s *Scheduler) remove(t *Thread) {
	q := s.queues[t.Core]
	for i, p := range q {
		if p == t.Ptr {
			s.queues[t.Core] = append(q[:i], q[i+1:]...)
			s.touched(t.Core)
			break
		}
	}
	if s.current[t.Core] == t.Ptr {
		s.current[t.Core] = 0
		s.touched(t.Core)
	}
}

// PickNext pops the head of core's queue and makes it current. The
// previously current thread, if still running, is requeued (round
// robin). Returns the new current thread or 0 if the core idles.
func (m *ProcessManager) PickNext(core int) Ptr {
	s := m.sched
	m.clock.Charge(hw.CostSchedPick)
	if s.current[core] != 0 || len(s.queues[core]) > 0 {
		s.touched(core)
	}
	if cur := s.current[core]; cur != 0 {
		t := m.Thrd(cur)
		if t.State == ThreadRunning {
			t.State = ThreadRunnable
			s.enqueue(t)
		}
		s.current[core] = 0
	}
	if len(s.queues[core]) == 0 {
		if s.stealing {
			return m.trySteal(core)
		}
		return 0
	}
	q := s.queues[core]
	next := q[0]
	s.queues[core] = q[:copy(q, q[1:])]
	t := m.Thrd(next)
	t.State = ThreadRunning
	s.current[core] = next
	s.noteRun(t, core)
	return next
}

// PickSteals reports whether PickNext(core) would reach the stealer
// once thread gone (0 for none) has left core: stealing is on, core's
// queue holds no other thread, and no other running thread sits on the
// core to be requeued. It charges nothing, so a lock plan can ask
// before the syscall runs — a steal pops another core's queue, so only
// a plan for which this holds needs every core's run-queue frontier.
func (m *ProcessManager) PickSteals(core int, gone Ptr) bool {
	s := m.sched
	if !s.stealing {
		return false
	}
	for _, p := range s.queues[core] {
		if p != gone {
			return false
		}
	}
	cur := s.current[core]
	if cur == 0 || cur == gone {
		return true
	}
	t, ok := m.ThrdPerms[cur]
	return !ok || t.State != ThreadRunning
}

// EnableWorkStealing lets an idle core migrate runnable threads from
// other cores' queues instead of idling. The policy is deterministic —
// victim and candidate selection are pure functions of the queue state,
// no randomization — so traces stay reproducible.
func (m *ProcessManager) EnableWorkStealing() { m.sched.stealing = true }

// Steals reports how many threads have been migrated by work stealing.
func (m *ProcessManager) Steals() uint64 { return m.sched.steals }

// SetStealSeed arms seeded victim selection for work stealing: instead
// of always raiding the longest queue, each steal attempt picks a
// victim among the non-empty queues via a splitmix64 stream. The policy
// stays a pure function of (seed, steal-attempt order), so traces
// remain reproducible per seed.
func (m *ProcessManager) SetStealSeed(seed uint64) {
	m.sched.stealSeeded = true
	m.sched.stealSeed = seed
}

// nextStealRand steps the scheduler's splitmix64 stream.
func (s *Scheduler) nextStealRand() uint64 {
	s.stealSeed += 0x9e3779b97f4a7c15
	z := s.stealSeed
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// trySteal migrates a thread onto idle core: the victim is the core
// with the longest run queue (first such core in scan order on ties),
// the candidate the tail-most thread whose container reserves the
// thief's core. Tail-most is the classic choice — the coldest thread,
// the one whose cache working set costs least to move; the migration
// itself is priced at CostSchedSteal. Returns 0 when every queue is
// empty or the chosen victim holds no migratable thread (one victim
// per attempt keeps the policy simple and the scan bounded).
func (m *ProcessManager) trySteal(core int) Ptr {
	s := m.sched
	victim := -1
	if s.stealSeeded {
		// Seeded mode: pick uniformly among the non-empty queues.
		var cands []int
		for c := range s.queues {
			if c != core && len(s.queues[c]) > 0 {
				cands = append(cands, c)
			}
		}
		if len(cands) > 0 {
			victim = cands[int(s.nextStealRand()%uint64(len(cands)))]
		}
	} else {
		best := 0
		for c := range s.queues {
			if c == core {
				continue
			}
			if n := len(s.queues[c]); n > best {
				best, victim = n, c
			}
		}
	}
	if victim < 0 {
		return 0
	}
	q := s.queues[victim]
	for i := len(q) - 1; i >= 0; i-- {
		t := m.Thrd(q[i])
		if !m.Cntr(t.OwningCntr).Reserves(core) {
			continue // container does not reserve the thief's core
		}
		s.queues[victim] = append(q[:i], q[i+1:]...)
		s.touched(victim)
		t.Core = core
		t.State = ThreadRunning
		s.current[core] = t.Ptr
		s.touched(core)
		s.steals++
		m.clock.Charge(hw.CostSchedSteal)
		if s.obs != nil {
			s.obs.Steal(core, victim, t.Ptr, t.OwningCntr, s.clock.Cycles())
		}
		s.noteRun(t, core)
		return t.Ptr
	}
	return 0
}

// Dispatch makes a specific runnable thread current on its core,
// requeueing whatever ran there. Tests and the syscall layer use it to
// drive a chosen thread (the simulation's stand-in for timer ticks).
func (m *ProcessManager) Dispatch(thrd Ptr) error {
	t := m.Thrd(thrd)
	if t.State == ThreadRunning {
		return nil
	}
	if t.State != ThreadRunnable {
		return fmt.Errorf("pm: dispatch of %v thread %#x", t.State, thrd)
	}
	s := m.sched
	core := t.Core
	s.touched(core)
	if cur := s.current[core]; cur != 0 {
		ct := m.Thrd(cur)
		ct.State = ThreadRunnable
		s.current[core] = 0
		s.enqueue(ct)
	}
	// Unlink from the queue and make current.
	s.remove(t)
	t.State = ThreadRunning
	s.current[core] = thrd
	m.clock.Charge(hw.CostContextSwitch)
	s.noteRun(t, core)
	return nil
}

// DirectSwitch hands the core to a runnable thread without going through
// the run queue — the IPC fastpath handoff (the caller must have already
// blocked or otherwise vacated the core).
func (m *ProcessManager) DirectSwitch(thrd Ptr) {
	t := m.Thrd(thrd)
	if t.State != ThreadRunnable {
		panic(fmt.Sprintf("pm: direct switch to %v thread %#x", t.State, thrd))
	}
	s := m.sched
	s.remove(t)
	s.touched(t.Core)
	if cur := s.current[t.Core]; cur != 0 {
		ct := m.Thrd(cur)
		ct.State = ThreadRunnable
		s.current[t.Core] = 0
		s.enqueue(ct)
	}
	t.State = ThreadRunning
	s.current[t.Core] = thrd
	m.clock.Charge(hw.CostDirectSwitch)
	s.noteRun(t, t.Core)
}

// BlockCurrent transitions a running thread into an IPC-blocked state and
// removes it from its core.
func (m *ProcessManager) BlockCurrent(thrd Ptr, state ThreadState) {
	if state != ThreadBlockedSend && state != ThreadBlockedRecv {
		panic(fmt.Sprintf("pm: invalid blocked state %v", state))
	}
	t := m.Thrd(thrd)
	s := m.sched
	if s.current[t.Core] == thrd {
		s.current[t.Core] = 0
		s.touched(t.Core)
	} else {
		s.remove(t) // blocking a runnable (not yet dispatched) thread
	}
	t.State = state
	if s.obs != nil {
		// The syscall layer fills IPC.WaitingOn before blocking, so the
		// blocked-on edge names the endpoint of the rendezvous.
		s.obs.Blocked(thrd, t.OwningCntr, t.IPC.WaitingOn, s.clock.Cycles())
	}
}

// Wake makes a blocked thread runnable and enqueues it, delivering err as
// its syscall completion status.
func (m *ProcessManager) Wake(thrd Ptr, err error) {
	t := m.Thrd(thrd)
	if t.State != ThreadBlockedSend && t.State != ThreadBlockedRecv {
		panic(fmt.Sprintf("pm: waking %v thread %#x", t.State, thrd))
	}
	t.State = ThreadRunnable
	t.IPC.Err = err
	m.sched.enqueue(t)
}

// MarkExited transitions a thread to exited and removes it from the
// scheduler. The thread object itself is freed by FreeThread.
func (m *ProcessManager) MarkExited(thrd Ptr) {
	t := m.Thrd(thrd)
	m.sched.remove(t)
	t.State = ThreadExited
}
