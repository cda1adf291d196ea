package mck

import (
	"fmt"

	"atmosphere/internal/hw"
	"atmosphere/internal/kernel"
	"atmosphere/internal/obs"
	"atmosphere/internal/obs/contend"
	"atmosphere/internal/pm"
	"atmosphere/internal/pt"
	"atmosphere/internal/verify"
)

// Schedule exploration: the differential runner fixes one schedule
// (threads stay on their creation cores, the big lock is uncontended),
// so it can never see a bug that needs a particular interleaving. The
// explorer runs a fixed multicore workload — per-core IPC ping-pong,
// mapping churn, scheduler churn, and a pool of stealable threads —
// under a PCT-style seeded perturbation of the two schedule-shaping
// mechanisms the simulation has: the big lock's arrival order
// (hw.LockSim.SetJitter) and the work stealer's victim choice
// (pm.SetStealSeed). Per seed it checks the full invariant suite at
// intervals and that the per-core trace hashes are bit-identical across
// a repeated run — determinism is itself a checked property (§4.3
// output consistency).

// ScheduleReport summarizes an exploration sweep.
type ScheduleReport struct {
	Seeds     int
	Rounds    int
	Steals    uint64 // threads migrated, total across seeds
	Contended uint64 // contended lock acquisitions, total across seeds
	Distinct  int    // distinct per-core trace-hash vectors across seeds
}

// ExploreSchedules runs the workload once per seed (plus a determinism
// re-run), failing on the first invariant violation or cross-run trace
// divergence.
func ExploreSchedules(seeds []uint64, rounds int, opt Options) (*ScheduleReport, error) {
	rep := &ScheduleReport{Seeds: len(seeds), Rounds: rounds}
	vectors := map[string]bool{}
	for _, seed := range seeds {
		h1, steals, contended, err := runSchedule(seed, rounds, opt)
		if err != nil {
			return rep, fmt.Errorf("schedule seed %d: %w", seed, err)
		}
		h2, _, _, err := runSchedule(seed, rounds, opt)
		if err != nil {
			return rep, fmt.Errorf("schedule seed %d (re-run): %w", seed, err)
		}
		if len(h1) != len(h2) {
			return rep, fmt.Errorf("schedule seed %d: hash vector length %d vs %d", seed, len(h1), len(h2))
		}
		for c := range h1 {
			if h1[c] != h2[c] {
				return rep, fmt.Errorf("schedule seed %d: core %d trace hash %#x vs %#x — same seed, different trace",
					seed, c, h1[c], h2[c])
			}
		}
		rep.Steals += steals
		rep.Contended += contended
		key := fmt.Sprint(h1)
		if !vectors[key] {
			vectors[key] = true
			rep.Distinct++
		}
	}
	return rep, nil
}

// runSchedule drives one seeded run and returns the per-core trace
// hashes plus the run's steal and contention counts.
func runSchedule(seed uint64, rounds int, opt Options) (hashes []uint64, steals, contended uint64, err error) {
	const cores = DefaultCores
	k, init, err := kernel.Boot(hw.Config{Frames: DefaultFrames, Cores: cores, TLBSlots: 256})
	if err != nil {
		return nil, 0, 0, err
	}
	tracer := obs.NewTracer(0)
	k.AttachObs(tracer, nil)
	// Schedule exploration runs with the lock-order checker armed: any
	// interleaving the perturbations produce must still respect the
	// declared ordering DAG (contend.KernelOrder), and every run queue a
	// syscall mutates — steals included — must be one its plan holds.
	cobs := contend.New()
	k.AttachContention(cobs)
	k.ArmLockOrder()
	if opt.Hook != nil {
		opt.Hook(k)
	}
	k.PM.EnableWorkStealing()
	k.PM.SetStealSeed(seed)

	// One client/server ping-pong pair on core 0 (steady lock traffic),
	// plus a pool of floater threads parked on core 0. The other cores
	// start empty: their PickNext calls must go through the stealer, so
	// floaters migrate under the seeded victim policy, run a little on
	// their new core, and occasionally exit (re-emptying the core) while
	// a replacement spawns back on core 0 to keep the pool alive.
	rc := k.SysNewThread(0, init, 0)
	if rc.Errno != kernel.OK {
		return nil, 0, 0, fmt.Errorf("client: %v", rc.Errno)
	}
	client := pm.Ptr(rc.Vals[0])
	rs := k.SysNewThread(0, init, 0)
	if rs.Errno != kernel.OK {
		return nil, 0, 0, fmt.Errorf("server: %v", rs.Errno)
	}
	server := pm.Ptr(rs.Vals[0])
	re := k.SysNewEndpoint(0, init, 0)
	if re.Errno != kernel.OK {
		return nil, 0, 0, fmt.Errorf("endpoint: %v", re.Errno)
	}
	ep := pm.Ptr(re.Vals[0])
	k.PM.Thrd(client).Endpoints[0] = ep
	k.PM.Thrd(server).Endpoints[0] = ep
	k.PM.EndpointIncRef(ep, 2)
	if r := k.SysRecv(0, server, 0, kernel.RecvArgs{EdptSlot: -1}); r.Errno != kernel.EWOULDBLOCK {
		return nil, 0, 0, fmt.Errorf("server park: %v", r.Errno)
	}
	floaters := make(map[pm.Ptr]bool, 3*cores)
	spawnFloater := func() error {
		r := k.SysNewThread(0, init, 0)
		if r.Errno != kernel.OK {
			return fmt.Errorf("floater: %v", r.Errno)
		}
		floaters[pm.Ptr(r.Vals[0])] = true
		return nil
	}
	for i := 0; i < 3*cores; i++ {
		if err := spawnFloater(); err != nil {
			return nil, 0, 0, err
		}
	}

	// Align the clocks, then arm both perturbations: from here the lock
	// hand-off order and steal victims are functions of the seed.
	var mx uint64
	for c := 0; c < cores; c++ {
		if cy := k.Machine.Core(c).Clock.Cycles(); cy > mx {
			mx = cy
		}
	}
	for c := 0; c < cores; c++ {
		clk := &k.Machine.Core(c).Clock
		clk.Charge(mx - clk.Cycles())
	}
	k.EnableContention()
	k.SetLockJitter(seed, 256)

	r := hw.NewRand(seed ^ 0x5ca1ab1e)
	for i := 0; i < rounds; i++ {
		// Core 0: a full call/reply round trip under the perturbed lock.
		if ret := k.SysCall(0, client, 0, kernel.SendArgs{Regs: [4]uint64{uint64(i)}}); ret.Errno != kernel.EWOULDBLOCK {
			return nil, 0, 0, fmt.Errorf("call round %d: %v", i, ret.Errno)
		}
		if ret := k.SysReplyRecv(0, server, 0, kernel.SendArgs{}, kernel.RecvArgs{EdptSlot: -1}); ret.Errno != kernel.EWOULDBLOCK {
			return nil, 0, 0, fmt.Errorf("reply_recv round %d: %v", i, ret.Errno)
		}
		// Other cores: schedule churn. An empty core's PickNext goes
		// through the seeded stealer; whatever lands runs a little and
		// sometimes exits, re-emptying the core.
		for c := 1; c < cores; c++ {
			next := k.PM.PickNext(c)
			if next == 0 {
				continue
			}
			switch {
			case r.Intn(3) == 0 && floaters[next]:
				k.SysExitThread(c, next)
				delete(floaters, next)
				if err := spawnFloater(); err != nil {
					return nil, 0, 0, err
				}
			case r.Bool():
				va := hw.VirtAddr(0x5000_0000 + uint64(c)<<24 + uint64(i%512)*hw.PageSize4K)
				k.SysMmap(c, next, va, 1, hw.Size4K, pt.RW)
				if r.Bool() {
					k.SysMunmap(c, next, va, 1, hw.Size4K)
				}
			default:
				k.SysYield(c, next)
			}
		}
		if (i+1)%32 == 0 {
			if err := verify.TotalWF(k); err != nil {
				return nil, 0, 0, fmt.Errorf("round %d: invariants: %w", i, err)
			}
		}
	}
	if err := verify.TotalWF(k); err != nil {
		return nil, 0, 0, fmt.Errorf("final: invariants: %w", err)
	}
	if v := cobs.Violation(); v != nil {
		return nil, 0, 0, fmt.Errorf("lock order: %s", v)
	}
	_, contended, _ = k.LockStats()
	return tracer.CoreHashes(cores), k.PM.Steals(), contended, nil
}
