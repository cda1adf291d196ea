package bench

import (
	"encoding/binary"
	"fmt"

	"atmosphere/internal/apps"
	"atmosphere/internal/hw"
	"atmosphere/internal/kernel"
	"atmosphere/internal/pm"
	"atmosphere/internal/pt"
)

// The multicore scalability series (the `-series multicore` run):
// throughput of three workloads at 1/2/4/8/16/32/64 cores under the
// sharded lock frontiers (per-container, per-endpoint and per-core run
// queue; see docs/CONCURRENCY.md), the per-core page-frame caches, and
// work stealing. The paper's Atmosphere deliberately ships a big-lock
// kernel (§3, §7.2); this series shows what the sharded cost model buys
// back: IPC, formerly pinned at 1.0x because every round trip
// serialized on the one big-lock frontier, now runs each core's
// ping-pong in its own container on its own endpoint and scales with
// core count; the kv-store's yields hold only their own core's run
// queue and scale likewise; allocation scales until its serialized
// remainder saturates — Amdahl's law on whatever the plans still
// share. That remainder is the shared container's frontier: from 16
// cores up it is held for the whole run, ≈285 cycles per mmap (the
// page-table and quota work, plus refills amortized), because the
// trampoline and the page zero run outside every hold.
//
// Everything is a pure function of the cycle model and mcSeed: same
// seed, same core count ⇒ the same trace, byte for byte, which
// multicore_test.go pins per core.

const (
	// mcSeed seeds the deterministic workload generators.
	mcSeed = 42
	// mcBatch is the per-core page cache refill batch.
	mcBatch       = 32
	mcIPCRounds   = 400 // call/reply round trips per core
	mcKVRounds    = 256 // kv batches per core (8 set/get pairs each)
	mcKVBatch     = 8   // set/get pairs per batch
	mcKVYield     = 4   // batches between SysYield kernel crossings
	mcAllocPages  = 300 // 4 KiB pages mapped per core
	mcAllocVABase = 0x4000_0000
	mcAllocVAStep = 0x1000_0000 // per-core VA region stride
)

var mcCores = []int{1, 2, 4, 8, 16, 32, 64}

// mcWorkloads are the series' sub-workloads, in presentation order.
var mcWorkloads = []string{"ipc", "kvstore", "alloc"}

// mcFrames sizes the machine for a core count: the legacy 16384-frame
// shape up to 8 cores (keeping those reference rows bit-identical to
// the pre-sharding series) and a larger bank beyond, where the alloc
// workload alone needs mcAllocPages x cores user frames.
func mcFrames(n int) int {
	if n >= 16 {
		return 32768
	}
	return 16384
}

// MulticoreScaling measures simulated throughput of the ipc, kvstore,
// and alloc workloads across core counts.
func MulticoreScaling(s Sinks) (Result, error) {
	res := Result{
		ID:    "multicore",
		Title: "Multicore scalability under sharded lock frontiers (simulated)",
		Notes: []string{
			"ipc = call/reply ping-pong per core, each pair in its own container on its own endpoint (sharded frontiers)",
			"kvstore = per-core table compute with periodic yields; alloc = 4 KiB mmap via per-core page caches",
			"throughput = ops x 2.2 GHz / max per-core cycles; deterministic, seed " + fmt.Sprint(mcSeed),
		},
	}
	type speedup struct{ one, four, sixteen float64 }
	ups := map[string]*speedup{}
	for _, wl := range mcWorkloads {
		ups[wl] = &speedup{}
		for _, n := range mcCores {
			ops, wall, _, err := RunMulticore(wl, n, mcSeed, 0, s.Attach)
			if err != nil {
				return Result{}, fmt.Errorf("bench: multicore %s %dc: %w", wl, n, err)
			}
			if wall == 0 {
				return Result{}, fmt.Errorf("bench: multicore %s %dc ran for zero cycles", wl, n)
			}
			mops := float64(ops) * hw.ClockHz / float64(wall) / 1e6
			res.Rows = append(res.Rows, Row{
				Name:  fmt.Sprintf("%s %dc", wl, n),
				Value: mops,
				Unit:  "Mops/s",
			})
			switch n {
			case 1:
				ups[wl].one = mops
			case 4:
				ups[wl].four = mops
			case 16:
				ups[wl].sixteen = mops
			}
		}
	}
	for _, wl := range mcWorkloads {
		if u := ups[wl]; u.one > 0 {
			res.Notes = append(res.Notes,
				fmt.Sprintf("%s speedup over 1 core: %.2fx at 4, %.2fx at 16",
					wl, u.four/u.one, u.sixteen/u.one))
		}
	}
	return res, nil
}

// RunMulticore boots an n-core kernel with contention, per-core
// caches, and work stealing enabled, lets attach wire observers in,
// runs one sub-workload of the series ("ipc", "kvstore", "alloc")
// driving all cores in lock step, and returns (operations completed,
// simulated wall-clock cycles = max per-core cycle delta, total cycles
// across cores). perCore scales the per-core operation count; <= 0
// selects the series defaults.
func RunMulticore(workload string, n int, seed uint64, perCore int, attach func(*kernel.Kernel)) (ops, wall, total uint64, err error) {
	frames := mcFrames(n)
	ipcRounds, kvRounds, allocPages := mcIPCRounds, mcKVRounds, mcAllocPages
	if perCore > 0 {
		ipcRounds = perCore
		kvRounds = (perCore + 2*mcKVBatch - 1) / (2 * mcKVBatch)
		allocPages = perCore
		if allocPages > 1024 {
			allocPages = 1024 // stay within the machine's frame bank
		}
		if max := (frames - 4096) / n; allocPages > max {
			allocPages = max
		}
	}

	k, init, err := kernel.Boot(hw.Config{Frames: frames, Cores: n, TLBSlots: 256})
	if err != nil {
		return 0, 0, 0, err
	}
	attach(k)
	k.EnableCoreCaches(mcBatch)
	k.PM.EnableWorkStealing()

	// One root-container worker thread per core (kvstore and alloc; the
	// ipc workload builds its own per-core containers).
	newWorkers := func() ([]pm.Ptr, error) {
		workers := make([]pm.Ptr, n)
		for c := 0; c < n; c++ {
			r := k.SysNewThread(0, init, c)
			if r.Errno != kernel.OK {
				return nil, fmt.Errorf("%s new_thread core %d: %v", workload, c, r.Errno)
			}
			workers[c] = pm.Ptr(r.Vals[0])
		}
		return workers, nil
	}

	var run func() (uint64, error)
	switch workload {
	case "ipc":
		run, err = mcSetupIPC(k, init, seed, ipcRounds)
	case "kvstore":
		var workers []pm.Ptr
		if workers, err = newWorkers(); err == nil {
			run, err = mcSetupKV(k, workers, seed, kvRounds)
		}
	case "alloc":
		var workers []pm.Ptr
		if workers, err = newWorkers(); err == nil {
			run, err = mcSetupAlloc(k, workers, allocPages)
		}
	default:
		return 0, 0, 0, fmt.Errorf("unknown multicore workload %q", workload)
	}
	if err != nil {
		return 0, 0, 0, err
	}

	// Setup ran uncontended from core 0 and skewed the clocks; align
	// them so "all cores start now" holds, then arm the contention
	// model. From here every syscall pays its deterministic lock wait.
	aligned := alignCores(k, n)
	k.EnableContention()

	ops, err = run()
	if err != nil {
		return 0, 0, 0, err
	}
	return ops, k.Machine.MaxCycles() - aligned, k.Machine.TotalCycles(), nil
}

// alignCores advances every core clock to the maximum across cores and
// returns that value — the series' common start line.
func alignCores(k *kernel.Kernel, n int) uint64 {
	var mx uint64
	for c := 0; c < n; c++ {
		if cy := k.Machine.Core(c).Clock.Cycles(); cy > mx {
			mx = cy
		}
	}
	for c := 0; c < n; c++ {
		clk := &k.Machine.Core(c).Clock
		clk.Charge(mx - clk.Cycles())
	}
	return mx
}

// mcSetupIPC builds the many-container ipc-parallel workload: each core
// gets its own container (pinned to that cpu) holding a client thread,
// a server thread, and a private endpoint; one operation is a full
// call/reply round trip. Every round trip's lock plan resolves to that
// core's container and endpoint frontiers alone, so distinct cores
// share nothing and the workload scales with core count — the exact
// traffic the old one-frontier model pinned at 1.0x.
func mcSetupIPC(k *kernel.Kernel, init pm.Ptr, seed uint64, rounds int) (func() (uint64, error), error) {
	n := k.Machine.NumCores()
	clients := make([]pm.Ptr, n)
	servers := make([]pm.Ptr, n)
	for c := 0; c < n; c++ {
		rc := k.SysNewContainer(0, init, 8, []int{c})
		if rc.Errno != kernel.OK {
			return nil, fmt.Errorf("ipc container core %d: %v", c, rc.Errno)
		}
		cntr := pm.Ptr(rc.Vals[0])
		rp := k.SysNewProcessIn(0, init, cntr)
		if rp.Errno != kernel.OK {
			return nil, fmt.Errorf("ipc process core %d: %v", c, rp.Errno)
		}
		proc := pm.Ptr(rp.Vals[0])
		for i, tp := range []*pm.Ptr{&clients[c], &servers[c]} {
			r := k.SysNewThreadIn(0, init, proc, c)
			if r.Errno != kernel.OK {
				return nil, fmt.Errorf("ipc thread %d core %d: %v", i, c, r.Errno)
			}
			*tp = pm.Ptr(r.Vals[0])
		}
		re := k.SysNewEndpoint(c, clients[c], 0)
		if re.Errno != kernel.OK {
			return nil, fmt.Errorf("ipc endpoint core %d: %v", c, re.Errno)
		}
		ep := pm.Ptr(re.Vals[0])
		k.PM.Thrd(servers[c]).Endpoints[0] = ep
		k.PM.EndpointIncRef(ep, 1)
		if r := k.SysRecv(c, servers[c], 0, kernel.RecvArgs{EdptSlot: -1}); r.Errno != kernel.EWOULDBLOCK {
			return nil, fmt.Errorf("ipc park core %d: %v", c, r.Errno)
		}
	}
	return func() (uint64, error) {
		var ops uint64
		for i := 0; i < rounds; i++ {
			for c := 0; c < n; c++ {
				msg := mcMix(seed ^ uint64(i)<<8 ^ uint64(c))
				if r := k.SysCall(c, clients[c], 0, kernel.SendArgs{Regs: [4]uint64{msg}}); r.Errno != kernel.EWOULDBLOCK {
					return ops, fmt.Errorf("ipc call core %d round %d: %v", c, i, r.Errno)
				}
				if r := k.SysReplyRecv(c, servers[c], 0, kernel.SendArgs{}, kernel.RecvArgs{EdptSlot: -1}); r.Errno != kernel.EWOULDBLOCK {
					return ops, fmt.Errorf("ipc reply_recv core %d round %d: %v", c, i, r.Errno)
				}
				ops++
			}
		}
		return ops, nil
	}, nil
}

// mcSetupKV gives each core a private kv table; one batch is mcKVBatch
// set/get pairs charged to the core's own clock (user compute, outside
// the lock) with a SysYield kernel crossing every mcKVYield batches.
// One operation is one served request (a set or a get).
func mcSetupKV(k *kernel.Kernel, workers []pm.Ptr, seed uint64, rounds int) (func() (uint64, error), error) {
	n := len(workers)
	stores := make([]*apps.KVStore, n)
	for c := 0; c < n; c++ {
		kv, err := apps.NewKVStore(1<<13, 8, 16)
		if err != nil {
			return nil, err
		}
		stores[c] = kv
	}
	// Pre-mix the seed so nearby seeds produce disjoint key sets; a raw
	// `seed ^ index` only permutes one key set when the index range
	// covers the low bits, and linear probing's aggregate cost is
	// insertion-order independent.
	base := mcMix(seed)
	return func() (uint64, error) {
		var ops uint64
		var key [8]byte
		var val [16]byte
		for i := 0; i < rounds; i++ {
			for c := 0; c < n; c++ {
				clk := &k.Machine.Core(c).Clock
				for j := 0; j < mcKVBatch; j++ {
					h := mcMix(base ^ uint64(c)<<32 ^ uint64(i*mcKVBatch+j))
					binary.LittleEndian.PutUint64(key[:], h)
					binary.LittleEndian.PutUint64(val[:], h^seed)
					binary.LittleEndian.PutUint64(val[8:], h+seed)
					if !stores[c].Set(clk, key[:], val[:]) {
						return ops, fmt.Errorf("kv set overflow core %d", c)
					}
					stores[c].Get(clk, key[:])
					ops += 2
				}
				if i%mcKVYield == mcKVYield-1 {
					if r := k.SysYield(c, workers[c]); r.Errno != kernel.OK {
						return ops, fmt.Errorf("kv yield core %d round %d: %v", c, i, r.Errno)
					}
				}
			}
		}
		return ops, nil
	}, nil
}

// mcSetupAlloc maps fresh 4 KiB pages, one per operation, each core in
// its own VA region. With per-core caches on, the page zero and the
// hand-out run outside the lock; only the batched refill and the
// page-table update serialize.
func mcSetupAlloc(k *kernel.Kernel, workers []pm.Ptr, pages int) (func() (uint64, error), error) {
	n := len(workers)
	return func() (uint64, error) {
		var ops uint64
		for i := 0; i < pages; i++ {
			for c := 0; c < n; c++ {
				va := hw.VirtAddr(mcAllocVABase + c*mcAllocVAStep + i*hw.PageSize4K)
				if r := k.SysMmap(c, workers[c], va, 1, hw.Size4K, pt.RW); r.Errno != kernel.OK {
					return ops, fmt.Errorf("alloc mmap core %d page %d: %v", c, i, r.Errno)
				}
				ops++
			}
		}
		return ops, nil
	}, nil
}

// mcMix is a SplitMix64-style finalizer: the series' deterministic
// stand-in for randomness.
func mcMix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}
