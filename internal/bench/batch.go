package bench

import (
	"fmt"

	"atmosphere/internal/apps"
	"atmosphere/internal/hw"
	"atmosphere/internal/kernel"
	"atmosphere/internal/mem"
	"atmosphere/internal/obs"
	"atmosphere/internal/obs/account"
	"atmosphere/internal/pm"
	"atmosphere/internal/pt"
	"atmosphere/internal/sel4"
	"atmosphere/internal/shmring"
)

// The batch series (ROADMAP item 3, `-series batch`): what submission
// rings and grant-based zero-copy buy on top of PR 9's lock sharding.
// Three mechanisms, three groups of rows:
//
//   - nop rows isolate the amortized crossing: one doorbell drains b
//     ops, so the entry/dispatch/exit trampoline divides by b, against
//     the seL4 baseline's fixed floor (it has no rings);
//   - xfer rows isolate zero-copy: a 4 KiB value moved by scalar-copy
//     IPC (128 call/reply messages of 32 register bytes) vs one page
//     grant riding a single buffered send through the ledger's
//     InFlight container;
//   - kv-rpc rows put both together: a key-value server at 1/4/16
//     cores, classic one-rendezvous-per-request vs request pages
//     granted through batched rings, 512 packed requests per page.
//
// Everything is a pure function of the cycle model and kvrSeed: same
// seed, same core count ⇒ the same trace, byte for byte, which
// TestBatchingDeterministic pins per core.

const (
	// kvrSeed seeds the deterministic request streams.
	kvrSeed = 42
	// kvrReqsPerPage: 8-byte packed requests filling one 4 KiB page.
	kvrReqsPerPage = hw.PageSize4K / 8
	// kvrPages is the grant pages (= ring submissions) per doorbell.
	kvrPages = 8
	// kvrRounds is batched rounds per core; unbatched cores serve the
	// same number of requests for a like-for-like division.
	kvrRounds = 2
	// kvrStoreBits sizes each core's private table (8/8 key/value).
	kvrStoreBits = 14
	// kvrVABase/kvrVAStep lay out per-core rings and grant windows.
	kvrVABase = 0x4000_0000
	kvrVAStep = 0x100_0000
	// nopRounds sizes the amortization microbenchmark.
	nopRounds = 64
)

var kvrCores = []int{1, 4, 16}

// BatchThroughput is the "batch" experiment.
func BatchThroughput() (Result, error) {
	res := Result{
		ID:    "batch",
		Title: "Syscall batching rings + zero-copy grant transfer (simulated)",
	}
	for _, b := range []int{1, 8, 32} {
		cyc, err := nopBatchCycles(b)
		if err != nil {
			return Result{}, fmt.Errorf("bench: nop batch=%d: %w", b, err)
		}
		res.Rows = append(res.Rows, Row{
			Name: fmt.Sprintf("nop batch=%d", b), Value: cyc, Unit: "cycles"})
	}
	res.Rows = append(res.Rows, Row{
		Name: "nop seL4 (no rings)", Value: sel4NopCycles(), Unit: "cycles"})

	copy4k, err := xferScalarCopyCycles()
	if err != nil {
		return Result{}, fmt.Errorf("bench: scalar xfer: %w", err)
	}
	grant4k, err := xferGrantCycles()
	if err != nil {
		return Result{}, fmt.Errorf("bench: grant xfer: %w", err)
	}
	res.Rows = append(res.Rows,
		Row{Name: "xfer 4KiB scalar IPC", Value: copy4k, Unit: "cycles"},
		Row{Name: "xfer 4KiB grant", Value: grant4k, Unit: "cycles"},
	)

	var unb4, bat4 float64
	for _, batched := range []bool{false, true} {
		label := "unbatched"
		if batched {
			label = "batched"
		}
		for _, n := range kvrCores {
			ops, wall, _, err := runKVRPC(batched, n, kvrSeed, 0)
			if err != nil {
				return Result{}, fmt.Errorf("bench: kv-rpc %s %dc: %w", label, n, err)
			}
			if wall == 0 {
				return Result{}, fmt.Errorf("bench: kv-rpc %s %dc ran for zero cycles", label, n)
			}
			mops := float64(ops) * hw.ClockHz / float64(wall) / 1e6
			res.Rows = append(res.Rows, Row{
				Name:  fmt.Sprintf("kv-rpc %s %dc", label, n),
				Value: mops,
				Unit:  "Mops/s",
			})
			if n == 4 {
				if batched {
					bat4 = mops
				} else {
					unb4 = mops
				}
			}
		}
	}
	res.Notes = append(res.Notes,
		"nop = empty submission; one doorbell pays entry/dispatch/exit once and drains b ops",
		"xfer = moving one 4 KiB value between address spaces: 128 x 32-byte register messages vs one page grant (ownership moves through the in-flight ledger container)",
		"kv-rpc unbatched = one call/reply rendezvous per packed request; batched = "+
			fmt.Sprint(kvrPages)+" request pages granted per doorbell, "+
			fmt.Sprint(kvrReqsPerPage)+" requests per page, replies granted back in place",
		fmt.Sprintf("throughput = requests x 2.2 GHz / max per-core cycles; deterministic, seed %d", kvrSeed),
	)
	if unb4 > 0 {
		res.Notes = append(res.Notes,
			fmt.Sprintf("batching step-function at 4 cores: %.2fx", bat4/unb4))
	}
	return res, nil
}

// nopBatchCycles measures the per-op cost of draining b nops per
// doorbell through SysBatch over real mapped ring pages. The rings'
// user-side traffic charges a scratch clock so the row reads pure
// kernel crossing cost, the Table-3 convention.
func nopBatchCycles(b int) (float64, error) {
	k, init, err := kernel.Boot(hw.Config{Frames: 1024, Cores: 1, TLBSlots: 64})
	if err != nil {
		return 0, err
	}
	attachObs(k)
	const sqVA, cqVA = hw.VirtAddr(0x500000), hw.VirtAddr(0x501000)
	if r := k.SysMmap(0, init, sqVA, 2, hw.Size4K, pt.RW); r.Errno != kernel.OK {
		return 0, fmt.Errorf("ring pages: %v", r.Errno)
	}
	sq, cq, err := userRings(k, init, sqVA, cqVA, &hw.Clock{})
	if err != nil {
		return 0, err
	}
	clk := &k.Machine.Core(0).Clock
	run := func(rounds int) error {
		for w := 0; w < rounds; w++ {
			for i := 0; i < b; i++ {
				if err := shmring.EncodeSQE(sq, kernel.BopNop, 0, uint16(i)); err != nil {
					return err
				}
			}
			if r := k.SysBatch(0, init, sqVA, cqVA, 0); r.Errno != kernel.OK || r.Vals[0] != uint64(b) {
				return fmt.Errorf("doorbell: %v drained %d", r.Errno, r.Vals[0])
			}
			for i := 0; i < b; i++ {
				if _, err := shmring.PopCQE(cq); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := run(4); err != nil { // warm
		return 0, err
	}
	start := clk.Cycles()
	if err := run(nopRounds); err != nil {
		return 0, err
	}
	return float64(clk.Cycles()-start) / float64(nopRounds*b), nil
}

// sel4NopCycles is the baseline's amortization floor: its cheapest
// syscall still pays the whole trampoline on every operation.
func sel4NopCycles() float64 {
	phys := hw.NewPhysMem(16)
	clk := &hw.Clock{}
	k := sel4.New(mem.NewAllocator(phys, clk, 1), clk)
	const rounds = 1000
	start := clk.Cycles()
	for i := 0; i < rounds; i++ {
		k.Yield()
	}
	return float64(clk.Cycles()-start) / rounds
}

// xferScalarCopyCycles moves one 4 KiB value by register IPC: the
// kernel's messages carry 4 scalar registers (32 bytes), so the value
// takes 128 call/reply round trips.
func xferScalarCopyCycles() (float64, error) {
	k, init, err := kernel.Boot(hw.Config{Frames: 1024, Cores: 2, TLBSlots: 64})
	if err != nil {
		return 0, err
	}
	attachObs(k)
	server, err := benchPair(k, init)
	if err != nil {
		return 0, err
	}
	if r := k.SysRecv(0, server, 0, kernel.RecvArgs{EdptSlot: -1}); r.Errno != kernel.EWOULDBLOCK {
		return 0, fmt.Errorf("park: %v", r.Errno)
	}
	for i := 0; i < 16; i++ { // warm
		k.SysCall(0, init, 0, kernel.SendArgs{})
		k.SysReplyRecv(0, server, 0, kernel.SendArgs{}, kernel.RecvArgs{EdptSlot: -1})
	}
	const msgs = hw.PageSize4K / 32
	const xfers = 8
	clk := &k.Machine.Core(0).Clock
	start := clk.Cycles()
	for x := 0; x < xfers; x++ {
		for m := 0; m < msgs; m++ {
			w := uint64(x*msgs + m)
			if r := k.SysCall(0, init, 0, kernel.SendArgs{Regs: [4]uint64{w, w + 1, w + 2, w + 3}}); r.Errno != kernel.EWOULDBLOCK {
				return 0, fmt.Errorf("call: %v", r.Errno)
			}
			if r := k.SysReplyRecv(0, server, 0, kernel.SendArgs{}, kernel.RecvArgs{EdptSlot: -1}); r.Errno != kernel.EWOULDBLOCK {
				return 0, fmt.Errorf("reply_recv: %v", r.Errno)
			}
		}
	}
	return float64(clk.Cycles()-start) / xfers, nil
}

// xferGrantCycles moves one 4 KiB value by page grant: a buffered send
// revokes the sender's mapping and parks the page on the in-flight
// ledger container; the receive maps it into the receiver's space.
func xferGrantCycles() (float64, error) {
	k, init, err := kernel.Boot(hw.Config{Frames: 1024, Cores: 2, TLBSlots: 64})
	if err != nil {
		return 0, err
	}
	attachObs(k)
	server, err := benchPair(k, init)
	if err != nil {
		return 0, err
	}
	const base = hw.VirtAddr(0x600000)
	const xfers = 64
	if r := k.SysMmap(0, init, base, xfers+4, hw.Size4K, pt.RW); r.Errno != kernel.OK {
		return 0, fmt.Errorf("grant pages: %v", r.Errno)
	}
	for i := 0; i < 4; i++ { // warm
		va := base + hw.VirtAddr(xfers+i)*hw.PageSize4K
		k.SysSendAsync(0, init, 0, kernel.SendArgs{GrantPage: true, PageVA: va})
		k.SysRecv(0, server, 0, kernel.RecvArgs{PageVA: va, EdptSlot: -1})
	}
	clk := &k.Machine.Core(0).Clock
	start := clk.Cycles()
	for i := 0; i < xfers; i++ {
		va := base + hw.VirtAddr(i)*hw.PageSize4K
		if r := k.SysSendAsync(0, init, 0, kernel.SendArgs{GrantPage: true, PageVA: va}); r.Errno != kernel.OK {
			return 0, fmt.Errorf("grant %d: %v", i, r.Errno)
		}
		if r := k.SysRecv(0, server, 0, kernel.RecvArgs{PageVA: va, EdptSlot: -1}); r.Errno != kernel.OK {
			return 0, fmt.Errorf("grant recv %d: %v", i, r.Errno)
		}
	}
	return float64(clk.Cycles()-start) / xfers, nil
}

// benchPair adds a second thread sharing init's endpoint slot 0.
func benchPair(k *kernel.Kernel, init pm.Ptr) (pm.Ptr, error) {
	r := k.SysNewThread(0, init, 0)
	if r.Errno != kernel.OK {
		return 0, fmt.Errorf("new_thread: %v", r.Errno)
	}
	server := pm.Ptr(r.Vals[0])
	re := k.SysNewEndpoint(0, init, 0)
	if re.Errno != kernel.OK {
		return 0, fmt.Errorf("endpoint: %v", re.Errno)
	}
	ep := pm.Ptr(re.Vals[0])
	k.PM.Thrd(server).Endpoints[0] = ep
	k.PM.EndpointIncRef(ep, 1)
	return server, nil
}

// userRings builds user-side ring views over the physical pages backing
// sqVA/cqVA in tid's address space, charging clk.
func userRings(k *kernel.Kernel, tid pm.Ptr, sqVA, cqVA hw.VirtAddr, clk *hw.Clock) (*shmring.Ring, *shmring.Ring, error) {
	proc := k.PM.Proc(k.PM.Thrd(tid).OwningProc)
	se, ok := proc.PageTable.Lookup(sqVA)
	if !ok {
		return nil, nil, fmt.Errorf("sq page unmapped")
	}
	ce, ok := proc.PageTable.Lookup(cqVA)
	if !ok {
		return nil, nil, fmt.Errorf("cq page unmapped")
	}
	return shmring.New(k.Machine.Mem, clk, se.Phys, shmring.SlotsPerPage()),
		shmring.New(k.Machine.Mem, clk, ce.Phys, shmring.SlotsPerPage()), nil
}

// RunKVRPC runs the kv-rpc workload for the CLIs with the given
// observability sinks attached (any may be nil). perCore scales the
// per-core request count; <= 0 selects the series default. Returns
// (requests served, simulated wall-clock cycles, total cycles summed
// across cores).
func RunKVRPC(batched bool, cores int, seed uint64, perCore int,
	tr *obs.Tracer, reg *obs.Registry, led *account.Ledger) (ops, wall, total uint64, err error) {
	savedT, savedM, savedL := benchTracer, benchMetrics, benchLedger
	benchTracer, benchMetrics, benchLedger = tr, reg, led
	defer func() { benchTracer, benchMetrics, benchLedger = savedT, savedM, savedL }()
	return runKVRPC(batched, cores, seed, perCore)
}

// kvrCore is one core's serving pair: a client process and a server
// process in a core-pinned container, a request endpoint (slot 0) and
// a reply endpoint (slot 1) shared between them.
type kvrCore struct {
	client, server pm.Ptr
	store          *apps.KVStore
	// Batched-path state.
	cliSQ, cliCQ, srvSQ, srvCQ *shmring.Ring
	cliSQVA, srvSQVA           hw.VirtAddr
}

func (w *kvrCore) cliCQVA() hw.VirtAddr { return w.cliSQVA + hw.PageSize4K }
func (w *kvrCore) srvCQVA() hw.VirtAddr { return w.srvSQVA + hw.PageSize4K }

// kvrReq derives request i of core c's deterministic stream: SET then
// GET of the same key, so every GET hits.
func kvrReq(seed uint64, c, i int) uint64 {
	h := mcMix(seed ^ uint64(c)<<40 ^ uint64(i/2))
	return apps.PackKVReq(i%2 == 0, h)
}

// runKVRPC boots a cores-wide kernel with contention, per-core caches,
// and work stealing (the multicore series' machine model) and serves
// the same deterministic request stream either classically (one
// call/reply rendezvous per request) or through batched rings with
// request pages moving by grant.
func runKVRPC(batched bool, cores int, seed uint64, perCore int) (ops, wall, total uint64, err error) {
	gen := kvrPages * kvrReqsPerPage // requests per ring generation
	reqs := kvrRounds * gen
	if perCore > 0 {
		// Round up to whole generations so both variants serve the same
		// requests and the batched path always rings whole doorbells.
		reqs = (perCore + gen - 1) / gen * gen
	}
	k, init, err := kernel.Boot(hw.Config{Frames: 16384, Cores: cores, TLBSlots: 256})
	if err != nil {
		return 0, 0, 0, err
	}
	attachObs(k)
	k.EnableCoreCaches(mcBatch)
	k.PM.EnableWorkStealing()

	workers := make([]*kvrCore, cores)
	for c := 0; c < cores; c++ {
		if workers[c], err = kvrSetup(k, init, c, batched); err != nil {
			return 0, 0, 0, fmt.Errorf("core %d: %w", c, err)
		}
	}
	aligned := alignCores(k, cores)
	k.EnableContention()

	for c := 0; c < cores; c++ {
		w := workers[c]
		if batched {
			for r := 0; r < reqs/gen; r++ {
				n, rerr := kvrBatchedRound(k, c, w, seed, r)
				if rerr != nil {
					return 0, 0, 0, fmt.Errorf("core %d round %d: %w", c, r, rerr)
				}
				ops += n
			}
		} else {
			n, rerr := kvrUnbatched(k, c, w, seed, reqs)
			if rerr != nil {
				return 0, 0, 0, fmt.Errorf("core %d: %w", c, rerr)
			}
			ops += n
		}
	}
	return ops, k.Machine.MaxCycles() - aligned, k.Machine.TotalCycles(), nil
}

// kvrSetup builds one core's serving pair.
func kvrSetup(k *kernel.Kernel, init pm.Ptr, c int, batched bool) (*kvrCore, error) {
	rc := k.SysNewContainer(0, init, 192, []int{c})
	if rc.Errno != kernel.OK {
		return nil, fmt.Errorf("container: %v", rc.Errno)
	}
	cntr := pm.Ptr(rc.Vals[0])
	w := &kvrCore{}
	procs := make([]pm.Ptr, 2)
	tids := []*pm.Ptr{&w.client, &w.server}
	for i := range procs {
		rp := k.SysNewProcessIn(0, init, cntr)
		if rp.Errno != kernel.OK {
			return nil, fmt.Errorf("process %d: %v", i, rp.Errno)
		}
		procs[i] = pm.Ptr(rp.Vals[0])
		rt := k.SysNewThreadIn(0, init, procs[i], c)
		if rt.Errno != kernel.OK {
			return nil, fmt.Errorf("thread %d: %v", i, rt.Errno)
		}
		*tids[i] = pm.Ptr(rt.Vals[0])
	}
	for slot := 0; slot < 2; slot++ {
		re := k.SysNewEndpoint(c, w.client, slot)
		if re.Errno != kernel.OK {
			return nil, fmt.Errorf("endpoint %d: %v", slot, re.Errno)
		}
		ep := pm.Ptr(re.Vals[0])
		k.PM.Thrd(w.server).Endpoints[slot] = ep
		k.PM.EndpointIncRef(ep, 1)
	}
	store, err := apps.NewKVStore(1<<kvrStoreBits, 8, 8)
	if err != nil {
		return nil, err
	}
	w.store = store
	if !batched {
		return w, nil
	}
	base := hw.VirtAddr(kvrVABase + c*kvrVAStep)
	w.cliSQVA, w.srvSQVA = base, base
	clk := &k.Machine.Core(c).Clock
	// Client: 2 ring pages + the grant window; server: 2 ring pages
	// (its landing window is mapped by the grant deliveries).
	if r := k.SysMmap(c, w.client, w.cliSQVA, 2, hw.Size4K, pt.RW); r.Errno != kernel.OK {
		return nil, fmt.Errorf("client rings: %v", r.Errno)
	}
	if r := k.SysMmap(c, w.client, kvrGrantVA(c, 0), kvrPages, hw.Size4K, pt.RW); r.Errno != kernel.OK {
		return nil, fmt.Errorf("grant window: %v", r.Errno)
	}
	if r := k.SysMmap(c, w.server, w.srvSQVA, 2, hw.Size4K, pt.RW); r.Errno != kernel.OK {
		return nil, fmt.Errorf("server rings: %v", r.Errno)
	}
	if w.cliSQ, w.cliCQ, err = userRings(k, w.client, w.cliSQVA, w.cliCQVA(), clk); err != nil {
		return nil, err
	}
	if w.srvSQ, w.srvCQ, err = userRings(k, w.server, w.srvSQVA, w.srvCQVA(), clk); err != nil {
		return nil, err
	}
	return w, nil
}

// kvrGrantVA is the client-side grant window; kvrLandVA the server-side
// landing window (distinct VAs: distinct address spaces).
func kvrGrantVA(c, p int) hw.VirtAddr {
	return hw.VirtAddr(kvrVABase+c*kvrVAStep+0x10000) + hw.VirtAddr(p)*hw.PageSize4K
}
func kvrLandVA(c, p int) hw.VirtAddr {
	return hw.VirtAddr(kvrVABase+c*kvrVAStep+0x20000) + hw.VirtAddr(p)*hw.PageSize4K
}

// kvrUnbatched serves reqs requests classically: the server parks in
// recv, each request is one client call + one server reply_recv, the
// serve charged to the core clock between them.
func kvrUnbatched(k *kernel.Kernel, c int, w *kvrCore, seed uint64, reqs int) (uint64, error) {
	clk := &k.Machine.Core(c).Clock
	if r := k.SysRecv(c, w.server, 0, kernel.RecvArgs{EdptSlot: -1}); r.Errno != kernel.EWOULDBLOCK {
		return 0, fmt.Errorf("park: %v", r.Errno)
	}
	var ops uint64
	for i := 0; i < reqs; i++ {
		req := kvrReq(seed, c, i)
		if r := k.SysCall(c, w.client, 0, kernel.SendArgs{Regs: [4]uint64{req}}); r.Errno != kernel.EWOULDBLOCK {
			return ops, fmt.Errorf("call %d: %v", i, r.Errno)
		}
		rep := w.store.ServeReg(clk, req)
		if r := k.SysReplyRecv(c, w.server, 0, kernel.SendArgs{Regs: [4]uint64{rep}},
			kernel.RecvArgs{EdptSlot: -1}); r.Errno != kernel.EWOULDBLOCK {
			return ops, fmt.Errorf("reply_recv %d: %v", i, r.Errno)
		}
		ops++
	}
	return ops, nil
}

// kvrDoorbell rings one batch and drains its completions, asserting
// every op completed OK.
func kvrDoorbell(k *kernel.Kernel, c int, tid pm.Ptr, sqVA, cqVA hw.VirtAddr, cq *shmring.Ring, want int) error {
	if r := k.SysBatch(c, tid, sqVA, cqVA, 0); r.Errno != kernel.OK || r.Vals[0] != uint64(want) {
		return fmt.Errorf("doorbell: %v drained %d want %d", r.Errno, r.Vals[0], want)
	}
	for i := 0; i < want; i++ {
		cqe, err := shmring.PopCQE(cq)
		if err != nil {
			return fmt.Errorf("cqe %d: %w", i, err)
		}
		if kernel.Errno(cqe.Errno) != kernel.OK {
			return fmt.Errorf("cqe %d: errno %v", i, kernel.Errno(cqe.Errno))
		}
	}
	return nil
}

// kvrBatchedRound serves kvrPages*kvrReqsPerPage requests through one
// ring generation: the client fills its grant window with packed
// requests and grants the pages through one doorbell; the server
// receives them into its landing window with a second doorbell, serves
// every request in place, and grants the pages back on the reply
// endpoint; the client drains them home with a final doorbell. Page
// ownership walks sender -> in-flight -> receiver twice per page per
// round, entirely without copying the payload.
func kvrBatchedRound(k *kernel.Kernel, c int, w *kvrCore, seed uint64, round int) (uint64, error) {
	clk := &k.Machine.Core(c).Clock
	cliProc := k.PM.Proc(k.PM.Thrd(w.client).OwningProc)
	srvProc := k.PM.Proc(k.PM.Thrd(w.server).OwningProc)
	base := round * kvrPages * kvrReqsPerPage

	// Client: fill and grant the request pages.
	for p := 0; p < kvrPages; p++ {
		e, ok := cliProc.PageTable.Lookup(kvrGrantVA(c, p))
		if !ok {
			return 0, fmt.Errorf("grant page %d unmapped", p)
		}
		for j := 0; j < kvrReqsPerPage; j++ {
			req := kvrReq(seed, c, base+p*kvrReqsPerPage+j)
			k.Machine.Mem.WriteU64(e.Phys+hw.PhysAddr(8*j), req)
		}
		clk.ChargeBytes(hw.PageSize4K) // streaming fill
		if err := shmring.EncodeSQE(w.cliSQ, kernel.BopSendAsync, 0, uint16(p),
			0, uint64(p), 0, uint64(kvrGrantVA(c, p))); err != nil {
			return 0, err
		}
	}
	if err := kvrDoorbell(k, c, w.client, w.cliSQVA, w.cliCQVA(), w.cliCQ, kvrPages); err != nil {
		return 0, fmt.Errorf("client send: %w", err)
	}

	// Server: receive, serve in place, grant back.
	for p := 0; p < kvrPages; p++ {
		if err := shmring.EncodeSQE(w.srvSQ, kernel.BopRecv, 0, uint16(p),
			0, uint64(kvrLandVA(c, p)), 0); err != nil {
			return 0, err
		}
	}
	if err := kvrDoorbell(k, c, w.server, w.srvSQVA, w.srvCQVA(), w.srvCQ, kvrPages); err != nil {
		return 0, fmt.Errorf("server recv: %w", err)
	}
	var ops uint64
	for p := 0; p < kvrPages; p++ {
		e, ok := srvProc.PageTable.Lookup(kvrLandVA(c, p))
		if !ok {
			return 0, fmt.Errorf("landing page %d unmapped", p)
		}
		clk.ChargeBytes(2 * hw.PageSize4K) // read requests, write replies
		for j := 0; j < kvrReqsPerPage; j++ {
			addr := e.Phys + hw.PhysAddr(8*j)
			rep := w.store.ServeReg(clk, k.Machine.Mem.ReadU64(addr))
			k.Machine.Mem.WriteU64(addr, rep)
			ops++
		}
		if err := shmring.EncodeSQE(w.srvSQ, kernel.BopSendAsync, 0, uint16(p),
			1, uint64(p), 0, uint64(kvrLandVA(c, p))); err != nil {
			return 0, err
		}
	}
	if err := kvrDoorbell(k, c, w.server, w.srvSQVA, w.srvCQVA(), w.srvCQ, kvrPages); err != nil {
		return 0, fmt.Errorf("server reply: %w", err)
	}

	// Client: drain the reply pages home (remapped at the grant window).
	for p := 0; p < kvrPages; p++ {
		if err := shmring.EncodeSQE(w.cliSQ, kernel.BopRecv, 0, uint16(p),
			1, uint64(kvrGrantVA(c, p)), 0); err != nil {
			return 0, err
		}
	}
	if err := kvrDoorbell(k, c, w.client, w.cliSQVA, w.cliCQVA(), w.cliCQ, kvrPages); err != nil {
		return 0, fmt.Errorf("client recv: %w", err)
	}
	clk.ChargeBytes(kvrPages * hw.PageSize4K) // client reads the replies
	return ops, nil
}
