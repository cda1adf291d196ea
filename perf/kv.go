package perf

import (
	"fmt"

	"atmosphere/internal/apps"
	"atmosphere/internal/hw"
	"atmosphere/internal/kernel"
	"atmosphere/internal/pm"
	"atmosphere/internal/pt"
	"atmosphere/internal/shmring"
)

// The two kv workloads serve the same traffic two ways. Each core has a
// client and a server process in a core-pinned container of its own,
// and a private kv table over a fixed key space that set-up prefills, so
// every GET hits and the table's load never moves: the run is in steady
// state from its first request at any length.
const (
	kvKeys      = 4096 // per-core key space
	kvTableBits = 14   // 16,384 slots: the prefill leaves the table 25% loaded
	kvSetPct    = 10   // 90/10 GET/SET
	kvQuota     = 192  // container quota: objects, rings, grant windows, page tables
	// kvValueMix is how apps.KVStore.ServeReg derives a SET's value from
	// its key: a correct GET returns key ^ kvValueMix.
	kvValueMix = 0x9e3779b97f4a7c15
)

var ipcRPC = &workload{
	name: "ipc-rpc",
	why: "every request crosses the kernel twice with no lock wait, allocation or ring: the call/reply path, " +
		"and the control on which lock, mem and ring changes must read no change",
	length: 250_000, // requests per core
	setup:  setupIPCRPC,
}

var kvBatch = &workload{
	name: "kv-batch",
	why: "the same traffic through batch rings: 4,096 requests ride 8 granted pages per doorbell, so cost moves " +
		"from the trampoline into rings, batch dispatch, page grants and the serve",
	length: 1280, // generations per core: 10,240 in all, so 10 lie beyond the p999
	setup:  setupKVBatch,
}

// kvCore is one core's serving pair and its table.
type kvCore struct {
	client, server pm.Ptr
	store          *apps.KVStore
	keys           []uint64
}

// kvSetup builds the per-core pairs with endpoints in slots
// [0, endpoints) shared by client and server, and prefills every table.
func kvSetup(m *machine, seed uint64, endpoints int) ([]*kvCore, error) {
	k := m.k
	cores := make([]*kvCore, mcCores)
	for c := range cores {
		rc := k.SysNewContainer(0, m.init, kvQuota, []int{c})
		if rc.Errno != kernel.OK {
			return nil, fmt.Errorf("core %d container: %v", c, rc.Errno)
		}
		w := &kvCore{}
		for i, tid := range []*pm.Ptr{&w.client, &w.server} {
			rp := k.SysNewProcessIn(0, m.init, pm.Ptr(rc.Vals[0]))
			if rp.Errno != kernel.OK {
				return nil, fmt.Errorf("core %d process %d: %v", c, i, rp.Errno)
			}
			rt := k.SysNewThreadIn(0, m.init, pm.Ptr(rp.Vals[0]), c)
			if rt.Errno != kernel.OK {
				return nil, fmt.Errorf("core %d thread %d: %v", c, i, rt.Errno)
			}
			*tid = pm.Ptr(rt.Vals[0])
		}
		for slot := 0; slot < endpoints; slot++ {
			re := k.SysNewEndpoint(c, w.client, slot)
			if re.Errno != kernel.OK {
				return nil, fmt.Errorf("core %d endpoint %d: %v", c, slot, re.Errno)
			}
			// The server holds the client's endpoint: a descriptor both
			// processes were handed at creation.
			ep := pm.Ptr(re.Vals[0])
			k.PM.Thrd(w.server).Endpoints[slot] = ep
			k.PM.EndpointIncRef(ep, 1)
		}
		store, err := apps.NewKVStore(1<<kvTableBits, 8, 8)
		if err != nil {
			return nil, err
		}
		w.store = store
		w.keys = kvKeySpace(seed, c)
		for _, key := range w.keys {
			if store.ServeReg(nil, apps.PackKVReq(true, key)) != 1 {
				return nil, fmt.Errorf("core %d prefill: table full", c)
			}
		}
		cores[c] = w
	}
	return cores, nil
}

// kvKeySpace derives core c's kvKeys distinct key words (bit 0 clear:
// it carries the opcode).
func kvKeySpace(seed uint64, c int) []uint64 {
	keys := make([]uint64, 0, kvKeys)
	seen := make(map[uint64]bool, kvKeys)
	for i := uint64(0); len(keys) < kvKeys; i++ {
		key := mix64(seed^0x6b657973^uint64(c)<<48^i) &^ 1
		if key != 0 && !seen[key] {
			seen[key] = true
			keys = append(keys, key)
		}
	}
	return keys
}

// request derives request i of core c from the run's stream base: its
// packed word and the reply a correct server returns — 1 for a SET, the
// stored value for a GET.
func (w *kvCore) request(base uint64, c, i int) (req, want uint64) {
	r := mix64(base ^ uint64(c)<<56 ^ uint64(i))
	key := w.keys[r%kvKeys]
	if (r>>32)%100 < kvSetPct {
		return apps.PackKVReq(true, key), 1
	}
	return apps.PackKVReq(false, key), key ^ kvValueMix
}

// kvStoreFigures reports the tables' hit ratio over the phase and their
// load factor at its end.
func kvStoreFigures(o *outcome, cores []*kvCore, gets0, hits0 uint64) {
	gets, hits := kvGetsHits(cores)
	var used uint64
	for _, w := range cores {
		used += w.store.Used()
	}
	o.sim["apps.kv_hit_ratio"] = ratio(float64(hits-hits0), float64(gets-gets0))
	o.sim["apps.kv_load_factor"] = float64(used) / float64(len(cores)<<kvTableBits)
}

func kvGetsHits(cores []*kvCore) (gets, hits uint64) {
	for _, w := range cores {
		gets += w.store.Gets
		hits += w.store.Hits
	}
	return gets, hits
}

// setupIPCRPC parks every server in recv; the phase then runs a closed
// loop of one outstanding request per core: call, serve, reply_recv.
func setupIPCRPC(seed uint64, length int, tr *tracing) (phase, error) {
	m, err := bootMachine(tr)
	if err != nil {
		return nil, err
	}
	cores, err := kvSetup(m, seed, 1)
	if err != nil {
		return nil, err
	}
	for c, w := range cores {
		if r := m.k.SysRecv(c, w.server, 0, kernel.RecvArgs{EdptSlot: -1}); r.Errno != kernel.EWOULDBLOCK {
			return nil, fmt.Errorf("core %d park: %v", c, r.Errno)
		}
	}
	lat := make([]uint64, 0, length*mcCores)
	base := mix64(seed ^ 0x697063)
	return func() (*outcome, error) {
		o := newOutcome()
		var call, replyRecv, serve sysAcc
		m.begin("call", "reply_recv")
		gets0, hits0 := kvGetsHits(cores)
		for i := 0; i < length; i++ {
			for c, w := range cores {
				clk := m.clock(c)
				req, want := w.request(base, c, i)
				t0 := clk.Cycles()
				s := m.enter(c)
				r := m.k.SysCall(c, w.client, 0, kernel.SendArgs{Regs: [4]uint64{req}})
				m.leave(c, s, &call)
				if r.Errno != kernel.EWOULDBLOCK {
					return nil, fmt.Errorf("core %d request %d: call: %v", c, i, r.Errno)
				}
				got := m.k.PM.Thrd(w.server).IPC.Msg.Regs[0]
				ts := clk.Cycles()
				rep := w.store.ServeReg(clk, got)
				serve.n++
				serve.cycles += clk.Cycles() - ts
				s = m.enter(c)
				r = m.k.SysReplyRecv(c, w.server, 0, kernel.SendArgs{Regs: [4]uint64{rep}}, kernel.RecvArgs{EdptSlot: -1})
				m.leave(c, s, &replyRecv)
				if r.Errno != kernel.EWOULDBLOCK {
					return nil, fmt.Errorf("core %d request %d: reply_recv: %v", c, i, r.Errno)
				}
				o.ops++
				if got != req || m.k.PM.Thrd(w.client).IPC.Msg.Regs[0] != want {
					o.failed++
				}
				lat = append(lat, clk.Cycles()-t0)
			}
			m.poll()
		}
		named := map[string]*sysAcc{"call": &call, "reply_recv": &replyRecv}
		if err := m.finish(o, named); err != nil {
			return nil, err
		}
		latencyMetrics(o.sim, lat)
		o.sim["kernel.call_cycles"] = call.mean()
		o.sim["kernel.reply_recv_cycles"] = replyRecv.mean()
		o.sim["apps.kv_serve_cycles"] = serve.mean()
		kvStoreFigures(o, cores, gets0, hits0)
		return o, nil
	}, nil
}

// The batched path's layout: per core, the client maps its two ring
// pages and an 8-page grant window; the server maps its two ring pages,
// and its landing window is mapped by the grant deliveries themselves.
const (
	kvbPages   = 8                     // request pages granted per doorbell
	kvbPerPage = hw.PageSize4K / 8     // 512 packed 8-byte requests per page
	kvbGen     = kvbPages * kvbPerPage // 4,096 requests per ring generation
	kvbVABase  = 0x4000_0000
	kvbVAStep  = 0x100_0000
)

func kvbRingVA(c int) hw.VirtAddr { return hw.VirtAddr(kvbVABase + c*kvbVAStep) }
func kvbGrantVA(c, p int) hw.VirtAddr {
	return kvbRingVA(c) + 0x10000 + hw.VirtAddr(p)*hw.PageSize4K
}
func kvbLandVA(c, p int) hw.VirtAddr {
	return kvbRingVA(c) + 0x20000 + hw.VirtAddr(p)*hw.PageSize4K
}

// kvbSide is one thread's user-side view of its submission and
// completion rings (the pages at kvbRingVA and the one after it).
type kvbSide struct {
	tid    pm.Ptr
	proc   *pm.Process
	sq, cq *shmring.Ring
}

// kvbRun is the batched workload's per-phase state: the outside meters
// on the doorbells and the user side of the rings.
type kvbRun struct {
	m                      *machine
	bell, serve            sysAcc
	sqes, ringUser, grants uint64
}

func kvbRings(m *machine, c int, tid pm.Ptr) (kvbSide, error) {
	if r := m.k.SysMmap(c, tid, kvbRingVA(c), 2, hw.Size4K, pt.RW); r.Errno != kernel.OK {
		return kvbSide{}, fmt.Errorf("rings: %v", r.Errno)
	}
	s := kvbSide{tid: tid, proc: m.k.PM.Proc(m.k.PM.Thrd(tid).OwningProc)}
	sq, ok := s.proc.PageTable.Lookup(kvbRingVA(c))
	cq, ok2 := s.proc.PageTable.Lookup(kvbRingVA(c) + hw.PageSize4K)
	if !ok || !ok2 {
		return kvbSide{}, fmt.Errorf("ring pages unmapped")
	}
	clk := m.clock(c)
	s.sq = shmring.New(m.k.Machine.Mem, clk, sq.Phys, shmring.SlotsPerPage())
	s.cq = shmring.New(m.k.Machine.Mem, clk, cq.Phys, shmring.SlotsPerPage())
	return s, nil
}

// exchange moves the kvbPages pages at va(c, p) through endpoint slot:
// one SQE per page (token p), one doorbell, one CQE per page.
func (b *kvbRun) exchange(c int, s kvbSide, op uint8, slot int, va func(c, p int) hw.VirtAddr) error {
	if err := b.submit(c, s, op, slot, va); err != nil {
		return err
	}
	return b.ring(c, s, op)
}

// submit frames kvbPages SQEs of one opcode onto s's submission ring,
// timing the user side.
func (b *kvbRun) submit(c int, s kvbSide, op uint8, slot int, va func(c, p int) hw.VirtAddr) error {
	clk := b.m.clock(c)
	for p := 0; p < kvbPages; p++ {
		t := clk.Cycles()
		var err error
		if op == kernel.BopSendAsync {
			err = shmring.EncodeSQE(s.sq, op, 0, uint16(p), uint64(slot), uint64(p), 0, uint64(va(c, p)))
		} else {
			err = shmring.EncodeSQE(s.sq, op, 0, uint16(p), uint64(slot), uint64(va(c, p)), 0)
		}
		b.ringUser += clk.Cycles() - t
		if err != nil {
			return err
		}
	}
	b.sqes += kvbPages
	return nil
}

// ring rings s's doorbell and drains its completions: every op must
// complete OK, in order, and a recv must report the page's token as the
// message word the sender put there.
func (b *kvbRun) ring(c int, s kvbSide, op uint8) error {
	m := b.m
	st := m.enter(c)
	r := m.k.SysBatch(c, s.tid, kvbRingVA(c), kvbRingVA(c)+hw.PageSize4K, 0)
	m.leave(c, st, &b.bell)
	if r.Errno != kernel.OK || r.Vals[0] != kvbPages {
		return fmt.Errorf("doorbell: %v drained %d of %d", r.Errno, r.Vals[0], kvbPages)
	}
	clk := m.clock(c)
	for p := 0; p < kvbPages; p++ {
		t := clk.Cycles()
		cqe, err := shmring.PopCQE(s.cq)
		b.ringUser += clk.Cycles() - t
		if err != nil {
			return fmt.Errorf("cqe %d: %w", p, err)
		}
		val := uint64(0)
		if op == kernel.BopRecv {
			val = uint64(p)
		}
		if cqe.Op != op || cqe.Token != uint16(p) || kernel.Errno(cqe.Errno) != kernel.OK || cqe.Val != val {
			return fmt.Errorf("bad cqe %d: %+v", p, cqe)
		}
	}
	if op == kernel.BopSendAsync {
		b.grants += kvbPages
	}
	return nil
}

func setupKVBatch(seed uint64, length int, tr *tracing) (phase, error) {
	m, err := bootMachine(tr)
	if err != nil {
		return nil, err
	}
	cores, err := kvSetup(m, seed, 2)
	if err != nil {
		return nil, err
	}
	cli := make([]kvbSide, mcCores)
	srv := make([]kvbSide, mcCores)
	for c, w := range cores {
		if cli[c], err = kvbRings(m, c, w.client); err != nil {
			return nil, fmt.Errorf("core %d client %w", c, err)
		}
		if srv[c], err = kvbRings(m, c, w.server); err != nil {
			return nil, fmt.Errorf("core %d server %w", c, err)
		}
		if r := m.k.SysMmap(c, w.client, kvbGrantVA(c, 0), kvbPages, hw.Size4K, pt.RW); r.Errno != kernel.OK {
			return nil, fmt.Errorf("core %d grant window: %v", c, r.Errno)
		}
	}
	lat := make([]uint64, 0, length*mcCores)
	base := mix64(seed ^ 0x6b7662)
	return func() (*outcome, error) {
		o := newOutcome()
		b := &kvbRun{m: m}
		m.begin("send_async", "recv")
		gets0, hits0 := kvGetsHits(cores)
		mem := m.k.Machine.Mem
		for g := 0; g < length; g++ {
			for c, w := range cores {
				clk := m.clock(c)
				first := g * kvbGen
				// Client: fill the request pages.
				for p := 0; p < kvbPages; p++ {
					e, ok := cli[c].proc.PageTable.Lookup(kvbGrantVA(c, p))
					if !ok {
						return nil, fmt.Errorf("core %d gen %d: grant page %d unmapped", c, g, p)
					}
					for j := 0; j < kvbPerPage; j++ {
						req, _ := w.request(base, c, first+p*kvbPerPage+j)
						mem.WriteU64(e.Phys+hw.PhysAddr(8*j), req)
					}
					clk.ChargeBytes(hw.PageSize4K)
				}
				t0 := clk.Cycles()
				err := b.exchange(c, cli[c], kernel.BopSendAsync, 0, kvbGrantVA) // grant the requests
				if err == nil {
					err = b.exchange(c, srv[c], kernel.BopRecv, 0, kvbLandVA) // land them
				}
				if err != nil {
					return nil, fmt.Errorf("core %d gen %d: %w", c, g, err)
				}
				// Server: serve every request in place.
				for p := 0; p < kvbPages; p++ {
					e, ok := srv[c].proc.PageTable.Lookup(kvbLandVA(c, p))
					if !ok {
						return nil, fmt.Errorf("core %d gen %d: landing page %d unmapped", c, g, p)
					}
					clk.ChargeBytes(2 * hw.PageSize4K) // read requests, write replies
					for j := 0; j < kvbPerPage; j++ {
						addr := e.Phys + hw.PhysAddr(8*j)
						ts := clk.Cycles()
						rep := w.store.ServeReg(clk, mem.ReadU64(addr))
						b.serve.n++
						b.serve.cycles += clk.Cycles() - ts
						mem.WriteU64(addr, rep)
					}
				}
				err = b.exchange(c, srv[c], kernel.BopSendAsync, 1, kvbLandVA) // grant the replies back
				if err == nil {
					err = b.exchange(c, cli[c], kernel.BopRecv, 1, kvbGrantVA) // land them home
				}
				if err != nil {
					return nil, fmt.Errorf("core %d gen %d: %w", c, g, err)
				}
				lat = append(lat, clk.Cycles()-t0)
				// Client: read and check every reply.
				clk.ChargeBytes(kvbPages * hw.PageSize4K)
				for p := 0; p < kvbPages; p++ {
					e, ok := cli[c].proc.PageTable.Lookup(kvbGrantVA(c, p))
					if !ok {
						return nil, fmt.Errorf("core %d gen %d: reply page %d unmapped", c, g, p)
					}
					for j := 0; j < kvbPerPage; j++ {
						_, want := w.request(base, c, first+p*kvbPerPage+j)
						o.ops++
						if mem.ReadU64(e.Phys+hw.PhysAddr(8*j)) != want {
							o.failed++
						}
					}
				}
			}
			m.poll()
		}
		if err := m.finish(o, nil); err != nil {
			return nil, err
		}
		if tr != nil {
			// Batched ops run inside the doorbell, whose trampoline and
			// ring traffic the registry does not see: its per-op sums can
			// only bound the outside measure from below.
			inner := m.registered("send_async") - m.regStart["send_async"] + m.registered("recv") - m.regStart["recv"]
			if inner > b.bell.cycles-b.bell.wait {
				return nil, fmt.Errorf("registry batched-op cycles %d exceed doorbell cycles %d - lock wait %d",
					inner, b.bell.cycles, b.bell.wait)
			}
		}
		ops := float64(o.ops)
		latencyMetrics(o.sim, lat)
		o.sim["kernel.doorbell_cycles_per_sqe"] = ratio(float64(b.bell.cycles), float64(b.sqes))
		o.sim["kernel.grant_pages_per_kop"] = ratio(1000*float64(b.grants), ops)
		o.sim["shmring.user_cycles_per_op"] = ratio(float64(b.ringUser), ops)
		o.sim["shmring.sqes_per_doorbell"] = ratio(float64(b.sqes), float64(b.bell.n))
		o.sim["apps.kv_serve_cycles"] = b.serve.mean()
		kvStoreFigures(o, cores, gets0, hits0)
		return o, nil
	}, nil
}
