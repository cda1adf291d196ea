package bench

import (
	"fmt"

	"atmosphere/internal/hw"
	"atmosphere/internal/kernel"
	"atmosphere/internal/mem"
	"atmosphere/internal/pm"
	"atmosphere/internal/pt"
	"atmosphere/internal/sel4"
)

// Table3SyscallLatency reproduces Table 3: the cycle cost of an IPC
// call/reply round trip and of mapping a page, for Atmosphere and the
// seL4 baseline, both measured on the shared cycle model.
func Table3SyscallLatency(s Sinks) (Result, error) {
	atmoIPC, err := atmoCallReplyCycles(s.Attach)
	if err != nil {
		return Result{}, err
	}
	atmoMap, err := atmoMapPageCycles(s.Attach)
	if err != nil {
		return Result{}, err
	}
	sel4IPC, err := sel4CallReplyCycles()
	if err != nil {
		return Result{}, err
	}
	sel4Map, err := sel4MapPageCycles()
	if err != nil {
		return Result{}, err
	}
	return Result{
		ID:    "table3",
		Title: "Latency of communication and typical system calls (cycles)",
		Rows: []Row{
			{Name: "call/reply atmosphere", Value: atmoIPC, Paper: 1058, Unit: "cycles"},
			{Name: "call/reply seL4", Value: sel4IPC, Paper: 1026, Unit: "cycles"},
			{Name: "map a page atmosphere", Value: atmoMap, Paper: 1984, Unit: "cycles"},
			{Name: "map a page seL4", Value: sel4Map, Paper: 2650, Unit: "cycles"},
		},
		Notes: []string{
			"measured on the simulated c220g5 cycle model; round trip = call + reply_recv",
		},
	}, nil
}

// atmoCallReplyCycles measures the Atmosphere call/reply round trip:
// client SysCall, server SysReplyRecv, averaged over a warm ping-pong.
func atmoCallReplyCycles(attach func(*kernel.Kernel)) (float64, error) {
	const rounds = 1000
	_, _, cycles, err := RunCallReply(16, rounds, attach)
	return float64(cycles) / rounds, err
}

// RunCallReply is the Table 3 call/reply ping-pong: it boots a 2-core
// kernel, lets attach wire observers in, parks a server thread on an
// endpoint the init thread (the client) calls, then runs warm unmeasured
// and rounds measured round trips on core 0. It returns the kernel, the
// client, and the core-0 cycles the measured rounds took.
func RunCallReply(warm, rounds int, attach func(*kernel.Kernel)) (*kernel.Kernel, pm.Ptr, uint64, error) {
	k, init, err := kernel.Boot(hw.Config{Frames: 1024, Cores: 2, TLBSlots: 64})
	if err != nil {
		return nil, 0, 0, err
	}
	attach(k)
	r := k.SysNewThread(0, init, 0)
	if r.Errno != kernel.OK {
		return nil, 0, 0, fmt.Errorf("bench: new_thread: %v", r.Errno)
	}
	server := pm.Ptr(r.Vals[0])
	re := k.SysNewEndpoint(0, init, 0)
	if re.Errno != kernel.OK {
		return nil, 0, 0, fmt.Errorf("bench: endpoint: %v", re.Errno)
	}
	k.PM.Thrd(server).Endpoints[0] = pm.Ptr(re.Vals[0])
	k.PM.EndpointIncRef(pm.Ptr(re.Vals[0]), 1)
	if r := k.SysRecv(0, server, 0, kernel.RecvArgs{EdptSlot: -1}); r.Errno != kernel.EWOULDBLOCK {
		return nil, 0, 0, fmt.Errorf("bench: park: %v", r.Errno)
	}
	for i := 0; i < warm; i++ {
		k.SysCall(0, init, 0, kernel.SendArgs{})
		k.SysReplyRecv(0, server, 0, kernel.SendArgs{}, kernel.RecvArgs{EdptSlot: -1})
	}
	start := k.Machine.Core(0).Clock.Cycles()
	for i := 0; i < rounds; i++ {
		if r := k.SysCall(0, init, 0, kernel.SendArgs{Regs: [4]uint64{uint64(i)}}); r.Errno != kernel.EWOULDBLOCK {
			return nil, 0, 0, fmt.Errorf("bench: call: %v", r.Errno)
		}
		if r := k.SysReplyRecv(0, server, 0, kernel.SendArgs{}, kernel.RecvArgs{EdptSlot: -1}); r.Errno != kernel.EWOULDBLOCK {
			return nil, 0, 0, fmt.Errorf("bench: reply_recv: %v", r.Errno)
		}
	}
	return k, init, k.Machine.Core(0).Clock.Cycles() - start, nil
}

// atmoMapPageCycles measures SysMmap of one 4 KiB page with warm
// intermediate tables (the steady-state map cost, as the paper's
// microbenchmark measures it).
func atmoMapPageCycles(attach func(*kernel.Kernel)) (float64, error) {
	k, init, err := kernel.Boot(hw.Config{Frames: 4096, Cores: 2, TLBSlots: 64})
	if err != nil {
		return 0, err
	}
	attach(k)
	// Warm the region's intermediate tables.
	if r := k.SysMmap(0, init, 0x40000000, 1, hw.Size4K, pt.RW); r.Errno != kernel.OK {
		return 0, fmt.Errorf("bench: warm mmap: %v", r.Errno)
	}
	const rounds = 500
	start := k.Machine.Core(0).Clock.Cycles()
	for i := 1; i <= rounds; i++ {
		va := hw.VirtAddr(0x40000000 + i*hw.PageSize4K)
		if r := k.SysMmap(0, init, va, 1, hw.Size4K, pt.RW); r.Errno != kernel.OK {
			return 0, fmt.Errorf("bench: mmap: %v", r.Errno)
		}
	}
	return float64(k.Machine.Core(0).Clock.Cycles()-start) / rounds, nil
}

// sel4CallReplyCycles measures the baseline's fastpath round trip.
func sel4CallReplyCycles() (float64, error) {
	phys := hw.NewPhysMem(256)
	clk := &hw.Clock{}
	alloc := mem.NewAllocator(phys, clk, 1)
	k := sel4.New(alloc, clk)
	cs := sel4.NewCSpace(8)
	cs.Install(1, sel4.Cap{Type: sel4.CapEndpoint, Object: 1})
	client := &sel4.TCB{CSpace: cs}
	server := &sel4.TCB{CSpace: cs}
	if err := k.Recv(server, 1); err != nil {
		return 0, err
	}
	const rounds = 1000
	start := clk.Cycles()
	for i := 0; i < rounds; i++ {
		if _, err := k.Call(client, 1, [4]uint64{uint64(i)}); err != nil {
			return 0, err
		}
		if _, err := k.ReplyRecv(server, 1, [4]uint64{}); err != nil {
			return 0, err
		}
	}
	return float64(clk.Cycles()-start) / rounds, nil
}

// sel4MapPageCycles measures seL4_ARCH_Page_Map with warm tables.
func sel4MapPageCycles() (float64, error) {
	phys := hw.NewPhysMem(2048)
	clk := &hw.Clock{}
	alloc := mem.NewAllocator(phys, clk, 1)
	k := sel4.New(alloc, clk)
	table, err := pt.New(alloc, clk)
	if err != nil {
		return 0, err
	}
	cs := sel4.NewCSpace(1024)
	cs.Install(2, sel4.Cap{Type: sel4.CapVSpace, Object: uint64(table.CR3())})
	tcb := &sel4.TCB{CSpace: cs}
	// Warm intermediates.
	warm, err := alloc.AllocUserPage4K()
	if err != nil {
		return 0, err
	}
	cs.Install(3, sel4.Cap{Type: sel4.CapFrame, Object: uint64(warm)})
	if err := k.PageMap(tcb, 3, 2, table, 0x40000000); err != nil {
		return 0, err
	}
	const rounds = 500
	start := clk.Cycles()
	for i := 1; i <= rounds; i++ {
		// seL4's map does not allocate: frames come from prior retypes.
		// The benchmark includes the untyped->frame retype's zeroing,
		// as the end-to-end "map a page" operation requires a frame.
		frame, err := alloc.AllocUserPage4K()
		if err != nil {
			return 0, err
		}
		cs.Install(4, sel4.Cap{Type: sel4.CapFrame, Object: uint64(frame)})
		if err := k.PageMap(tcb, 4, 2, table, hw.VirtAddr(0x40000000+i*hw.PageSize4K)); err != nil {
			return 0, err
		}
	}
	return float64(clk.Cycles()-start) / rounds, nil
}
