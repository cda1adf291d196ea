package verify

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"atmosphere/internal/hw"
	"atmosphere/internal/kernel"
	"atmosphere/internal/mem"
	"atmosphere/internal/pm"
	"atmosphere/internal/pt"
)

// An Obligation is the executable stand-in for one verified function's
// proof obligations: it builds the scenario the function's specification
// quantifies over and discharges the checks. The runner times each
// obligation individually (Figure 2) and the whole suite with 1 and N
// workers (Table 2).
type Obligation struct {
	// Name matches the paper's function naming (syscall_mmap,
	// new_container, page_table::map_4k_page, ...).
	Name string
	// Module groups obligations the way Table 2 groups systems.
	Module string
	// Run builds a fresh scenario and discharges the obligation.
	Run func() error
}

// Timing is one obligation's measured verification time.
type Timing struct {
	Name    string
	Module  string
	Elapsed time.Duration
}

// obligationCfg is a mid-sized machine: large enough that the O(state)
// invariant scans dominate (as SMT search dominates in Verus), small
// enough to keep the suite interactive.
func obligationCfg() hw.Config { return hw.Config{Frames: 4096, Cores: 4, TLBSlots: 256} }

// preparedKernel builds a standard scenario: a container tree three deep
// with processes, threads, mappings, and endpoints — the state each
// obligation's checks quantify over.
func preparedKernel() (*Checker, pm.Ptr, error) {
	c, init, err := NewChecker(obligationCfg())
	if err != nil {
		return nil, 0, err
	}
	c.SkipWF = true // obligations discharge their own targeted checks
	tid := init
	for i := 0; i < 3; i++ {
		// Nested quotas shrink so each child fits in its parent.
		r, err := c.NewContainer(0, tid, uint64(300-i*120), []int{0, 1})
		if err != nil || r.Errno != kernel.OK {
			return nil, 0, fmt.Errorf("prepare container: %v %v", r.Errno, err)
		}
		cn := pm.Ptr(r.Vals[0])
		rp, err := c.NewProcessIn(0, tid, cn)
		if err != nil || rp.Errno != kernel.OK {
			return nil, 0, fmt.Errorf("prepare proc: %v %v", rp.Errno, err)
		}
		rt, err := c.NewThreadIn(0, tid, pm.Ptr(rp.Vals[0]), 0)
		if err != nil || rt.Errno != kernel.OK {
			return nil, 0, fmt.Errorf("prepare thread: %v %v", rt.Errno, err)
		}
		tid = pm.Ptr(rt.Vals[0])
		if _, err := c.Mmap(0, tid, hw.VirtAddr(0x10000000+i*0x1000000), 16, hw.Size4K, pt.RW); err != nil {
			return nil, 0, err
		}
		if _, err := c.NewEndpoint(0, tid, 0); err != nil {
			return nil, 0, err
		}
	}
	return c, init, nil
}

// syscallObligation produces an obligation that replays a checked
// syscall loop `iters` times on a fresh prepared kernel.
func syscallObligation(name, module string, iters int,
	body func(c *Checker, init pm.Ptr, i int) error) Obligation {
	return Obligation{Name: name, Module: module, Run: func() error {
		c, init, err := preparedKernel()
		if err != nil {
			return err
		}
		c.SkipWF = false
		for i := 0; i < iters; i++ {
			if err := body(c, init, i); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
		return nil
	}}
}

func expectOK(r kernel.Ret, err error) error {
	if err != nil {
		return err
	}
	if r.Errno != kernel.OK && r.Errno != kernel.EWOULDBLOCK {
		return fmt.Errorf("unexpected errno %v", r.Errno)
	}
	return nil
}

// Obligations is the registry of per-function verification obligations —
// the rows of Figure 2.
func Obligations() []Obligation {
	var obls []Obligation

	// --- memory subsystem (page allocator + mmap paths) ------------------
	obls = append(obls,
		syscallObligation("syscall_mmap", "memory", 12, func(c *Checker, init pm.Ptr, i int) error {
			return expectOK(c.Mmap(0, init, hw.VirtAddr(0x20000000+i*0x100000), 8, hw.Size4K, pt.RW))
		}),
		syscallObligation("syscall_munmap", "memory", 12, func(c *Checker, init pm.Ptr, i int) error {
			va := hw.VirtAddr(0x20000000 + i*0x100000)
			if err := expectOK(c.Mmap(0, init, va, 8, hw.Size4K, pt.RW)); err != nil {
				return err
			}
			return expectOK(c.Munmap(0, init, va, 8, hw.Size4K))
		}),
		syscallObligation("syscall_mmap_quota_fail", "memory", 8, func(c *Checker, init pm.Ptr, i int) error {
			r, err := c.Mmap(0, init, hw.VirtAddr(0x30000000), 1<<19, hw.Size4K, pt.RW)
			if err != nil {
				return err
			}
			if r.Errno == kernel.OK {
				return fmt.Errorf("expected quota failure")
			}
			return nil
		}),
		Obligation{Name: "alloc_page_4k_post", Module: "memory", Run: func() error {
			c, _, err := preparedKernel()
			if err != nil {
				return err
			}
			for i := 0; i < 400; i++ {
				before := c.K.Alloc.Snapshot()
				p, err := c.K.Alloc.AllocPage4K(0)
				if err != nil {
					return err
				}
				after := c.K.Alloc.Snapshot()
				if !before.Free4K.Contains(p) || after.Free4K.Contains(p) {
					return fmt.Errorf("alloc postcondition violated")
				}
				if err := c.K.Alloc.FreePage(p); err != nil {
					return err
				}
			}
			return nil
		}},
		Obligation{Name: "page_state_partition", Module: "memory", Run: func() error {
			c, _, err := preparedKernel()
			if err != nil {
				return err
			}
			for i := 0; i < 40; i++ {
				if err := MemoryWF(c.K); err != nil {
					return err
				}
			}
			return nil
		}},
	)

	// --- page table subsystem --------------------------------------------
	obls = append(obls,
		Obligation{Name: "page_table::map_4k_page", Module: "page_table", Run: func() error {
			return ptObligation(60, hw.Size4K, false)
		}},
		Obligation{Name: "page_table::map_2m_page", Module: "page_table", Run: func() error {
			return ptObligation(8, hw.Size2M, false)
		}},
		Obligation{Name: "page_table::unmap_page", Module: "page_table", Run: func() error {
			return ptObligation(60, hw.Size4K, true)
		}},
		Obligation{Name: "page_table::refinement", Module: "page_table", Run: func() error {
			c, init, err := preparedKernel()
			if err != nil {
				return err
			}
			if _, err := c.Mmap(0, init, 0x40000000, 64, hw.Size4K, pt.RW); err != nil {
				return err
			}
			proc := c.K.PM.Proc(c.K.PM.Thrd(init).OwningProc)
			for i := 0; i < 25; i++ {
				if err := proc.PageTable.CheckRefinement(c.K.Machine.MMU); err != nil {
					return err
				}
			}
			return nil
		}},
		Obligation{Name: "page_table::structure", Module: "page_table", Run: func() error {
			c, init, err := preparedKernel()
			if err != nil {
				return err
			}
			if _, err := c.Mmap(0, init, 0x40000000, 64, hw.Size4K, pt.RW); err != nil {
				return err
			}
			proc := c.K.PM.Proc(c.K.PM.Thrd(init).OwningProc)
			var seen mem.PageSet
			for i := 0; i < 50; i++ {
				if err := proc.PageTable.CheckStructure(&seen); err != nil {
					return err
				}
			}
			return nil
		}},
	)

	// --- process manager ---------------------------------------------------
	obls = append(obls,
		syscallObligation("new_container", "process_manager", 10, func(c *Checker, init pm.Ptr, i int) error {
			return expectOK(c.NewContainer(0, init, 5, []int{0}))
		}),
		syscallObligation("new_proc", "process_manager", 10, func(c *Checker, init pm.Ptr, i int) error {
			return expectOK(c.NewProcess(0, init))
		}),
		syscallObligation("new_thread", "process_manager", 10, func(c *Checker, init pm.Ptr, i int) error {
			return expectOK(c.NewThreadIn(0, init, c.K.PM.Thrd(init).OwningProc, 0))
		}),
		syscallObligation("new_endpoint", "process_manager", 10, func(c *Checker, init pm.Ptr, i int) error {
			for s, e := range c.K.PM.Thrd(init).Endpoints {
				if e == pm.NoEndpoint {
					return expectOK(c.NewEndpoint(0, init, s))
				}
			}
			return fmt.Errorf("no free descriptor slot")
		}),
		syscallObligation("exit_thread", "process_manager", 8, func(c *Checker, init pm.Ptr, i int) error {
			r, err := c.NewThreadIn(0, init, c.K.PM.Thrd(init).OwningProc, 0)
			if err != nil {
				return err
			}
			return expectOK(c.ExitThread(0, pm.Ptr(r.Vals[0])))
		}),
		syscallObligation("kill_container", "process_manager", 6, func(c *Checker, init pm.Ptr, i int) error {
			r, err := c.NewContainer(0, init, 20, []int{0})
			if err != nil {
				return err
			}
			rp, err := c.NewProcessIn(0, init, pm.Ptr(r.Vals[0]))
			if err != nil {
				return err
			}
			if _, err := c.NewThreadIn(0, init, pm.Ptr(rp.Vals[0]), 0); err != nil {
				return err
			}
			return expectOK(c.KillContainer(0, init, pm.Ptr(r.Vals[0])))
		}),
		syscallObligation("kill_proc", "process_manager", 8, func(c *Checker, init pm.Ptr, i int) error {
			r, err := c.NewProcess(0, init)
			if err != nil {
				return err
			}
			return expectOK(c.KillProcess(0, init, pm.Ptr(r.Vals[0])))
		}),
		syscallObligation("container_tree_wf", "process_manager", 60, func(c *Checker, init pm.Ptr, i int) error {
			return ContainerTreeWF(c.K)
		}),
		syscallObligation("threads_wf", "process_manager", 80, func(c *Checker, init pm.Ptr, i int) error {
			return ThreadsWF(c.K)
		}),
		syscallObligation("quota_wf", "process_manager", 60, func(c *Checker, init pm.Ptr, i int) error {
			return QuotaWF(c.K)
		}),
	)

	// --- IPC -----------------------------------------------------------------
	obls = append(obls,
		Obligation{Name: "endpoint_send_recv", Module: "ipc", Run: ipcObligation(false, 12)},
		Obligation{Name: "endpoint_call_reply", Module: "ipc", Run: ipcObligation(true, 12)},
		syscallObligation("endpoints_wf", "ipc", 80, func(c *Checker, init pm.Ptr, i int) error {
			return EndpointsWF(c.K)
		}),
		syscallObligation("scheduler_wf", "ipc", 80, func(c *Checker, init pm.Ptr, i int) error {
			return SchedulerWF(c.K)
		}),
		syscallObligation("syscall_yield", "ipc", 20, func(c *Checker, init pm.Ptr, i int) error {
			return expectOK(c.Yield(0, init))
		}),
	)

	// --- IOMMU -----------------------------------------------------------------
	obls = append(obls,
		syscallObligation("iommu_map_unmap", "iommu", 8, func(c *Checker, init pm.Ptr, i int) error {
			if i == 0 {
				if err := expectOK(c.IommuCreateDomain(0, init)); err != nil {
					return err
				}
			}
			va := hw.VirtAddr(0x50000000 + i*hw.PageSize4K)
			if err := expectOK(c.Mmap(0, init, va, 1, hw.Size4K, pt.RW)); err != nil {
				return err
			}
			if err := expectOK(c.IommuMap(0, init, va)); err != nil {
				return err
			}
			return expectOK(c.IommuUnmap(0, init, va))
		}),
	)

	// --- interrupts & revocation extensions --------------------------------
	obls = append(obls,
		syscallObligation("irq_register_wait", "ipc", 8, func(c *Checker, init pm.Ptr, i int) error {
			if i == 0 {
				th := c.K.PM.Thrd(init)
				slot := -1
				for s, e := range th.Endpoints {
					if e == pm.NoEndpoint {
						slot = s
						break
					}
				}
				if err := expectOK(c.NewEndpoint(0, init, slot)); err != nil {
					return err
				}
				if err := expectOK(c.IrqRegister(0, init, 40, slot)); err != nil {
					return err
				}
			}
			if err := c.RaiseIRQ(0, 40); err != nil {
				return err
			}
			return expectOK(c.IrqWait(0, init, 40))
		}),
		syscallObligation("kill_container_bounded", "process_manager", 3, func(c *Checker, init pm.Ptr, i int) error {
			r, err := c.NewContainer(0, init, 25, []int{0})
			if err != nil {
				return err
			}
			rp, err := c.NewProcessIn(0, init, pm.Ptr(r.Vals[0]))
			if err != nil {
				return err
			}
			rt, err := c.NewThreadIn(0, init, pm.Ptr(rp.Vals[0]), 0)
			if err != nil {
				return err
			}
			if _, err := c.Mmap(0, pm.Ptr(rt.Vals[0]), 0x700000, 4, hw.Size4K, pt.RW); err != nil {
				return err
			}
			for {
				kr, err := c.KillContainerBounded(0, init, pm.Ptr(r.Vals[0]), 2)
				if err != nil {
					return err
				}
				if kr.Errno == kernel.OK {
					return nil
				}
				if kr.Errno != kernel.EAGAIN {
					return fmt.Errorf("bounded kill: %v", kr.Errno)
				}
			}
		}),
		syscallObligation("close_endpoint", "ipc", 10, func(c *Checker, init pm.Ptr, i int) error {
			th := c.K.PM.Thrd(init)
			slot := -1
			for s, e := range th.Endpoints {
				if e == pm.NoEndpoint {
					slot = s
					break
				}
			}
			if err := expectOK(c.NewEndpoint(0, init, slot)); err != nil {
				return err
			}
			return expectOK(c.CloseEndpoint(0, init, slot))
		}),
	)
	return obls
}

// ptObligation maps and optionally unmaps pages on a dedicated table,
// with per-step structure and refinement checks.
func ptObligation(n int, size hw.PageSize, unmap bool) error {
	c, init, err := preparedKernel()
	if err != nil {
		return err
	}
	c.SkipWF = true
	step := size.Bytes()
	for i := 0; i < n; i++ {
		va := hw.VirtAddr(0x80000000 + uint64(i)*step)
		if size == hw.Size2M {
			if _, err := c.K.Alloc.Merge2M(); err != nil {
				break // fragmented: fine, the obligation covered the merges that fit
			}
		}
		r, err := c.Mmap(0, init, va, 1, size, pt.RW)
		if err != nil {
			return err
		}
		if r.Errno != kernel.OK {
			break
		}
		if unmap {
			if _, err := c.Munmap(0, init, va, 1, size); err != nil {
				return err
			}
		}
	}
	proc := c.K.PM.Proc(c.K.PM.Thrd(init).OwningProc)
	if err := proc.PageTable.CheckStructure(nil); err != nil {
		return err
	}
	return proc.PageTable.CheckRefinement(c.K.Machine.MMU)
}

// ipcObligation builds a client/server pair and replays checked
// rendezvous.
func ipcObligation(callReply bool, iters int) func() error {
	return func() error {
		c, init, err := preparedKernel()
		if err != nil {
			return err
		}
		c.SkipWF = false
		r, err := c.NewThreadIn(0, init, c.K.PM.Thrd(init).OwningProc, 0)
		if err != nil {
			return err
		}
		server := pm.Ptr(r.Vals[0])
		re, err := c.NewEndpoint(0, init, 1)
		if err != nil {
			return err
		}
		if err := c.InstallEndpoint(server, 1, pm.Ptr(re.Vals[0])); err != nil {
			return err
		}
		if callReply {
			// The Table 3 server loop: one initial receive, then the
			// checked call/reply_recv fastpath per round.
			if err := expectOK(c.Recv(0, server, 1, kernel.RecvArgs{EdptSlot: -1})); err != nil {
				return err
			}
			for i := 0; i < iters; i++ {
				if err := expectOK(c.Call(0, init, 1, kernel.SendArgs{Regs: [4]uint64{uint64(i)}})); err != nil {
					return err
				}
				if err := expectOK(c.ReplyRecv(0, server, 1, kernel.SendArgs{}, kernel.RecvArgs{EdptSlot: -1})); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < iters; i++ {
			if err := expectOK(c.Recv(0, server, 1, kernel.RecvArgs{EdptSlot: -1})); err != nil {
				return err
			}
			if err := expectOK(c.Send(0, init, 1, kernel.SendArgs{Regs: [4]uint64{uint64(i)}})); err != nil {
				return err
			}
		}
		return nil
	}
}

// AblationObligations pairs each structural obligation's flat and
// recursive forms for the §6.2 comparison.
func AblationObligations() (flat, recursive []Obligation) {
	// Scenarios are built once, outside the timed obligations, so the
	// measured region is exactly the obligation discharge; the checks
	// are read-only, so flat and recursive share the fixtures.
	mkTree := func() (*kernel.Kernel, error) {
		k, init, err := kernel.Boot(hw.Config{Frames: 16384, Cores: 2, TLBSlots: 64})
		if err != nil {
			return nil, err
		}
		// Breadth-first 3-ary tree; each child inherits a third of the
		// parent quota (minus local overhead) so the tree genuinely
		// reaches hundreds of containers.
		type node struct {
			ptr   pm.Ptr
			quota uint64
		}
		r := k.SysNewContainer(0, init, 12000, []int{0})
		if r.Errno != kernel.OK {
			return nil, fmt.Errorf("ablation: root child: %v", r.Errno)
		}
		frontier := []node{{pm.Ptr(r.Vals[0]), 12000}}
		for len(k.PM.CntrPerms) < 400 && len(frontier) > 0 {
			parent := frontier[0]
			frontier = frontier[1:]
			rp := k.SysNewProcessIn(0, init, parent.ptr)
			if rp.Errno != kernel.OK {
				continue
			}
			rt := k.SysNewThreadIn(0, init, pm.Ptr(rp.Vals[0]), 0)
			if rt.Errno != kernel.OK {
				continue
			}
			child := pm.Ptr(rt.Vals[0])
			childQuota := (parent.quota - 8) / 3
			if childQuota < 4 {
				continue
			}
			for i := 0; i < 3; i++ {
				rc := k.SysNewContainer(0, child, childQuota, []int{0})
				if rc.Errno == kernel.OK {
					frontier = append(frontier, node{pm.Ptr(rc.Vals[0]), childQuota})
				}
			}
		}
		if len(k.PM.CntrPerms) < 100 {
			return nil, fmt.Errorf("ablation: tree only reached %d containers", len(k.PM.CntrPerms))
		}
		return k, nil
	}
	mkPT := func() (*kernel.Kernel, *pt.PageTable, error) {
		k, init, err := kernel.Boot(hw.Config{Frames: 16384, Cores: 2, TLBSlots: 64})
		if err != nil {
			return nil, nil, err
		}
		// A dense region, as the NrOS map_frame comparison uses: the
		// check cost is then dominated by per-entry reasoning, where
		// the recursive style pays once per PML level.
		if r := k.SysMmap(0, init, 0x40000000, 4096, hw.Size4K, pt.RW); r.Errno != kernel.OK {
			return nil, nil, fmt.Errorf("ablation: mmap: %v", r.Errno)
		}
		return k, k.PM.Proc(k.PM.Thrd(init).OwningProc).PageTable, nil
	}
	// Fixtures are built eagerly, before any obligation is timed, and
	// shared read-only between the flat and recursive variants.
	treeK, buildErr := mkTree()
	var ptK *kernel.Kernel
	var ptTable *pt.PageTable
	if buildErr == nil {
		ptK, ptTable, buildErr = mkPT()
	}
	runtime.GC() // settle fixture allocations before anything is timed
	guard := func(f func() error) func() error {
		return func() error {
			if buildErr != nil {
				return buildErr
			}
			return f()
		}
	}
	flat = []Obligation{
		{Name: "container_tree_wf(flat)", Module: "ablation", Run: guard(func() error {
			for i := 0; i < 100; i++ {
				if err := ContainerTreeWF(treeK); err != nil {
					return err
				}
			}
			return nil
		})},
		{Name: "pt_refinement(flat)", Module: "ablation", Run: guard(func() error {
			for i := 0; i < 40; i++ {
				if err := ptTable.CheckRefinement(ptK.Machine.MMU); err != nil {
					return err
				}
			}
			return nil
		})},
	}
	recursive = []Obligation{
		{Name: "container_tree_wf(recursive)", Module: "ablation", Run: guard(func() error {
			for i := 0; i < 100; i++ {
				if err := ContainerTreeWFRecursive(treeK); err != nil {
					return err
				}
			}
			return nil
		})},
		{Name: "pt_refinement(recursive)", Module: "ablation", Run: guard(func() error {
			for i := 0; i < 40; i++ {
				if err := PTRefinementRecursive(ptTable, ptK.Machine.MMU); err != nil {
					return err
				}
			}
			return nil
		})},
	}
	return flat, recursive
}

// RunObligations discharges every obligation with the given worker count
// and returns per-obligation timings plus the wall-clock total — the
// Figure 2 series (workers=1 per function) and the Table 2 totals
// (workers 1 and 8).
func RunObligations(obls []Obligation, workers int) ([]Timing, time.Duration, error) {
	if workers < 1 {
		workers = 1
	}
	timings := make([]Timing, len(obls))
	errs := make([]error, len(obls))
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	start := time.Now()
	for i := range obls {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			t0 := time.Now()
			errs[i] = obls[i].Run()
			timings[i] = Timing{Name: obls[i].Name, Module: obls[i].Module, Elapsed: time.Since(t0)}
		}(i)
	}
	wg.Wait()
	total := time.Since(start)
	for i, err := range errs {
		if err != nil {
			return timings, total, fmt.Errorf("obligation %s: %w", obls[i].Name, err)
		}
	}
	sort.Slice(timings, func(i, j int) bool { return timings[i].Elapsed > timings[j].Elapsed })
	return timings, total, nil
}
