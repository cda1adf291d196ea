package perf

import (
	"fmt"

	"atmosphere/internal/hw"
	"atmosphere/internal/kernel"
	"atmosphere/internal/pm"
	"atmosphere/internal/pt"
)

var sharedAlloc = &workload{
	name: "shared-alloc",
	why: "all cores map, touch and unmap pages in one shared container: lock wait, allocator and page caches, " +
		"zeroing and page tables dominate (why alloc and kvstore flatten)",
	length: 110_000, // iterations per core
	setup:  setupSharedAlloc,
}

// Each core maps allocWindow fresh pages, then unmaps them in the same
// order — each munmap hits the page mapped allocWindow iterations
// earlier — and repeats. A core's page cache refills when empty and
// drains above two batches, so the window is three batches: every cycle
// then crosses both thresholds. (At exactly two batches the cache level
// would swing between empty and the drain threshold without ever
// crossing either.)
const (
	allocWindow = 3 * mcBatch
	allocYield  = 8 // iterations between yields
	allocVABase = 0x4000_0000
	allocVAStep = 0x1000_0000 // per-core VA region stride
)

func allocVA(c, first, slot int) hw.VirtAddr {
	return hw.VirtAddr(allocVABase + c*allocVAStep + (first+slot)*hw.PageSize4K)
}

// setupSharedAlloc starts one worker thread per core in the root
// container.
func setupSharedAlloc(seed uint64, length int, tr *tracing) (phase, error) {
	m, err := bootMachine(tr)
	if err != nil {
		return nil, err
	}
	workers := make([]pm.Ptr, mcCores)
	for c := range workers {
		r := m.k.SysNewThread(0, m.init, c)
		if r.Errno != kernel.OK {
			return nil, fmt.Errorf("core %d thread: %v", c, r.Errno)
		}
		workers[c] = pm.Ptr(r.Vals[0])
	}
	proc := m.k.PM.Proc(m.k.PM.Thrd(workers[0]).OwningProc)
	// Cores start evenly staggered across the map/unmap cycle. The seed
	// places each core's window inside its 2 MiB page-table span (a
	// window straddling a span boundary needs a second table page) and
	// picks the word each touch writes.
	offset := make([]int, mcCores)
	first := make([]int, mcCores)
	for c := range offset {
		offset[c] = c * 2 * allocWindow / mcCores
		first[c] = int(mix64(seed^uint64(c)) % 512)
	}
	pattern := mix64(seed ^ 0x746f756368)
	lat := make([]uint64, 0, length*mcCores*9/8)
	mmapLat := make([]uint64, 0, length*mcCores/2+mcCores*allocWindow)
	return func() (*outcome, error) {
		o := newOutcome()
		var mmap, munmap, yield sysAcc
		m.begin("mmap", "munmap", "yield")
		mem := m.k.Machine.Mem
		for i := 0; i < length; i++ {
			for c, tid := range workers {
				n := offset[c] + i
				va := allocVA(c, first[c], n%allocWindow)
				if (n/allocWindow)%2 == 0 {
					s := m.enter(c)
					r := m.k.SysMmap(c, tid, va, 1, hw.Size4K, pt.RW)
					d := m.leave(c, s, &mmap)
					lat = append(lat, d)
					mmapLat = append(mmapLat, d)
					o.ops++
					if r.Errno != kernel.OK {
						return nil, fmt.Errorf("core %d iteration %d: mmap: %v", c, i, r.Errno)
					}
					// Touch the page through its mapping: a fresh page
					// reads zero, and a written word reads back.
					e, ok := proc.PageTable.Lookup(va)
					if !ok {
						return nil, fmt.Errorf("core %d iteration %d: mapped page missing", c, i)
					}
					word := pattern ^ uint64(n)
					zero := mem.ReadU64(e.Phys) == 0
					mem.WriteU64(e.Phys, word)
					if !zero || mem.ReadU64(e.Phys) != word {
						o.failed++
					}
					m.clock(c).Charge(hw.CostCacheTouch)
				} else if n >= offset[c]+allocWindow {
					// Unmap the page mapped allocWindow iterations ago; a
					// core that started mid-unmap has none yet.
					s := m.enter(c)
					r := m.k.SysMunmap(c, tid, va, 1, hw.Size4K)
					lat = append(lat, m.leave(c, s, &munmap))
					o.ops++
					if r.Errno != kernel.OK {
						return nil, fmt.Errorf("core %d iteration %d: munmap: %v", c, i, r.Errno)
					}
				}
				if i%allocYield == allocYield-1 {
					s := m.enter(c)
					r := m.k.SysYield(c, tid)
					lat = append(lat, m.leave(c, s, &yield))
					o.ops++
					if r.Errno != kernel.OK {
						return nil, fmt.Errorf("core %d iteration %d: yield: %v", c, i, r.Errno)
					}
				}
			}
			m.poll()
		}
		named := map[string]*sysAcc{"mmap": &mmap, "munmap": &munmap, "yield": &yield}
		if err := m.finish(o, named); err != nil {
			return nil, err
		}
		latencyMetrics(o.sim, lat)
		o.sim["kernel.mmap_cycles"] = mmap.mean()
		o.sim["kernel.munmap_cycles"] = munmap.mean()
		o.sim["kernel.yield_cycles"] = yield.mean()
		o.sim["kernel.mmap_p99_cycles"] = float64(sortedQuantile(mmapLat, 0.99))
		return o, nil
	}, nil
}
