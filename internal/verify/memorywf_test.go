package verify

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"atmosphere/internal/hw"
	"atmosphere/internal/iommu"
	"atmosphere/internal/kernel"
	"atmosphere/internal/mem"
	"atmosphere/internal/pm"
	"atmosphere/internal/pt"
)

// warm is a kernel whose memory state reaches every part of MemoryWF.
type warm struct {
	k     *kernel.Kernel
	init  pm.Ptr
	procs []pm.Ptr // init's process first
	ep    pm.Ptr   // init's slot-0 endpoint, holding one granted page
}

// warmKernel boots a kernel with per-core page caches and builds, on
// three cores, three processes with 83 user mappings between them and
// frames parked in every cache, a page granted into an endpoint buffer,
// and an IOMMU domain mapping one user page. It passes TotalWF.
func warmKernel(t *testing.T) warm {
	t.Helper()
	k, init, err := kernel.Boot(cfg())
	if err != nil {
		t.Fatal(err)
	}
	k.EnableCoreCaches(4)
	must := func(r kernel.Ret) kernel.Ret {
		t.Helper()
		if r.Errno != kernel.OK {
			t.Fatalf("warm-up syscall failed: %v", r.Errno)
		}
		return r
	}
	w := warm{k: k, init: init, procs: []pm.Ptr{k.PM.Thrd(init).OwningProc}}
	threads := []pm.Ptr{init}
	for core := 1; core <= 2; core++ {
		proc := pm.Ptr(must(k.SysNewProcess(0, init)).Vals[0])
		threads = append(threads, pm.Ptr(must(k.SysNewThreadIn(0, init, proc, core)).Vals[0]))
		w.procs = append(w.procs, proc)
	}
	for i, th := range threads {
		core := k.PM.Thrd(th).Core
		n := 40 - 8*i
		must(k.SysMmap(core, th, 0x400000, n, hw.Size4K, pt.RW))
		// Unmapping the last four parks their frames in the core's cache.
		must(k.SysMunmap(core, th, 0x400000+hw.VirtAddr(n-4)*hw.PageSize4K, 4, hw.Size4K))
	}
	w.ep = pm.Ptr(must(k.SysNewEndpoint(0, init, 0)).Vals[0])
	must(k.SysSendAsync(0, init, 0, kernel.SendArgs{GrantPage: true, PageVA: 0x401000}))
	must(k.SysIommuCreateDomain(0, init))
	must(k.SysIommuMap(0, init, 0x402000))
	if err := TotalWF(k); err != nil {
		t.Fatalf("warm kernel ill-formed: %v", err)
	}
	return w
}

// pageMetas returns the allocator's page metadata array itself, so a
// test can plant the faults the allocator's API never produces.
func pageMetas(a *mem.Allocator) []mem.PageMeta {
	f := reflect.ValueOf(a).Elem().FieldByName("pages")
	return *(*[]mem.PageMeta)(unsafe.Pointer(f.UnsafeAddr()))
}

// freeFrame returns the lowest free 4 KiB frame linked on both sides.
func freeFrame(t *testing.T, a *mem.Allocator) int {
	t.Helper()
	for i, pg := range pageMetas(a) {
		if pg.State == mem.StateFree && pg.Size == mem.Size4K && pg.Prev >= 0 && pg.Next >= 0 {
			return i
		}
	}
	t.Fatal("no interior free 4 KiB frame")
	return 0
}

// firstMapping returns the frame behind proc's lowest mapped address.
func firstMapping(t *testing.T, k *kernel.Kernel, proc pm.Ptr) hw.PhysAddr {
	t.Helper()
	e, ok := k.PM.Proc(proc).PageTable.Lookup(0x400000)
	if !ok {
		t.Fatalf("process %#x maps nothing at 0x400000", proc)
	}
	return e.Phys
}

// leafSlot returns the physical address of the 4 KiB leaf entry that
// maps va in table.
func leafSlot(k *kernel.Kernel, table *pt.PageTable, va hw.VirtAddr) hw.PhysAddr {
	m := k.Machine.Mem
	next := func(node hw.PhysAddr, i int) hw.PhysAddr {
		return hw.PhysAddr(m.ReadU64(node+hw.PhysAddr(i*hw.PtrSize)) & hw.PteAddrMask)
	}
	l1 := next(next(next(table.CR3(), hw.L4Index(va)), hw.L3Index(va)), hw.L2Index(va))
	return l1 + hw.PhysAddr(hw.L1Index(va)*hw.PtrSize)
}

// TestMemoryWFPlantedFaults plants one fault per MemoryWF predicate on a
// warm kernel and pins the exact report. Each row's message is the one
// the check produced before it became a single frame walk, except that
// hidden mappings are reported at the lowest of their addresses, where
// the refinement check once reported only a count mismatch. Pairwise
// disjointness has no message of its own: every page carries one owner,
// so a page two subsystems claim already fails the closure check of the
// one that does not own it.
func TestMemoryWFPlantedFaults(t *testing.T) {
	for _, row := range []struct {
		name  string
		plant func(t *testing.T, w warm) string
	}{
		{"page-state cover", func(t *testing.T, w warm) string {
			pageMetas(w.k.Alloc)[0].State = mem.PageState(9)
			return "page states cover 4095 of 4096 frames"
		}},
		{"4K free list", func(t *testing.T, w warm) string {
			pages := pageMetas(w.k.Alloc)
			i := freeFrame(t, w.k.Alloc)
			pages[pages[i].Prev].Next = pages[i].Next // unlinked, still free
			return "4K free list disagrees with page states"
		}},
		{"2M free list", func(t *testing.T, w warm) string {
			p, err := w.k.Alloc.Merge2M()
			if err != nil {
				t.Fatal(err)
			}
			if err := MemoryWF(w.k); err != nil {
				t.Fatalf("merge left memory ill-formed: %v", err)
			}
			i := int32(p / hw.PageSize4K)
			pageMetas(w.k.Alloc)[i].Next = i // a cycle
			return "2M free list disagrees with page states"
		}},
		{"process-manager closure", func(t *testing.T, w warm) string {
			if _, err := w.k.Alloc.AllocPage4K(mem.OwnerProcessMgr); err != nil {
				t.Fatal(err)
			}
			return "process-manager closure 8 pages, allocator says 9"
		}},
		{"process-manager closure swap", func(t *testing.T, w warm) string {
			// A free frame stands in for the endpoint's page: the closure
			// keeps its size but names one page the allocator does not
			// give the process manager.
			free := w.k.Machine.Mem.FrameAddr(freeFrame(t, w.k.Alloc))
			w.k.PM.EdptPerms[free] = w.k.PM.EdptPerms[w.ep]
			delete(w.k.PM.EdptPerms, w.ep)
			return "process-manager closure 8 pages, allocator says 8"
		}},
		{"page-table closure", func(t *testing.T, w warm) string {
			if _, err := w.k.Alloc.AllocPage4K(mem.OwnerPageTable); err != nil {
				t.Fatal(err)
			}
			return "page-table closure 12 pages, allocator says 13"
		}},
		{"iommu closure", func(t *testing.T, w warm) string {
			if _, err := w.k.Alloc.AllocPage4K(mem.OwnerIOMMU); err != nil {
				t.Fatal(err)
			}
			return "iommu closure disagrees with allocator"
		}},
		{"page-cache closure", func(t *testing.T, w warm) string {
			if _, err := w.k.Alloc.MoveFreeToCache(); err != nil {
				t.Fatal(err)
			}
			return "page-cache closure 12 pages, allocator says 13"
		}},
		{"page-table overlap", func(t *testing.T, w warm) string {
			lo, hi := min(w.procs[1], w.procs[2]), max(w.procs[1], w.procs[2])
			w.k.PM.Proc(hi).PageTable = w.k.PM.Proc(lo).PageTable
			return fmt.Sprintf("page-table closure of %#x overlaps another", hi)
		}},
		{"pairwise disjointness", func(t *testing.T, w warm) string {
			// The process manager claims init's root table page.
			cr3 := w.k.PM.Proc(w.procs[0]).PageTable.CR3()
			w.k.PM.EdptPerms[cr3] = w.k.PM.EdptPerms[w.ep]
			return "process-manager closure 9 pages, allocator says 8"
		}},
		{"closures cover allocated", func(t *testing.T, w warm) string {
			if _, err := w.k.Alloc.AllocPage4K(mem.OwnerUser); err != nil {
				t.Fatal(err)
			}
			return "closures cover 37 pages, allocated set has 38"
		}},
		{"refcount", func(t *testing.T, w warm) string {
			p := firstMapping(t, w.k, w.procs[1])
			if err := w.k.Alloc.IncRef(p); err != nil {
				t.Fatal(err)
			}
			return fmt.Sprintf("mapped page %#x refcount 2, references 1", p)
		}},
		{"referenced page not mapped", func(t *testing.T, w warm) string {
			e := w.k.PM.EdptPerms[w.ep]
			e.Buffer = append(e.Buffer, pm.Msg{HasPage: true, PageSize: hw.Size4K,
				Page: w.k.Machine.Mem.FrameAddr(freeFrame(t, w.k.Alloc))})
			return "1 referenced pages not in mapped state"
		}},
		{"page-table structure", func(t *testing.T, w warm) string {
			proc := w.procs[0]
			cr3 := w.k.PM.Proc(proc).PageTable.CR3()
			stray := w.k.Machine.Mem.FrameAddr(freeFrame(t, w.k.Alloc))
			w.k.Machine.Mem.WriteU64(cr3+511*hw.PtrSize, uint64(stray)|hw.PtePresent|hw.PteWritable|hw.PteUser)
			return fmt.Sprintf("process %#x: pt: reachable node %#x not in flat node set", proc, stray)
		}},
		{"page-table refinement", func(t *testing.T, w warm) string {
			proc := w.procs[2]
			slot := leafSlot(w.k, w.k.PM.Proc(proc).PageTable, 0x400000)
			w.k.Machine.Mem.WriteU64(slot, w.k.Machine.Mem.ReadU64(slot)^hw.PteWritable)
			return fmt.Sprintf("process %#x: pt: 0x400000 permission mismatch: "+
				"hw={Phys:%d Size:4KiB Writable:false User:true NX:true} ghost={Write:true User:true Exec:false}",
				proc, firstMapping(t, w.k, proc))
		}},
		{"page-table hidden mappings", func(t *testing.T, w warm) string {
			// Two leaves the ghost maps do not hold, planted highest
			// first, each a copy of a live one.
			proc := w.procs[2]
			table := w.k.PM.Proc(proc).PageTable
			leaf := w.k.Machine.Mem.ReadU64(leafSlot(w.k, table, 0x400000))
			for _, va := range []hw.VirtAddr{0x500000, 0x480000} {
				w.k.Machine.Mem.WriteU64(leafSlot(w.k, table, va), leaf)
			}
			return fmt.Sprintf("process %#x: pt: concrete mapping 0x480000 missing from abstract state", proc)
		}},
		{"iommu", func(t *testing.T, w warm) string {
			id := w.k.PM.Proc(w.procs[0]).IOMMUDomain
			if err := w.k.IOMMU.AttachDevice(7, id); err != nil {
				t.Fatal(err)
			}
			delete(w.k.IOMMU.Domains()[iommu.DomainID(id)].Devices, 7)
			return "iommu: context/domain device sets disagree for 7"
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			w := warmKernel(t)
			want := row.plant(t, w)
			err := MemoryWF(w.k)
			if err == nil {
				t.Fatal("planted fault not caught")
			}
			if err.Error() != want {
				t.Fatalf("MemoryWF = %q\n                want %q", err, want)
			}
		})
	}
}

// TestMemoryWFNamesLowestCorruptProcess corrupts two processes' page
// tables and requires every report to name the lower process pointer,
// for both per-process loops: the page-table closure overlap check and
// the per-table structure and refinement check.
func TestMemoryWFNamesLowestCorruptProcess(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(w warm, lo, hi pm.Ptr)
		prefix  string // the report's start, naming lo
	}{
		{"refinement", func(w warm, lo, hi pm.Ptr) {
			for _, p := range []pm.Ptr{hi, lo} {
				slot := leafSlot(w.k, w.k.PM.Proc(p).PageTable, 0x400000)
				w.k.Machine.Mem.WriteU64(slot, w.k.Machine.Mem.ReadU64(slot)^hw.PteWritable)
			}
		}, "process %#x: "},
		{"overlap", func(w warm, lo, hi pm.Ptr) {
			// Both share init's table, which is visited first: the lower
			// is the first to overlap a table already visited.
			shared := w.k.PM.Proc(w.procs[0]).PageTable
			w.k.PM.Proc(hi).PageTable = shared
			w.k.PM.Proc(lo).PageTable = shared
		}, "page-table closure of %#x overlaps another"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for run := 0; run < 20; run++ {
				w := warmKernel(t)
				lo, hi := min(w.procs[1], w.procs[2]), max(w.procs[1], w.procs[2])
				if w.procs[0] > lo {
					t.Fatalf("init's process %#x is not the lowest", w.procs[0])
				}
				tc.corrupt(w, lo, hi)
				err := MemoryWF(w.k)
				if err == nil {
					t.Fatal("corruption not caught")
				}
				if want := fmt.Sprintf(tc.prefix, lo); !strings.HasPrefix(err.Error(), want) {
					t.Fatalf("run %d: MemoryWF = %q, want it to start %q", run, err, want)
				}
			}
		})
	}
}

// TestFreeListIs walks a free list against a count: an intact list
// passes, and one that runs short, runs long, lists a frame in another
// state, cycles, or ends before its recorded tail fails, without
// looping.
func TestFreeListIs(t *testing.T) {
	k, _, err := kernel.Boot(cfg())
	if err != nil {
		t.Fatal(err)
	}
	a, n := k.Alloc, k.Alloc.FreeCount4K()
	if !freeListIs(a, mem.Size4K, n) || !freeListIs(a, mem.Size2M, 0) {
		t.Fatal("intact free lists rejected")
	}
	if freeListIs(a, mem.Size4K, n+1) {
		t.Fatal("list shorter than the count accepted")
	}
	if freeListIs(a, mem.Size4K, n-1) {
		t.Fatal("list longer than the count accepted")
	}
	pages := pageMetas(a)
	head := a.FreeListHead(mem.Size4K)
	second := pages[head].Next
	pages[second].State = mem.StateAllocated
	if freeListIs(a, mem.Size4K, n) {
		t.Fatal("listed allocated frame accepted")
	}
	pages[second].State = mem.StateFree
	// Splice the list into a cycle: its second node points back to the
	// head.
	saved := pages[second].Next
	pages[second].Next = int32(head)
	if freeListIs(a, mem.Size4K, n) {
		t.Fatal("cyclic free list accepted")
	}
	pages[second].Next = saved
	if !freeListIs(a, mem.Size4K, n) {
		t.Fatal("restored free list rejected")
	}
	// End the list one node early: the count can be made to agree, but
	// the list no longer ends at the tail the allocator records, where a
	// new chunk would be appended.
	tail := a.FreeListTail(mem.Size4K)
	prev := pages[tail].Prev
	pages[prev].Next = -1
	if freeListIs(a, mem.Size4K, n-1) {
		t.Fatal("list ending before its recorded tail accepted")
	}
	pages[prev].Next = int32(tail)
}

// TestTotalWFConcurrent runs the invariant suite on several kernels at
// once, as RunObligations does: each call must take its own scratch.
func TestTotalWFConcurrent(t *testing.T) {
	kernels := make([]*kernel.Kernel, 4)
	for i := range kernels {
		kernels[i] = warmKernel(t).k
	}
	var wg sync.WaitGroup
	for _, k := range kernels {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if err := TotalWF(k); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestOneGiBMmapOnSparseBoot runs the 1 GiB path on a 524,288-frame
// (2 GiB) boot. The low 1 GiB range holds the boot's frames, so the mmap
// merges the high one, every frame of which lies past the allocator's
// touched prefix; it maps that page and charges 262,144 pages plus the
// table nodes it adds. The munmap returns the page to the 1 GiB free
// list and credits the pages back. TotalWF holds after each.
func TestOneGiBMmapOnSparseBoot(t *testing.T) {
	k, init, err := kernel.Boot(hw.Config{Frames: 2 * hw.Pages4KPer1G, Cores: 2, TLBSlots: 64})
	if err != nil {
		t.Fatal(err)
	}
	a := k.Alloc
	if a.Touched() >= hw.Pages4KPer1G {
		t.Fatalf("boot touched %d frames, want the high 1 GiB untouched", a.Touched())
	}
	root := k.PM.Cntr(k.PM.RootContainer)
	table := k.PM.Proc(k.PM.Thrd(init).OwningProc).PageTable
	used, nodes := root.UsedPages, table.NodeCount()
	const va, head = hw.VirtAddr(hw.PageSize1G), hw.PhysAddr(hw.PageSize1G)
	if r := k.SysMmap(0, init, va, 1, hw.Size1G, pt.RW); r.Errno != kernel.OK {
		t.Fatalf("1 GiB mmap: %v", r.Errno)
	}
	if e, ok := table.Lookup(va); !ok || e.Phys != head || e.Size != hw.Size1G {
		t.Fatalf("1 GiB mmap maps %+v (%v), want the page at %#x", e, ok, head)
	}
	if m, _ := a.Meta(head); m.State != mem.StateMapped || m.Size != mem.Size1G || m.RefCount != 1 {
		t.Fatalf("1 GiB head meta %+v", m)
	}
	if m, _ := a.Meta(head + hw.PageSize1G - hw.PageSize4K); m.State != mem.StateMerged || m.Head != hw.Pages4KPer1G {
		t.Fatalf("1 GiB last constituent meta %+v", m)
	}
	added := uint64(table.NodeCount() - nodes)
	if got := root.UsedPages - used; got != hw.Pages4KPer1G+added {
		t.Fatalf("1 GiB mmap charged %d pages, want %d plus %d table nodes", got, hw.Pages4KPer1G, added)
	}
	if err := TotalWF(k); err != nil {
		t.Fatalf("after 1 GiB mmap: %v", err)
	}
	if r := k.SysMunmap(0, init, va, 1, hw.Size1G); r.Errno != kernel.OK {
		t.Fatalf("1 GiB munmap: %v", r.Errno)
	}
	if m, _ := a.Meta(head); a.FreeCount1G() != 1 || a.FreeListHead(mem.Size1G) != hw.Pages4KPer1G ||
		m.State != mem.StateFree || m.Size != mem.Size1G {
		t.Fatalf("after munmap: %d free 1 GiB pages, head meta %+v", a.FreeCount1G(), m)
	}
	if got := root.UsedPages - used; got != added {
		t.Fatalf("after munmap the container is charged %d pages, want its %d table nodes", got, added)
	}
	if err := TotalWF(k); err != nil {
		t.Fatalf("after 1 GiB munmap: %v", err)
	}
}
