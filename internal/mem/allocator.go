// Package mem implements the Atmosphere page allocator (§4.2): a
// Linux-style page metadata array with intrusive doubly-linked free
// lists at 4 KiB / 2 MiB / 1 GiB granularity, constant-time unlink via
// back pointers, superpage merge/split, and an explicit abstract state
// (Snapshot) the verifier quantifies over. Every page is in exactly one
// lifecycle state (free / mapped / merged / allocated), and every
// transition between states emits exactly one PageOp to the optional
// PageObserver — the accounting ledger's live feed — so ownership can be
// mirrored without scanning.
//
// CoreCaches (percore.go) adds per-core page-frame caches over one
// shared Allocator: the multicore fast path that takes the hot 4 KiB
// user-page allocation out from under the kernel big lock. Cached
// frames stay visible to the closure accounting as OwnerPCache.
//
// Observer contract: the PageObserver is synchronous, must never call
// back into the allocator, and is charged zero cycles — attaching one
// cannot move a benchmark number (bench.TestProbesAreFree pins this).
package mem

import (
	"errors"
	"fmt"

	"atmosphere/internal/hw"
)

// Allocation errors.
var (
	ErrOutOfMemory  = errors.New("mem: out of memory")
	ErrBadPage      = errors.New("mem: bad page pointer")
	ErrWrongState   = errors.New("mem: page in wrong state")
	ErrNotMergeable = errors.New("mem: no contiguous free range to merge")
)

// PageOp identifies one page lifecycle transition for the observer hook.
// Every transition that moves a page between the free/allocated/mapped
// states (or changes a mapped page's reference count) emits exactly one
// op, so an observer can maintain a live mirror of the page ownership
// state without ever scanning the page array.
type PageOp uint8

// Page lifecycle operations.
const (
	// OpAllocObj: a kernel-object page left the free list (AllocPage4K).
	OpAllocObj PageOp = iota
	// OpFreeObj: a kernel-object page returned to the free list (FreePage).
	OpFreeObj
	// OpAllocUser: a user page left the free list with refcount 1.
	OpAllocUser
	// OpIncRef: a mapped page gained a reference.
	OpIncRef
	// OpDecRef: a mapped page lost a reference but remains mapped.
	OpDecRef
	// OpFreeUser: a mapped page lost its last reference and was freed.
	OpFreeUser
	// OpCacheFill: a free 4 KiB page moved into a per-core page cache
	// (state allocated, owner page-cache).
	OpCacheFill
	// OpCacheAlloc: a cached page was handed out as a user mapping
	// (refcount 1) — the cache-hit allocation path.
	OpCacheAlloc
	// OpCacheFree: a user page's last mapping was released back into a
	// per-core cache instead of the global free list.
	OpCacheFree
	// OpCacheDrain: a cached page returned to the global free list.
	OpCacheDrain
)

// PageObserver receives page lifecycle events. Like the fault hook it is
// consulted synchronously under the caller's locking discipline; it must
// never call back into the allocator and must charge no cycles (the
// observability contract: attaching one cannot move a benchmark number).
type PageObserver func(op PageOp, p hw.PhysAddr, sc SizeClass)

// Allocator is the Atmosphere page allocator. Dynamic memory for kernel
// objects and user mappings is handed out at 4 KiB / 2 MiB / 1 GiB
// granularity, one object per page (§4.2). The allocator charges its
// work to the clock passed at construction so allocation cost shows up
// in every benchmark that allocates.
type Allocator struct {
	mem   *hw.PhysMem
	clock *hw.Clock
	pages []PageMeta
	// free list heads per size class, frame indices.
	head [3]int32
	// counts per size class for O(1) stats.
	freeCount [3]int
	// reserved counts frames permanently held by boot (frame 0 and the
	// kernel image).
	reserved int

	// faultHook, when set, is consulted before every allocation; a true
	// return fails the request with ErrOutOfMemory before any state is
	// touched (transient exhaustion, injected by the fault layer). The
	// failure is indistinguishable from a genuinely empty free list, so
	// every caller's ENOMEM path is exercised without corrupting state.
	faultHook func() bool

	// InjectedFailures counts allocations the hook failed.
	InjectedFailures uint64

	// observer, when set, sees every page lifecycle transition (the
	// accounting ledger's live feed). Never charged a cycle.
	observer PageObserver
}

// NewAllocator builds an allocator over all frames of mem, reserving the
// first reservedFrames frames for the boot environment (at least one, so
// that page pointer 0 is never a valid object — the kernel uses 0 as the
// null pointer, as Atmosphere does).
func NewAllocator(mem *hw.PhysMem, clock *hw.Clock, reservedFrames int) *Allocator {
	if reservedFrames < 1 {
		reservedFrames = 1
	}
	if reservedFrames > mem.Frames() {
		panic("mem: reserving more frames than exist")
	}
	a := &Allocator{
		mem:      mem,
		clock:    clock,
		pages:    make([]PageMeta, mem.Frames()),
		head:     [3]int32{nilIdx, nilIdx, nilIdx},
		reserved: reservedFrames,
	}
	for i := range a.pages {
		a.pages[i] = PageMeta{State: StateAllocated, Owner: OwnerBoot, Size: Size4K, Head: nilIdx, Prev: nilIdx, Next: nilIdx}
	}
	// Free everything above the reservation, highest first so the free
	// list pops low addresses first (deterministic, cache-friendly).
	for i := mem.Frames() - 1; i >= reservedFrames; i-- {
		a.pages[i].State = StateFree
		a.pages[i].Owner = OwnerNone
		a.pushFree(Size4K, int32(i))
	}
	return a
}

// Mem returns the physical memory the allocator manages.
func (a *Allocator) Mem() *hw.PhysMem { return a.mem }

// SetFaultHook installs (or, with nil, removes) the transient
// exhaustion hook.
func (a *Allocator) SetFaultHook(h func() bool) { a.faultHook = h }

// SetObserver installs (or, with nil, removes) the page lifecycle
// observer.
func (a *Allocator) SetObserver(ob PageObserver) { a.observer = ob }

// observe emits one lifecycle event if an observer is installed.
func (a *Allocator) observe(op PageOp, p hw.PhysAddr, sc SizeClass) {
	if a.observer != nil {
		a.observer(op, p, sc)
	}
}

// injectFail reports whether this allocation should fail transiently.
func (a *Allocator) injectFail() bool {
	if a.faultHook != nil && a.faultHook() {
		a.InjectedFailures++
		return true
	}
	return false
}

// Frames returns the number of managed frames.
func (a *Allocator) Frames() int { return len(a.pages) }

// FreeCount4K returns the number of free 4 KiB pages.
func (a *Allocator) FreeCount4K() int { return a.freeCount[Size4K] }

// FreeCount2M returns the number of free 2 MiB superpages.
func (a *Allocator) FreeCount2M() int { return a.freeCount[Size2M] }

// FreeCount1G returns the number of free 1 GiB superpages.
func (a *Allocator) FreeCount1G() int { return a.freeCount[Size1G] }

func (a *Allocator) idx(p hw.PhysAddr) (int32, error) {
	if uint64(p)%hw.PageSize4K != 0 || !a.mem.Contains(p, hw.PageSize4K) {
		return 0, fmt.Errorf("%w: %#x", ErrBadPage, p)
	}
	return int32(uint64(p) / hw.PageSize4K), nil
}

// Meta returns a copy of the metadata for page p (for the verifier and
// tests; mutation goes through the allocator API only).
func (a *Allocator) Meta(p hw.PhysAddr) (PageMeta, error) {
	i, err := a.idx(p)
	if err != nil {
		return PageMeta{}, err
	}
	return a.pages[i], nil
}

// --- intrusive free lists -------------------------------------------------

func (a *Allocator) pushFree(sc SizeClass, i int32) {
	pg := &a.pages[i]
	pg.Size = sc
	pg.Prev = nilIdx
	pg.Next = a.head[sc]
	if a.head[sc] != nilIdx {
		a.pages[a.head[sc]].Prev = i
	}
	a.head[sc] = i
	a.freeCount[sc]++
}

// unlinkFree removes page i from its free list in constant time using the
// back pointer stored in the metadata array — the optimization the paper
// calls out for superpage merging.
func (a *Allocator) unlinkFree(sc SizeClass, i int32) {
	pg := &a.pages[i]
	if pg.Prev != nilIdx {
		a.pages[pg.Prev].Next = pg.Next
	} else {
		a.head[sc] = pg.Next
	}
	if pg.Next != nilIdx {
		a.pages[pg.Next].Prev = pg.Prev
	}
	pg.Prev, pg.Next = nilIdx, nilIdx
	a.freeCount[sc]--
}

func (a *Allocator) popFree(sc SizeClass) (int32, bool) {
	i := a.head[sc]
	if i == nilIdx {
		return 0, false
	}
	a.unlinkFree(sc, i)
	return i, true
}

// --- allocation ------------------------------------------------------------

// AllocPage4K pops a free 4 KiB page, zeroes it, and marks it allocated
// to owner. The postconditions of the paper's alloc_page_4k() hold:
// the returned page was free before, the free set shrinks by exactly it,
// and the allocated set grows by exactly it (Listing 4).
func (a *Allocator) AllocPage4K(owner Owner) (hw.PhysAddr, error) {
	if a.injectFail() {
		return 0, fmt.Errorf("%w: no 4KiB pages (injected)", ErrOutOfMemory)
	}
	i, ok := a.popFree(Size4K)
	if !ok {
		return 0, fmt.Errorf("%w: no 4KiB pages", ErrOutOfMemory)
	}
	// Fast-path pop, cold page-array metadata (two lines), and the zero.
	a.clock.Charge(hw.CostAllocFast + 2*hw.CostCacheMiss + hw.CostPageZero)
	p := a.mem.FrameAddr(int(i))
	a.mem.ZeroPage(p)
	a.pages[i].State = StateAllocated
	a.pages[i].Owner = owner
	a.observe(OpAllocObj, p, Size4K)
	return p, nil
}

// AllocUserPage4K pops a free 4 KiB page for a user mapping: state
// mapped, refcount 1.
func (a *Allocator) AllocUserPage4K() (hw.PhysAddr, error) {
	if a.injectFail() {
		return 0, fmt.Errorf("%w: no 4KiB pages (injected)", ErrOutOfMemory)
	}
	i, ok := a.popFree(Size4K)
	if !ok {
		return 0, fmt.Errorf("%w: no 4KiB pages", ErrOutOfMemory)
	}
	a.clock.Charge(hw.CostAllocFast + 2*hw.CostCacheMiss + hw.CostPageZero)
	p := a.mem.FrameAddr(int(i))
	a.mem.ZeroPage(p)
	a.pages[i].State = StateMapped
	a.pages[i].Owner = OwnerUser
	a.pages[i].RefCount = 1
	a.observe(OpAllocUser, p, Size4K)
	return p, nil
}

// AllocUserPage pops a free page of size sc for a user mapping. Superpage
// heads carry the mapped state; constituents stay merged.
func (a *Allocator) AllocUserPage(sc SizeClass) (hw.PhysAddr, error) {
	if sc == Size4K {
		return a.AllocUserPage4K()
	}
	if a.injectFail() {
		return 0, fmt.Errorf("%w: no %v pages (injected)", ErrOutOfMemory, sc)
	}
	i, ok := a.popFree(sc)
	if !ok {
		return 0, fmt.Errorf("%w: no %v pages", ErrOutOfMemory, sc)
	}
	frames := int32(sc.Bytes() / hw.PageSize4K)
	a.clock.Charge(hw.CostAllocFast + uint64(frames)*hw.CostPageZero/8)
	p := a.mem.FrameAddr(int(i))
	a.pages[i].State = StateMapped
	a.pages[i].Owner = OwnerUser
	a.pages[i].RefCount = 1
	a.observe(OpAllocUser, p, sc)
	return p, nil
}

// IncRef adds one mapping reference to a mapped page (shared memory).
func (a *Allocator) IncRef(p hw.PhysAddr) error {
	i, err := a.idx(p)
	if err != nil {
		return err
	}
	pg := &a.pages[i]
	if pg.State != StateMapped {
		return fmt.Errorf("%w: incref of %v page %#x", ErrWrongState, pg.State, p)
	}
	a.clock.Charge(hw.CostCacheTouch)
	pg.RefCount++
	a.observe(OpIncRef, p, pg.Size)
	return nil
}

// RefCount returns the mapping reference count of p.
func (a *Allocator) RefCount(p hw.PhysAddr) (uint32, error) {
	i, err := a.idx(p)
	if err != nil {
		return 0, err
	}
	return a.pages[i].RefCount, nil
}

// DecRef drops one mapping reference; on the last reference the page
// returns to its size class's free list. Returns true if the page was
// freed.
func (a *Allocator) DecRef(p hw.PhysAddr) (bool, error) {
	i, err := a.idx(p)
	if err != nil {
		return false, err
	}
	pg := &a.pages[i]
	if pg.State != StateMapped || pg.RefCount == 0 {
		return false, fmt.Errorf("%w: decref of %v page %#x (ref %d)", ErrWrongState, pg.State, p, pg.RefCount)
	}
	a.clock.Charge(hw.CostCacheTouch)
	pg.RefCount--
	if pg.RefCount > 0 {
		a.observe(OpDecRef, p, pg.Size)
		return false, nil
	}
	sc := pg.Size
	pg.State = StateFree
	pg.Owner = OwnerNone
	a.pushFree(sc, i)
	a.observe(OpFreeUser, p, sc)
	return true, nil
}

// FreePage returns an allocated kernel-object page to the free list. The
// tracked permission to the object must be consumed by the caller before
// calling (in the Go port: the caller must have removed the object from
// its flat permission map).
func (a *Allocator) FreePage(p hw.PhysAddr) error {
	i, err := a.idx(p)
	if err != nil {
		return err
	}
	pg := &a.pages[i]
	if pg.State != StateAllocated {
		return fmt.Errorf("%w: free of %v page %#x", ErrWrongState, pg.State, p)
	}
	if pg.Owner == OwnerBoot && int(i) < a.reserved {
		return fmt.Errorf("%w: cannot free boot-reserved page %#x", ErrWrongState, p)
	}
	a.clock.Charge(hw.CostAllocFast)
	sc := pg.Size
	pg.State = StateFree
	pg.Owner = OwnerNone
	a.pushFree(sc, i)
	a.observe(OpFreeObj, p, sc)
	return nil
}

// --- per-core cache transitions ---------------------------------------------
//
// The four transitions below are the allocator half of the per-core
// page-frame caches (CoreCaches): free <-> cached <-> user-mapped.
// Cached frames are StateAllocated/OwnerPCache so the closure
// accounting (verify.MemoryWF, account.Audit) always sees them; the
// zero is deferred to hand-out, where it runs outside the big lock.

// MoveFreeToCache pops a free 4 KiB page into cached state (allocated,
// owner page-cache) without zeroing it — the batch-refill step, run
// under the big lock. The deferred zero is paid by CacheToUser.
func (a *Allocator) MoveFreeToCache() (hw.PhysAddr, error) {
	if a.injectFail() {
		return 0, fmt.Errorf("%w: no 4KiB pages (injected)", ErrOutOfMemory)
	}
	i, ok := a.popFree(Size4K)
	if !ok {
		return 0, fmt.Errorf("%w: no 4KiB pages", ErrOutOfMemory)
	}
	// Fast-path pop plus one cold metadata line; no zero yet.
	a.clock.Charge(hw.CostAllocFast + hw.CostCacheMiss)
	p := a.mem.FrameAddr(int(i))
	a.pages[i].State = StateAllocated
	a.pages[i].Owner = OwnerPCache
	a.observe(OpCacheFill, p, Size4K)
	return p, nil
}

// CacheToUser hands a cached page out as a user mapping (state mapped,
// refcount 1), paying the deferred zero. The metadata is core-local and
// cache-hot — this is the cycles the per-core cache removes from under
// the big lock relative to AllocUserPage4K's cold-list path.
func (a *Allocator) CacheToUser(p hw.PhysAddr) error {
	i, err := a.idx(p)
	if err != nil {
		return err
	}
	pg := &a.pages[i]
	if pg.State != StateAllocated || pg.Owner != OwnerPCache {
		return fmt.Errorf("%w: cache hand-out of %v/%v page %#x", ErrWrongState, pg.State, pg.Owner, p)
	}
	a.clock.Charge(hw.CostAllocFast + hw.CostPageZero)
	a.mem.ZeroPage(p)
	pg.State = StateMapped
	pg.Owner = OwnerUser
	pg.RefCount = 1
	a.observe(OpCacheAlloc, p, Size4K)
	return nil
}

// UserToCache takes back a user page whose last mapping reference is
// being released, parking it in cached state instead of the global free
// list — the core-local free path. The page must be mapped with
// refcount exactly 1 (shared pages go through DecRef).
func (a *Allocator) UserToCache(p hw.PhysAddr) error {
	i, err := a.idx(p)
	if err != nil {
		return err
	}
	pg := &a.pages[i]
	if pg.State != StateMapped || pg.RefCount != 1 || pg.Size != Size4K {
		return fmt.Errorf("%w: cache take-back of %v page %#x (ref %d, %v)",
			ErrWrongState, pg.State, p, pg.RefCount, pg.Size)
	}
	a.clock.Charge(hw.CostCacheTouch)
	pg.RefCount = 0
	pg.State = StateAllocated
	pg.Owner = OwnerPCache
	a.observe(OpCacheFree, p, Size4K)
	return nil
}

// CacheToFree returns a cached page to the global 4 KiB free list — the
// drain step, run under the big lock when a core's cache overflows.
func (a *Allocator) CacheToFree(p hw.PhysAddr) error {
	i, err := a.idx(p)
	if err != nil {
		return err
	}
	pg := &a.pages[i]
	if pg.State != StateAllocated || pg.Owner != OwnerPCache {
		return fmt.Errorf("%w: cache drain of %v/%v page %#x", ErrWrongState, pg.State, pg.Owner, p)
	}
	a.clock.Charge(hw.CostAllocFast)
	pg.State = StateFree
	pg.Owner = OwnerNone
	a.pushFree(Size4K, i)
	a.observe(OpCacheDrain, p, Size4K)
	return nil
}

// --- superpage merge / split ------------------------------------------------

// Merge2M scans the page array for a naturally aligned run of 512 free
// 4 KiB pages, unlinks each from the 4 KiB free list in constant time,
// marks the tail pages merged, and pushes the head onto the 2 MiB free
// list (§4.2). It returns the head address.
func (a *Allocator) Merge2M() (hw.PhysAddr, error) {
	return a.merge(Size2M, hw.Pages4KPer2M)
}

// Merge1G forms a 1 GiB superpage from 262144 contiguous free 4 KiB
// pages (they may already be partially merged into free 2 MiB pages;
// only fully free ranges qualify).
func (a *Allocator) Merge1G() (hw.PhysAddr, error) {
	return a.merge(Size1G, hw.Pages4KPer1G)
}

func (a *Allocator) merge(sc SizeClass, frames int) (hw.PhysAddr, error) {
	n := len(a.pages)
	for start := 0; start+frames <= n; start += frames {
		ok := true
		for i := start; i < start+frames; i++ {
			pg := &a.pages[i]
			if pg.State != StateFree || pg.Size != Size4K {
				ok = false
				break
			}
			a.clock.Charge(hw.CostCacheTouch)
		}
		if !ok {
			continue
		}
		for i := start; i < start+frames; i++ {
			a.unlinkFree(Size4K, int32(i)) // constant time via back pointer
			a.clock.Charge(hw.CostCacheTouch)
		}
		head := int32(start)
		for i := start + 1; i < start+frames; i++ {
			a.pages[i].State = StateMerged
			a.pages[i].Head = head
			a.pages[i].Size = sc
		}
		a.pages[head].State = StateFree
		a.pages[head].Head = nilIdx
		a.pushFree(sc, head)
		return a.mem.FrameAddr(start), nil
	}
	return 0, fmt.Errorf("%w: %v", ErrNotMergeable, sc)
}

// Split returns a free superpage's constituent 4 KiB pages to the 4 KiB
// free list.
func (a *Allocator) Split(p hw.PhysAddr) error {
	i, err := a.idx(p)
	if err != nil {
		return err
	}
	pg := &a.pages[i]
	if pg.State != StateFree || pg.Size == Size4K {
		return fmt.Errorf("%w: split of %v/%v page %#x", ErrWrongState, pg.State, pg.Size, p)
	}
	sc := pg.Size
	frames := int(sc.Bytes() / hw.PageSize4K)
	a.unlinkFree(sc, i)
	for j := int(i); j < int(i)+frames; j++ {
		a.pages[j].State = StateFree
		a.pages[j].Size = Size4K
		a.pages[j].Head = nilIdx
		a.pages[j].Owner = OwnerNone
		a.pushFree(Size4K, int32(j))
		a.clock.Charge(hw.CostCacheTouch)
	}
	return nil
}

// --- explicit allocator state (ghost view) ----------------------------------

// Snapshot is the abstract state of the allocator: the page sets the
// paper's specifications quantify over. Building it is O(frames); the
// kernel exposes it to the verifier, never to hot paths.
type Snapshot struct {
	Free4K    PageSet
	Free2M    PageSet
	Free1G    PageSet
	Allocated PageSet
	Mapped    PageSet
	Merged    PageSet
	Boot      PageSet
	// PCache is the subset of Allocated parked in per-core page-frame
	// caches (OwnerPCache). Specs treat these as free at the abstract
	// level — the cache is an implementation detail of the allocator —
	// while the closure checks still see them as allocated.
	PCache PageSet
}

// Snapshot captures the allocator's abstract state.
func (a *Allocator) Snapshot() Snapshot {
	s := Snapshot{
		Free4K: NewPageSet(), Free2M: NewPageSet(), Free1G: NewPageSet(),
		Allocated: NewPageSet(), Mapped: NewPageSet(), Merged: NewPageSet(),
		Boot: NewPageSet(), PCache: NewPageSet(),
	}
	for i := range a.pages {
		p := a.mem.FrameAddr(i)
		pg := &a.pages[i]
		switch pg.State {
		case StateFree:
			switch pg.Size {
			case Size4K:
				s.Free4K.Insert(p)
			case Size2M:
				s.Free2M.Insert(p)
			case Size1G:
				s.Free1G.Insert(p)
			}
		case StateAllocated:
			if pg.Owner == OwnerBoot {
				s.Boot.Insert(p)
			} else {
				s.Allocated.Insert(p)
				if pg.Owner == OwnerPCache {
					s.PCache.Insert(p)
				}
			}
		case StateMapped:
			s.Mapped.Insert(p)
		case StateMerged:
			s.Merged.Insert(p)
		}
	}
	return s
}

// AllocatedTo returns the set of pages allocated to owner — the raw
// material of per-subsystem page_closure() checks.
func (a *Allocator) AllocatedTo(owner Owner) PageSet {
	s := NewPageSet()
	for i := range a.pages {
		if a.pages[i].State == StateAllocated && a.pages[i].Owner == owner {
			s.Insert(a.mem.FrameAddr(i))
		}
	}
	return s
}

// WalkFreeList returns the frame addresses on the free list of sc in list
// order, for invariant checks that the list and the metadata agree.
func (a *Allocator) WalkFreeList(sc SizeClass) []hw.PhysAddr {
	var out []hw.PhysAddr
	for i := a.head[sc]; i != nilIdx; i = a.pages[i].Next {
		out = append(out, a.mem.FrameAddr(int(i)))
		if len(out) > len(a.pages) {
			panic("mem: free list cycle")
		}
	}
	return out
}
