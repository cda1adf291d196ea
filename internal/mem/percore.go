package mem

import (
	"fmt"

	"atmosphere/internal/hw"
)

// CoreCaches gives each core a private stack of pre-reserved 4 KiB
// frames in front of one shared Allocator — the classic per-CPU page
// cache that lets a big-lock kernel scale its hottest allocation path.
// A hand-out from a warm cache touches only core-local state (pop +
// deferred zero), so the kernel can classify those cycles as *local*
// work that does not extend big-lock hold time; only the batched
// refill (cache empty) and drain (cache overfull) transitions reach
// the shared free lists and must run under the lock.
//
// Cached frames remain fully visible to the closure accounting: they
// are StateAllocated/OwnerPCache in the page metadata array, the
// ledger mirrors them under the PageCache pseudo-container, and
// verify.MemoryWF checks that the kernel's view of the caches is
// exactly the allocator's OwnerPCache pages.
//
// Determinism: the caches are plain LIFO stacks refilled in free-list
// pop order, so for a fixed seed and drive order the sequence of
// physical addresses handed to each core is a pure function of the
// program — same trace hash at every core count.
type CoreCaches struct {
	alloc *Allocator
	batch int
	// frames[core] is that core's LIFO stack of cached frames.
	frames [][]hw.PhysAddr

	hits, misses, refills, drains uint64
}

// NewCoreCaches builds per-core caches over alloc for cores cores,
// refilling batch frames at a time and draining when a cache exceeds
// twice the batch.
func NewCoreCaches(alloc *Allocator, cores, batch int) *CoreCaches {
	if cores < 1 || batch < 1 {
		panic("mem: CoreCaches needs at least one core and a positive batch")
	}
	return &CoreCaches{
		alloc:  alloc,
		batch:  batch,
		frames: make([][]hw.PhysAddr, cores),
	}
}

// AllocUser4K hands core a zeroed user-mapped 4 KiB frame (state
// mapped, refcount 1). The returned local count is the cycles of the
// hand-out itself — the core-private pop and deferred zero — which the
// kernel subtracts from its big-lock hold time; refill cycles are
// excluded because refills walk the shared free lists.
func (cc *CoreCaches) AllocUser4K(core int) (p hw.PhysAddr, local uint64, err error) {
	st := cc.frames[core]
	if len(st) == 0 {
		cc.misses++
		cc.refills++
		for i := 0; i < cc.batch; i++ {
			f, ferr := cc.alloc.MoveFreeToCache()
			if ferr != nil {
				if i == 0 {
					return 0, 0, ferr
				}
				break // partial refill: hand out what we got
			}
			st = append(st, f)
		}
	} else {
		cc.hits++
	}
	p = st[len(st)-1]
	cc.frames[core] = st[:len(st)-1]
	before := cc.alloc.clock.Cycles()
	if err := cc.alloc.CacheToUser(p); err != nil {
		// Unreachable unless the cache was corrupted externally; put the
		// frame back so the stack stays consistent with the metadata.
		cc.frames[core] = st
		return 0, 0, err
	}
	return p, cc.alloc.clock.Cycles() - before, nil
}

// FreeUser4K takes back a user frame whose last mapping reference core
// is releasing, parking it in core's cache. When the cache exceeds
// twice the refill batch, the surplus drains to the global free list
// (locked work, excluded from the local count).
func (cc *CoreCaches) FreeUser4K(core int, p hw.PhysAddr) (local uint64, err error) {
	before := cc.alloc.clock.Cycles()
	if err := cc.alloc.UserToCache(p); err != nil {
		return 0, err
	}
	local = cc.alloc.clock.Cycles() - before
	cc.frames[core] = append(cc.frames[core], p)
	if len(cc.frames[core]) > 2*cc.batch {
		cc.drains++
		st := cc.frames[core]
		for len(st) > cc.batch {
			f := st[len(st)-1]
			if derr := cc.alloc.CacheToFree(f); derr != nil {
				cc.frames[core] = st
				return local, derr
			}
			st = st[:len(st)-1]
		}
		cc.frames[core] = st
	}
	return local, nil
}

// Drain returns every cached frame on every core to the global free
// list (teardown, or quiescing before a verification pass that wants
// empty caches).
func (cc *CoreCaches) Drain() error {
	for core, st := range cc.frames {
		for len(st) > 0 {
			f := st[len(st)-1]
			if err := cc.alloc.CacheToFree(f); err != nil {
				cc.frames[core] = st
				return err
			}
			st = st[:len(st)-1]
		}
		cc.frames[core] = nil
	}
	return nil
}

// PagesInto adds the frames parked in every core's cache to s — the
// kernel's own view, which verify.MemoryWF compares with the
// allocator's OwnerPCache pages.
func (cc *CoreCaches) PagesInto(s *PageSet) {
	for _, st := range cc.frames {
		for _, p := range st {
			s.Insert(p)
		}
	}
}

// Holder returns the core whose cache stack holds p, or -1 if none
// does.
func (cc *CoreCaches) Holder(p hw.PhysAddr) int {
	for core, st := range cc.frames {
		for _, f := range st {
			if f == p {
				return core
			}
		}
	}
	return -1
}

// Len reports how many frames core currently holds cached.
func (cc *CoreCaches) Len(core int) int { return len(cc.frames[core]) }

// Batch reports the refill batch size; a cache drains back to it when
// its depth exceeds twice the batch. The kernel's lock planner uses
// both thresholds to predict whether an mmap/munmap can stay off the
// shared free lists (and hence off the big lock).
func (cc *CoreCaches) Batch() int { return cc.batch }

// Stats reports (cache hits, misses, batch refills, drains) since
// construction.
func (cc *CoreCaches) Stats() (hits, misses, refills, drains uint64) {
	return cc.hits, cc.misses, cc.refills, cc.drains
}

// String summarizes cache occupancy for debugging.
func (cc *CoreCaches) String() string {
	total := 0
	for _, st := range cc.frames {
		total += len(st)
	}
	return fmt.Sprintf("pcache{cores=%d cached=%d hits=%d misses=%d}", len(cc.frames), total, cc.hits, cc.misses)
}
