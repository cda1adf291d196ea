// Package account implements the leak-freedom auditor: a live page
// ownership ledger over the allocator's page lifecycle feed, attributing
// every allocated object page and every user-mapping reference to a
// container, plus per-container charged-cycle totals.
//
// The ledger is the incremental counterpart of verify.MemoryWF's
// snapshot-based closure check: the kernel tells it which container each
// transition acts for (the attribution context), the allocator tells it
// which page moved, and Audit compares the mirrored state against the
// allocator's ground truth — the paper's closure invariant (per-container
// closures disjoint, their union exactly the allocated set), checkable at
// any point of a run instead of only at quiescence.
//
// Like the tracer, everything here is nil-safe (every method on a nil
// *Ledger is a no-op) and charges zero simulated cycles: the ledger only
// ever reads clocks and allocator metadata, so attaching it cannot move
// a benchmark number (bench.TestProbesAreFree holds Table 3 to that).
package account

import (
	"fmt"
	"sort"

	"atmosphere/internal/hw"
	"atmosphere/internal/mem"
	"atmosphere/internal/obs"
)

// InFlight is the pseudo-container holding IPC page references that are
// in transit between a sender and a receiver. Real container identifiers
// are page-aligned physical addresses, so 1 can never collide.
const InFlight = hw.PhysAddr(1)

// PageCache is the pseudo-container owning frames parked in the
// per-core page-frame caches (mem.CoreCaches). Cached frames belong to
// no real container — they were given back, or not yet handed out — but
// they are not free either, so the closure accounting needs a place to
// hold them. Like InFlight, the value can never collide with a real
// container pointer (those are page-aligned).
const PageCache = hw.PhysAddr(2)

// ContainerStat is one container's live accounting state. Page counts
// are in 4 KiB units (a 2 MiB user mapping counts 512).
type ContainerStat struct {
	ObjPages  uint64 // kernel-object and table pages allocated for it
	UserPages uint64 // user pages it holds at least one mapping ref on
	Cycles    uint64 // kernel/driver cycles charged to it
}

// ContainerRow is one row of a ledger snapshot, sorted for display.
type ContainerRow struct {
	Cntr hw.PhysAddr
	Name string
	ContainerStat
}

// Pages returns the row's total page count in 4 KiB units.
func (r ContainerRow) Pages() uint64 { return r.ObjPages + r.UserPages }

// Ledger is the live ownership ledger. Bind installs it on a kernel's
// allocator; the kernel sets the attribution context around each syscall
// and the allocator feeds transitions through PageEvent.
type Ledger struct {
	alloc *mem.Allocator
	ctx   hw.PhysAddr // attribution context (0 = unattributed)

	owner   map[hw.PhysAddr]hw.PhysAddr            // object page -> container
	holders map[hw.PhysAddr]map[hw.PhysAddr]uint32 // user page -> container -> refs
	sizes   map[hw.PhysAddr]mem.SizeClass          // user page -> granularity
	stats   map[hw.PhysAddr]*ContainerStat
	names   map[hw.PhysAddr]string
	retired []ContainerRow // dead named containers (pointer may be recycled)

	live      uint64 // live pages in 4 KiB units (object + user)
	watermark uint64 // peak of live

	audits     uint64
	auditFails uint64
	anomalies  uint64 // events the ledger could not attribute exactly
	lastErr    error
}

// NewLedger builds an empty, unbound ledger.
func NewLedger() *Ledger {
	return &Ledger{
		owner:   make(map[hw.PhysAddr]hw.PhysAddr),
		holders: make(map[hw.PhysAddr]map[hw.PhysAddr]uint32),
		sizes:   make(map[hw.PhysAddr]mem.SizeClass),
		stats:   make(map[hw.PhysAddr]*ContainerStat),
		names:   make(map[hw.PhysAddr]string),
	}
}

// Bind resets the ledger, installs it as alloc's page observer, and
// seeds the mirror from the allocator's current state, attributing every
// already-live page to seed (the root container): pages allocated before
// attach — the boot environment, the root container object — belong to
// the root by definition.
func (l *Ledger) Bind(alloc *mem.Allocator, seed hw.PhysAddr) {
	if l == nil {
		return
	}
	l.alloc = alloc
	l.ctx = 0
	l.owner = make(map[hw.PhysAddr]hw.PhysAddr)
	l.holders = make(map[hw.PhysAddr]map[hw.PhysAddr]uint32)
	l.sizes = make(map[hw.PhysAddr]mem.SizeClass)
	l.stats = make(map[hw.PhysAddr]*ContainerStat)
	l.retired = nil
	l.live, l.watermark = 0, 0
	l.lastErr = nil
	snap := alloc.Snapshot()
	for _, p := range snap.Allocated.Sorted() {
		l.owner[p] = seed
		l.stat(seed).ObjPages++
		l.live++
	}
	for _, p := range snap.Mapped.Sorted() {
		meta, err := alloc.Meta(p)
		if err != nil {
			continue
		}
		l.holders[p] = map[hw.PhysAddr]uint32{seed: meta.RefCount}
		l.sizes[p] = meta.Size
		n := pages4K(meta.Size)
		l.stat(seed).UserPages += n
		l.live += n
	}
	l.watermark = l.live
	alloc.SetObserver(l.PageEvent)
}

// stat returns (creating) the container's stat block.
func (l *Ledger) stat(c hw.PhysAddr) *ContainerStat {
	s, ok := l.stats[c]
	if !ok {
		s = &ContainerStat{}
		l.stats[c] = s
	}
	return s
}

func pages4K(sc mem.SizeClass) uint64 { return sc.Bytes() / hw.PageSize4K }

// SetContext sets the attribution context: the container the next page
// transitions act for. The kernel sets it when a syscall resolves its
// caller (and overrides it at the few sites where the affected container
// differs from the caller); 0 means unattributed.
func (l *Ledger) SetContext(c hw.PhysAddr) {
	if l != nil {
		l.ctx = c
	}
}

// SwapContext sets the context and returns the previous one, for sites
// that scope an override around a single allocator call.
func (l *Ledger) SwapContext(c hw.PhysAddr) hw.PhysAddr {
	if l == nil {
		return 0
	}
	prev := l.ctx
	l.ctx = c
	return prev
}

// PageEvent is the allocator observer: it mirrors one page lifecycle
// transition into the ledger under the current attribution context.
func (l *Ledger) PageEvent(op mem.PageOp, p hw.PhysAddr, sc mem.SizeClass) {
	if l == nil {
		return
	}
	switch op {
	case mem.OpAllocObj:
		l.owner[p] = l.ctx
		l.stat(l.ctx).ObjPages++
		l.bumpLive(1)
	case mem.OpFreeObj:
		c, ok := l.owner[p]
		if !ok {
			l.anomalies++
			return
		}
		delete(l.owner, p)
		l.stat(c).ObjPages--
		l.live--
		l.retireIfDead(p)
	case mem.OpAllocUser:
		l.holders[p] = map[hw.PhysAddr]uint32{l.ctx: 1}
		l.sizes[p] = sc
		l.stat(l.ctx).UserPages += pages4K(sc)
		l.bumpLive(pages4K(sc))
	case mem.OpIncRef:
		h := l.holders[p]
		if h == nil {
			h = make(map[hw.PhysAddr]uint32)
			l.holders[p] = h
			l.sizes[p] = sc
			l.anomalies++
		}
		h[l.ctx]++
		if h[l.ctx] == 1 {
			l.stat(l.ctx).UserPages += pages4K(sc)
		}
	case mem.OpDecRef:
		l.dropRef(p, sc)
	case mem.OpCacheFill:
		// Free -> cached: the frame now belongs to the page-cache
		// pseudo-container, regardless of whose syscall triggered the
		// refill — cached frames are owned by no real container.
		l.owner[p] = PageCache
		l.stat(PageCache).ObjPages++
		l.bumpLive(1)
	case mem.OpCacheAlloc:
		// Cached -> user-mapped under the current context. Live total is
		// unchanged: the page moves between closure columns.
		if _, ok := l.owner[p]; !ok {
			l.anomalies++
		} else {
			delete(l.owner, p)
			l.stat(PageCache).ObjPages--
			l.live--
		}
		l.holders[p] = map[hw.PhysAddr]uint32{l.ctx: 1}
		l.sizes[p] = sc
		l.stat(l.ctx).UserPages += pages4K(sc)
		l.bumpLive(pages4K(sc))
	case mem.OpCacheFree:
		// User-mapped (last ref) -> cached: drop the mapping exactly as
		// OpFreeUser would, then park the frame under the page-cache.
		l.dropRef(p, sc)
		if h := l.holders[p]; len(h) != 0 {
			for _, c := range sortedCntrs(h) {
				l.stat(c).UserPages -= pages4K(l.sizes[p])
				l.anomalies++
			}
		}
		delete(l.holders, p)
		delete(l.sizes, p)
		l.live -= pages4K(sc)
		l.owner[p] = PageCache
		l.stat(PageCache).ObjPages++
		l.bumpLive(1)
	case mem.OpCacheDrain:
		// Cached -> free.
		if _, ok := l.owner[p]; !ok {
			l.anomalies++
			return
		}
		delete(l.owner, p)
		l.stat(PageCache).ObjPages--
		l.live--
	case mem.OpFreeUser:
		l.dropRef(p, sc)
		if h := l.holders[p]; len(h) != 0 {
			// Stale attribution left behind by an unmatched context: the
			// allocator says the page is gone, so clear the mirror and let
			// the anomaly counter flag the drift.
			for _, c := range sortedCntrs(h) {
				l.stat(c).UserPages -= pages4K(l.sizes[p])
				l.anomalies++
			}
		}
		delete(l.holders, p)
		delete(l.sizes, p)
		l.live -= pages4K(sc)
	}
}

// dropRef removes one mapping reference from p: from the current context
// when it holds one, otherwise from the lowest-numbered holder (the
// deterministic fallback for teardown paths acting on behalf of a dying
// container — InFlight, being 1, always drops first).
func (l *Ledger) dropRef(p hw.PhysAddr, sc mem.SizeClass) {
	h := l.holders[p]
	if len(h) == 0 {
		l.anomalies++
		return
	}
	c := l.ctx
	if h[c] == 0 {
		cs := sortedCntrs(h)
		c = cs[0]
	}
	h[c]--
	if h[c] == 0 {
		delete(h, c)
		l.stat(c).UserPages -= pages4K(sc)
	}
}

// MoveRef transfers one mapping reference on p from one container to
// another — how the kernel tracks an IPC page transfer: sender to
// InFlight at send, InFlight to receiver at delivery.
func (l *Ledger) MoveRef(p hw.PhysAddr, from, to hw.PhysAddr) {
	if l == nil {
		return
	}
	h := l.holders[p]
	if h == nil || h[from] == 0 {
		l.anomalies++
		return
	}
	sc := l.sizes[p]
	h[from]--
	if h[from] == 0 {
		delete(h, from)
		l.stat(from).UserPages -= pages4K(sc)
	}
	h[to]++
	if h[to] == 1 {
		l.stat(to).UserPages += pages4K(sc)
	}
}

// Attribute moves an object page's ownership to a container — used right
// after new_container, whose child object page is allocated under the
// parent's context but is, by the quota model, the child's own first
// page (child.UsedPages starts at 1).
func (l *Ledger) Attribute(p hw.PhysAddr, c hw.PhysAddr) {
	if l == nil {
		return
	}
	prev, ok := l.owner[p]
	if !ok {
		l.anomalies++
		return
	}
	if prev == c {
		return
	}
	l.stat(prev).ObjPages--
	l.owner[p] = c
	l.stat(c).ObjPages++
}

// ChargeCycles adds kernel or driver cycles to a container's bill.
func (l *Ledger) ChargeCycles(c hw.PhysAddr, cycles uint64) {
	if l == nil || cycles == 0 {
		return
	}
	l.stat(c).Cycles += cycles
}

func (l *Ledger) bumpLive(n uint64) {
	l.live += n
	if l.live > l.watermark {
		l.watermark = l.live
	}
}

// NameContainer gives a container a display name (used in rows, audit
// errors, and the per-container metric gauges).
func (l *Ledger) NameContainer(c hw.PhysAddr, name string) {
	if l != nil {
		l.names[c] = name
	}
}

// retireIfDead archives a named container's row when its own object
// page is freed and its closure has fully drained. The allocator will
// recycle the frame — possibly as the object page of a brand-new
// container — so the dead incarnation's history (name, cycle bill)
// must move out of the live maps before the pointer is reused.
func (l *Ledger) retireIfDead(p hw.PhysAddr) {
	name, named := l.names[p]
	if !named {
		return
	}
	s, ok := l.stats[p]
	if !ok || s.ObjPages != 0 || s.UserPages != 0 {
		return
	}
	l.retired = append(l.retired, ContainerRow{Cntr: p, Name: name, ContainerStat: *s})
	delete(l.stats, p)
	delete(l.names, p)
}

// nameOf renders a container for error messages and rows.
func (l *Ledger) nameOf(c hw.PhysAddr) string {
	if c == InFlight {
		return "in-flight"
	}
	if c == PageCache {
		return "page-cache"
	}
	if n, ok := l.names[c]; ok {
		return n
	}
	if c == 0 {
		return "unattributed"
	}
	return fmt.Sprintf("cntr-%#x", uint64(c))
}

// ContainerPages returns a container's live page count in 4 KiB units.
func (l *Ledger) ContainerPages(c hw.PhysAddr) uint64 {
	if l == nil {
		return 0
	}
	s, ok := l.stats[c]
	if !ok {
		return 0
	}
	return s.ObjPages + s.UserPages
}

// ContainerCycles returns the cycles charged to a container.
func (l *Ledger) ContainerCycles(c hw.PhysAddr) uint64 {
	if l == nil {
		return 0
	}
	s, ok := l.stats[c]
	if !ok {
		return 0
	}
	return s.Cycles
}

// LivePages returns the ledger's live page total in 4 KiB units.
func (l *Ledger) LivePages() uint64 {
	if l == nil {
		return 0
	}
	return l.live
}

// Watermark returns the peak live page total.
func (l *Ledger) Watermark() uint64 {
	if l == nil {
		return 0
	}
	return l.watermark
}

// Anomalies returns how many events the ledger could not attribute.
func (l *Ledger) Anomalies() uint64 {
	if l == nil {
		return 0
	}
	return l.anomalies
}

// Rows snapshots every container with live pages or charged cycles —
// live containers sorted by pointer, then retired (dead, named)
// incarnations in death order. Both orders are deterministic.
func (l *Ledger) Rows() []ContainerRow {
	if l == nil {
		return nil
	}
	cs := make([]hw.PhysAddr, 0, len(l.stats))
	for c := range l.stats {
		cs = append(cs, c)
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i] < cs[j] })
	var out []ContainerRow
	for _, c := range cs {
		s := l.stats[c]
		if s.ObjPages == 0 && s.UserPages == 0 && s.Cycles == 0 {
			continue
		}
		out = append(out, ContainerRow{Cntr: c, Name: l.nameOf(c), ContainerStat: *s})
	}
	return append(out, l.retired...)
}

// sortedCntrs returns a holder map's keys in ascending order.
func sortedCntrs(h map[hw.PhysAddr]uint32) []hw.PhysAddr {
	out := make([]hw.PhysAddr, 0, len(h))
	for c := range h {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Audit compares the ledger's mirror against the allocator's ground
// truth: the union of per-container object sets must equal the
// allocator's allocated set, the union of per-container mapping sets
// must equal the mapped set, and per-page reference totals must match
// exactly. Disjointness of the per-container object closures holds by
// construction (each page has exactly one owner entry); the equality
// checks are what catch a leak — a page freed or allocated behind the
// ledger's back shows up as a named container's delta.
func (l *Ledger) Audit() error {
	if l == nil {
		return nil
	}
	l.audits++
	err := l.audit()
	if err != nil {
		l.auditFails++
		l.lastErr = err
	}
	return err
}

func (l *Ledger) audit() error {
	if l.alloc == nil {
		return fmt.Errorf("account: ledger not bound to an allocator")
	}
	snap := l.alloc.Snapshot()
	// Object pages: ledger keys vs allocator's allocated set.
	for _, p := range snap.Allocated.Sorted() {
		if _, ok := l.owner[p]; !ok {
			return fmt.Errorf("account: allocated page %#x missing from ledger (container unattributed, delta +1 page)", uint64(p))
		}
	}
	for _, p := range sortedPages(l.owner) {
		if !snap.Allocated.Contains(p) {
			c := l.owner[p]
			return fmt.Errorf("account: container %s holds object page %#x the allocator no longer has (leak delta %d -> %d pages)",
				l.nameOf(c), uint64(p), l.stats[c].ObjPages, l.stats[c].ObjPages-1)
		}
	}
	// User pages: holder unions vs the mapped set, refcount-exact.
	for _, p := range snap.Mapped.Sorted() {
		h := l.holders[p]
		if len(h) == 0 {
			return fmt.Errorf("account: mapped page %#x missing from ledger (container unattributed)", uint64(p))
		}
		var total uint32
		for _, n := range h {
			total += n
		}
		meta, err := l.alloc.Meta(p)
		if err != nil {
			return err
		}
		if total != meta.RefCount {
			c := sortedCntrs(h)[0]
			return fmt.Errorf("account: page %#x has %d ledger refs (first holder %s) but refcount %d (delta %d)",
				uint64(p), total, l.nameOf(c), meta.RefCount, int64(total)-int64(meta.RefCount))
		}
	}
	for p, h := range l.holders {
		if !snap.Mapped.Contains(p) && len(h) != 0 {
			c := sortedCntrs(h)[0]
			return fmt.Errorf("account: container %s holds %d refs on page %#x the allocator freed (leak delta -%d pages)",
				l.nameOf(c), h[c], uint64(p), pages4K(l.sizes[p]))
		}
	}
	return nil
}

func sortedPages(m map[hw.PhysAddr]hw.PhysAddr) []hw.PhysAddr {
	out := make([]hw.PhysAddr, 0, len(m))
	for p := range m {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// AuditStats reports (audits run, audit failures).
func (l *Ledger) AuditStats() (uint64, uint64) {
	if l == nil {
		return 0, 0
	}
	return l.audits, l.auditFails
}

// RegisterMetrics publishes the ledger's aggregate state as gauges:
// live/watermark page totals, audit counters, attribution anomalies, and
// allocator free-list fragmentation. Per-container gauges are published
// by RegisterContainerMetrics.
func (l *Ledger) RegisterMetrics(m *obs.Registry) {
	if l == nil || m == nil {
		return
	}
	m.Gauge("account.pages.live", func() uint64 { return l.live })
	m.Gauge("account.pages.watermark", func() uint64 { return l.watermark })
	m.Gauge("account.audits", func() uint64 { return l.audits })
	m.Gauge("account.audit_failures", func() uint64 { return l.auditFails })
	m.Gauge("account.anomalies", func() uint64 { return l.anomalies })
	m.Gauge("account.alloc.free4k", func() uint64 {
		if l.alloc == nil {
			return 0
		}
		return uint64(l.alloc.FreeCount4K())
	})
	m.Gauge("account.alloc.frag_pct", func() uint64 { return l.FragPercent() })
}

// RegisterContainerMetrics publishes one container's page and cycle
// totals under "account.cntr.<name>.{pages,cycles}". Re-registering a
// name (a respawned driver generation) repoints the gauges at the new
// container, mirroring how registry counters survive respawn.
func (l *Ledger) RegisterContainerMetrics(m *obs.Registry, name string, c hw.PhysAddr) {
	if l == nil || m == nil {
		return
	}
	m.Gauge("account.cntr."+name+".pages", func() uint64 { return l.ContainerPages(c) })
	m.Gauge("account.cntr."+name+".cycles", func() uint64 { return l.ContainerCycles(c) })
}

// FragPercent measures free-list fragmentation: the percentage of free
// 4 KiB frames that cannot participate in any naturally aligned fully
// free 2 MiB run (the merge unit of §4.2). 0 means every free frame is
// superpage-coalescible; 100 means none is. O(frames) — dump-time only.
func (l *Ledger) FragPercent() uint64 {
	if l == nil || l.alloc == nil {
		return 0
	}
	snap := l.alloc.Snapshot()
	free := snap.Free4K
	if free.Len() == 0 {
		return 0
	}
	frames := l.alloc.Frames()
	mem4k := l.alloc.Mem()
	run := int(hw.Pages4KPer2M)
	coalescible := 0
	for start := 0; start+run <= frames; start += run {
		ok := true
		for i := start; i < start+run; i++ {
			if !free.Contains(mem4k.FrameAddr(i)) {
				ok = false
				break
			}
		}
		if ok {
			coalescible += run
		}
	}
	return uint64(100 - 100*coalescible/free.Len())
}
