package hw

// TLB is a small direct-mapped translation lookaside buffer, one per
// core, tagged by CR3 and keyed by 4 KiB page. The kernel invalidates
// it on unmap and flushes it on address-space teardown, on the cores
// that can hold the address space: those its container reserves. The
// cycle model charges those invalidations; the TLB itself exists so
// tests and the coherence oracle (verify.TLBWF) can observe that every
// entry still agrees with the page table (§4.2, consistency of page
// table updates).
type TLB struct {
	entries []tlbEntry
	live    int // valid entries: an empty TLB is walked in O(1)
	hits    uint64
	misses  uint64
	flushes uint64
}

type tlbEntry struct {
	valid bool
	cr3   PhysAddr
	vpage VirtAddr
	tr    Translation
}

// NewTLB returns a TLB with the given number of slots (rounded up to 1).
func NewTLB(slots int) *TLB {
	if slots < 1 {
		slots = 1
	}
	return &TLB{entries: make([]tlbEntry, slots)}
}

func (t *TLB) slot(cr3 PhysAddr, vpage VirtAddr) *tlbEntry {
	h := (uint64(vpage)>>12 ^ uint64(cr3)>>12) % uint64(len(t.entries))
	return &t.entries[h]
}

// Lookup returns a cached translation for the page containing va.
func (t *TLB) Lookup(cr3 PhysAddr, va VirtAddr) (Translation, bool) {
	vpage := va &^ (PageSize4K - 1)
	e := t.slot(cr3, vpage)
	if e.valid && e.cr3 == cr3 && e.vpage == vpage {
		t.hits++
		return e.tr, true
	}
	t.misses++
	return Translation{}, false
}

// Insert caches a translation for the 4 KiB page containing va.
func (t *TLB) Insert(cr3 PhysAddr, va VirtAddr, tr Translation) {
	vpage := va &^ (PageSize4K - 1)
	e := t.slot(cr3, vpage)
	if !e.valid {
		t.live++
	}
	*e = tlbEntry{valid: true, cr3: cr3, vpage: vpage, tr: tr}
}

// InvalidateRange drops every entry of cr3 for a page in [va, va+size)
// in one pass over the slots: invlpg for a 4 KiB page, and for every
// 4 KiB key a superpage's translations were cached under.
func (t *TLB) InvalidateRange(cr3 PhysAddr, va VirtAddr, size uint64) {
	if t.live == 0 {
		return
	}
	for i := range t.entries {
		e := &t.entries[i]
		if e.valid && e.cr3 == cr3 && uint64(e.vpage-va) < size {
			e.valid = false
			t.live--
		}
	}
}

// Flush drops everything (CR3 reload without PCID).
func (t *TLB) Flush() {
	for i := range t.entries {
		t.entries[i].valid = false
	}
	t.live = 0
	t.flushes++
}

// Each calls fn on every valid entry, in slot order, until fn returns
// false. It allocates nothing and returns at once when no entry is
// valid.
func (t *TLB) Each(fn func(cr3 PhysAddr, vpage VirtAddr, tr Translation) bool) {
	if t.live == 0 {
		return
	}
	for i := range t.entries {
		if e := &t.entries[i]; e.valid && !fn(e.cr3, e.vpage, e.tr) {
			return
		}
	}
}

// Stats returns hit, miss, and flush counts.
func (t *TLB) Stats() (hits, misses, flushes uint64) {
	return t.hits, t.misses, t.flushes
}
