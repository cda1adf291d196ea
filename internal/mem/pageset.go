// Package mem implements Atmosphere's physical page allocator (§4.2):
// a page metadata array over the touched 4 KiB frames, three doubly-linked
// free lists (4 KiB, 2 MiB, 1 GiB) with constant-time unlink via back
// pointers stored in the metadata array, superpage merge and split, and
// the four-state page lifecycle (free, mapped, merged, allocated).
//
// The allocator exposes its internal state explicitly — the sets of free,
// allocated, mapped, and merged pages, and the per-frame metadata itself —
// because the paper's leak-freedom and non-interference arguments require
// exact knowledge of all memory in the system ("Explicit memory allocator
// state", §4.2). internal/verify walks the metadata array after every
// checked kernel transition, checking the free lists and the
// page_closure() of every subsystem against it.
package mem

import (
	"fmt"
	"math/bits"

	"atmosphere/internal/hw"
)

// PageSet is a set of physical page addresses. It is the currency of the
// paper's page_closure() reasoning: each subsystem reports the set of
// pages it owns, and the verifier checks pairwise disjointness and that
// the union of all closures plus the free set covers physical memory.
//
// The set is a bitmap indexed by frame number (addr / 4 KiB) with a
// cached cardinality, so the set algebra is word operations and Sorted
// needs no sort. The bitmap grows on Insert to cover the highest frame
// inserted. Read methods treat a nil *PageSet as the empty set.
type PageSet struct {
	words []uint64
	n     int
}

// NewPageSet returns a set containing the given pages.
func NewPageSet(pages ...hw.PhysAddr) *PageSet {
	s := &PageSet{}
	for _, p := range pages {
		s.Insert(p)
	}
	return s
}

// newPageSetFrames returns an empty set whose bitmap already covers
// frames 0..frames-1.
func newPageSetFrames(frames int) *PageSet {
	return &PageSet{words: make([]uint64, wordsFor(frames))}
}

// wordsFor returns the bitmap length covering frames 0..frames-1.
func wordsFor(frames int) int { return (frames + 63) / 64 }

// addFrame adds frame i, which must lie inside the bitmap.
func (s *PageSet) addFrame(i int) {
	w, b := i/64, uint64(1)<<(i%64)
	if s.words[w]&b == 0 {
		s.words[w] |= b
		s.n++
	}
}

// addRange adds frames lo..hi-1, which must lie inside the bitmap, a
// word at a time.
func (s *PageSet) addRange(lo, hi int) {
	for lo < hi {
		w, b := lo/64, lo%64
		n := min(64-b, hi-lo)
		mask := ^uint64(0) >> (64 - n) << b
		s.n += bits.OnesCount64(mask &^ s.words[w])
		s.words[w] |= mask
		lo += n
	}
}

// locate returns p's word index and bit, or false when p is misaligned
// or beyond the bitmap (and so not in the set).
func (s *PageSet) locate(p hw.PhysAddr) (int, uint64, bool) {
	if s == nil || uint64(p)%hw.PageSize4K != 0 {
		return 0, 0, false
	}
	f := uint64(p) / hw.PageSize4K
	if f/64 >= uint64(len(s.words)) {
		return 0, 0, false
	}
	return int(f / 64), uint64(1) << (f % 64), true
}

// bitmap returns the words of s, nil for a nil set.
func (s *PageSet) bitmap() []uint64 {
	if s == nil {
		return nil
	}
	return s.words
}

// Insert adds p to the set. p must be 4 KiB aligned: a misaligned page
// address is a verifier bug, and Insert panics on it.
func (s *PageSet) Insert(p hw.PhysAddr) {
	if uint64(p)%hw.PageSize4K != 0 {
		panic(fmt.Sprintf("mem: PageSet.Insert of misaligned address %#x", p))
	}
	f := uint64(p) / hw.PageSize4K
	if need := f/64 + 1; need > uint64(len(s.words)) {
		s.words = append(s.words, make([]uint64, need-uint64(len(s.words)))...)
	}
	s.addFrame(int(f))
}

// Remove deletes p from the set; a page not in the set (including a
// misaligned address) is a no-op.
func (s *PageSet) Remove(p hw.PhysAddr) {
	if w, b, ok := s.locate(p); ok && s.words[w]&b != 0 {
		s.words[w] &^= b
		s.n--
	}
}

// Contains reports membership.
func (s *PageSet) Contains(p hw.PhysAddr) bool {
	w, b, ok := s.locate(p)
	return ok && s.words[w]&b != 0
}

// Clear empties the set, keeping its bitmap for reuse.
func (s *PageSet) Clear() {
	clear(s.words)
	s.n = 0
}

// Len returns the cardinality.
func (s *PageSet) Len() int {
	if s == nil {
		return 0
	}
	return s.n
}

// Clone returns a copy of the set.
func (s *PageSet) Clone() *PageSet {
	return &PageSet{words: append([]uint64(nil), s.bitmap()...), n: s.Len()}
}

// Union adds every element of other to s and returns s.
func (s *PageSet) Union(other *PageSet) *PageSet {
	o := other.bitmap()
	if len(o) > len(s.words) {
		s.words = append(s.words, make([]uint64, len(o)-len(s.words))...)
	}
	for i, w := range o {
		s.n += bits.OnesCount64(w &^ s.words[i])
		s.words[i] |= w
	}
	return s
}

// Disjoint reports whether s and other share no element.
func (s *PageSet) Disjoint(other *PageSet) bool {
	a, b := s.bitmap(), other.bitmap()
	if len(b) < len(a) {
		a = a[:len(b)]
	}
	for i, w := range a {
		if w&b[i] != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether s and other contain exactly the same pages.
func (s *PageSet) Equal(other *PageSet) bool {
	return s.Len() == other.Len() && s.Subset(other)
}

// Subset reports whether every element of s is in other.
func (s *PageSet) Subset(other *PageSet) bool {
	if s.Len() > other.Len() {
		return false
	}
	b := other.bitmap()
	for i, w := range s.bitmap() {
		var o uint64
		if i < len(b) {
			o = b[i]
		}
		if w&^o != 0 {
			return false
		}
	}
	return true
}

// Sorted returns the elements in ascending order (for deterministic
// iteration and error messages).
func (s *PageSet) Sorted() []hw.PhysAddr {
	out := make([]hw.PhysAddr, 0, s.Len())
	for i, w := range s.bitmap() {
		for ; w != 0; w &= w - 1 {
			f := uint64(i)*64 + uint64(bits.TrailingZeros64(w))
			out = append(out, hw.PhysAddr(f*hw.PageSize4K))
		}
	}
	return out
}
