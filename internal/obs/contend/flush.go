package contend

import (
	"fmt"
	"strings"

	"atmosphere/internal/hw"
)

// The post-release check. A syscall may count a TLB shootdown after it
// releases its frontiers: the kernel's munmap does so for a frame whose
// last reference parks it in the invoking core's own page cache. No
// frontier fences such a flush, so until it is done the frame must stay
// where no other core can take it. The kernel reports each such frame
// (FlushedAfterRelease); at EndEntry the check asks the armed locator
// where the frame is, and a frame that is not on the invoking core's
// cache stack is a violation. Like the coverage check it reads the
// order checker's held stacks, is armed only while that checker is
// (CheckFlushes after ArmOrder), and a re-arm resets it.

// FrameHome locates a frame at the end of a funnel entry: the core whose
// page-cache stack holds it, or -1 and where the frame is instead.
type FrameHome func(frame hw.PhysAddr) (core int, elsewhere string)

// Unflushed captures one post-release violation: core Core's funnel
// entry for Syscall, holding Held (class/instance, in acquisition
// order), counted frame Frame's shootdown after release, but the frame
// ended the entry in Went instead of on the core's page-cache stack.
type Unflushed struct {
	Core    int
	Syscall string
	Frame   hw.PhysAddr
	Went    string
	Held    []string
}

// String renders the deterministic one-line report.
func (u *Unflushed) String() string {
	if u == nil {
		return "<no post-release violation>"
	}
	return fmt.Sprintf("post-release violation on core %d: %s shot down frame %#x after releasing [%s], but the frame went to %s, not core %d's page cache",
		u.Core, u.Syscall, uint64(u.Frame), strings.Join(u.Held, " "), u.Went, u.Core)
}

// Error makes a post-release violation a checker failure.
func (u *Unflushed) Error() string { return u.String() }

// flushCheck is the armed check's state inside orderChecker. One
// violation is one entry and one frame, however often the entry
// reports that frame.
type flushCheck struct {
	home    FrameHome     // nil while unarmed
	frames  []hw.PhysAddr // frames the in-flight entry flushed after release
	first   *Unflushed
	count   uint64 // violations
	checked uint64 // post-release flushes examined
}

// CheckFlushes arms the post-release check with the locator that says
// where a frame is. It needs the order checker armed (a no-op
// otherwise).
func (o *Observatory) CheckFlushes(home FrameHome) {
	if o == nil || o.order == nil {
		return
	}
	o.order.flush.home = home
}

// FlushedAfterRelease records that the in-flight entry counted frame's
// TLB shootdown after releasing its frontiers. No-op unless armed or
// outside an entry.
func (o *Observatory) FlushedAfterRelease(frame hw.PhysAddr) {
	if o == nil || o.order == nil || o.order.flush.home == nil || o.order.entry < 0 {
		return
	}
	f := &o.order.flush
	for _, g := range f.frames {
		if g == frame {
			return
		}
	}
	f.frames = append(f.frames, frame)
}

// endFlushes closes the entry for the post-release check: every frame
// it flushed after release must sit on the invoking core's cache stack.
func (o *Observatory) endFlushes(sys string) {
	f := &o.order.flush
	core := o.order.entry
	for _, frame := range f.frames {
		f.checked++
		q, went := f.home(frame)
		if q == core {
			continue
		}
		f.count++
		if f.first != nil {
			continue
		}
		if q >= 0 {
			went = fmt.Sprintf("core %d's page cache", q)
		}
		f.first = &Unflushed{Core: core, Syscall: sys, Frame: frame, Went: went, Held: o.heldIdents(core)}
	}
	f.frames = f.frames[:0]
}

// FirstUnflushed returns the first post-release violation (nil if none,
// or the check never armed). Deterministic like the other checks: same
// program, same schedule, same line.
func (o *Observatory) FirstUnflushed() *Unflushed {
	if o == nil || o.order == nil {
		return nil
	}
	return o.order.flush.first
}

// UnflushedCount returns how many post-release violations the armed
// check has seen (0 when disarmed).
func (o *Observatory) UnflushedCount() uint64 {
	if o == nil || o.order == nil {
		return 0
	}
	return o.order.flush.count
}

// CheckedFlushes returns how many post-release flushes the armed check
// has examined, so a clean run can show it checked something.
func (o *Observatory) CheckedFlushes() uint64 {
	if o == nil || o.order == nil {
		return 0
	}
	return o.order.flush.checked
}
