package contend

import (
	"testing"

	"atmosphere/internal/hw"
)

// The post-release check's bookkeeping, on synthetic events: flushes
// outside an entry pass unchecked, a frame on the invoking core's cache
// passes, a frame anywhere else counts once per entry however often the
// entry reports it, the first violation names the syscall, frame,
// destination and held frontiers, and re-arming resets the check.
func TestPostReleaseCountsFramesPerEntry(t *testing.T) {
	plant := func() (*Observatory, string) {
		o := New()
		var root hw.LockSim
		root.SetIdentity("container", "root")
		id := o.Register(&root)
		cached := map[hw.PhysAddr]int{0x1000: 0, 0x2000: 1}
		home := func(f hw.PhysAddr) (int, string) {
			if q, ok := cached[f]; ok {
				return q, ""
			}
			return -1, "the shared free list"
		}
		o.FlushedAfterRelease(0x3000) // disarmed
		o.ArmOrder(KernelOrder(), 2)
		o.CheckFlushes(home)
		o.FlushedAfterRelease(0x3000) // outside any entry

		o.Acquired(0, id, "syscall")
		o.BeginEntry(0)
		o.FlushedAfterRelease(0x1000) // core 0's own cache
		o.FlushedAfterRelease(0x3000)
		o.FlushedAfterRelease(0x3000)
		o.FlushedAfterRelease(0x2000) // core 1's cache
		o.EndEntry("munmap")
		o.Released(0, id)
		if n := o.UnflushedCount(); n != 2 {
			t.Fatalf("UnflushedCount = %d, want 2", n)
		}
		if n := o.CheckedFlushes(); n != 3 {
			t.Fatalf("CheckedFlushes = %d, want 3", n)
		}

		o.BeginEntry(1)
		o.FlushedAfterRelease(0x2000) // core 1's own cache
		o.FlushedAfterRelease(0x3000)
		o.EndEntry("munmap")
		if o.UnflushedCount() != 3 || o.FirstUnflushed().Frame != 0x3000 || o.FirstUnflushed().Core != 0 {
			t.Fatalf("second entry: count %d, first %v", o.UnflushedCount(), o.FirstUnflushed())
		}
		return o, o.Violation().Error()
	}
	o, first := plant()
	if _, second := plant(); first != second {
		t.Errorf("report not deterministic:\n%s\n%s", first, second)
	}
	want := "post-release violation on core 0: munmap shot down frame 0x3000 after releasing [container/root], but the frame went to the shared free list, not core 0's page cache"
	if first != want {
		t.Errorf("report = %q, want %q", first, want)
	}

	o.ArmOrder(KernelOrder(), 2)
	if o.UnflushedCount() != 0 || o.CheckedFlushes() != 0 || o.Violation() != nil {
		t.Fatalf("re-arm kept %d violations", o.UnflushedCount())
	}
	o.BeginEntry(0)
	o.FlushedAfterRelease(0x3000) // the locator went with the re-arm
	o.EndEntry("munmap")
	if o.Violation() != nil {
		t.Fatalf("unarmed check reported %v", o.Violation())
	}
}
