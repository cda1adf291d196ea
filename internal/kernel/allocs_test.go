//go:build !race

package kernel

import (
	"runtime"
	"testing"

	"atmosphere/internal/hw"
	"atmosphere/internal/pm"
	"atmosphere/internal/pt"
)

// The hot syscall pairs allocate no host memory once the kernel is warm:
// endpoint and run-queue FIFOs reuse their backing arrays, and mmap's
// rollback state lives on the stack. (The race runtime may allocate on
// its own, so this file builds without -race.)

func TestCallReplyAllocatesNothing(t *testing.T) {
	k, init := boot(t)
	server := pm.Ptr(mustOK(t, k.SysNewThread(0, init, 0)).Vals[0])
	ep := pm.Ptr(mustOK(t, k.SysNewEndpoint(0, init, 0)).Vals[0])
	k.PM.Thrd(server).Endpoints[0] = ep
	k.PM.EndpointIncRef(ep, 1)
	if r := k.SysRecv(0, server, 0, RecvArgs{EdptSlot: -1}); r.Errno != EWOULDBLOCK {
		t.Fatal(r.Errno)
	}
	pinZeroAllocs(t, "call/reply_recv", func() {
		if r := k.SysCall(0, init, 0, SendArgs{}); r.Errno != EWOULDBLOCK {
			t.Fatal(r.Errno)
		}
		if r := k.SysReplyRecv(0, server, 0, SendArgs{}, RecvArgs{EdptSlot: -1}); r.Errno != EWOULDBLOCK {
			t.Fatal(r.Errno)
		}
	})
}

func TestMmapMunmapAllocatesNothing(t *testing.T) {
	k, init := boot(t)
	pinZeroAllocs(t, "mmap/munmap", func() {
		mustOK(t, k.SysMmap(0, init, 0x400000, 1, hw.Size4K, pt.RW))
		mustOK(t, k.SysMunmap(0, init, 0x400000, 1, hw.Size4K))
	})
}

// The post-release check adds nothing on the hot path: a cached 1-page
// pair under contention counts each munmap's shootdown after release,
// and checking it allocates nothing.
func TestCachedMmapMunmapArmedAllocatesNothing(t *testing.T) {
	k, init, o := bootArmed(t)
	k.EnableCoreCaches(4)
	k.EnableContention()
	pinZeroAllocs(t, "cached mmap/munmap", func() {
		mustOK(t, k.SysMmap(0, init, 0x400000, 1, hw.Size4K, pt.RW))
		mustOK(t, k.SysMunmap(0, init, 0x400000, 1, hw.Size4K))
	})
	if err := o.Violation(); err != nil {
		t.Fatal(err)
	}
	if o.CheckedFlushes() == 0 {
		t.Fatal("no munmap counted its shootdown after release: the pin proves nothing")
	}
}

func TestSendAsyncRecvAllocatesNothing(t *testing.T) {
	k, init := boot(t)
	mustOK(t, k.SysNewEndpoint(0, init, 0))
	pinZeroAllocs(t, "send_async/recv", func() {
		mustOK(t, k.SysSendAsync(0, init, 0, SendArgs{Regs: [4]uint64{7}}))
		if r := mustOK(t, k.SysRecv(0, init, 0, RecvArgs{EdptSlot: -1})); r.Vals[0] != 7 {
			t.Fatalf("recv got %d, want 7", r.Vals[0])
		}
	})
}

// pinZeroAllocs runs f once to warm the kernel, then requires that f
// allocates nothing on average.
func pinZeroAllocs(t *testing.T, name string, f func()) {
	t.Helper()
	f()
	if n := testing.AllocsPerRun(100, f); n != 0 {
		t.Fatalf("%s allocates %.2f times per pair on a warm kernel, want 0", name, n)
	}
}

// A kill run to completion does host work linear in its victim: the
// allocations of kill_container do not grow with the number of pages,
// as they would if the walk rescanned the address space for each unit.
func TestKillAllocationsFlatInPages(t *testing.T) {
	allocs := func(pages int) float64 {
		k, init, err := Boot(hw.Config{Frames: 8192, Cores: 1, TLBSlots: 64})
		if err != nil {
			t.Fatal(err)
		}
		const runs = 3
		var victims []pm.Ptr // one per run, plus AllocsPerRun's warm-up
		for i := 0; i <= runs; i++ {
			cntr := pm.Ptr(mustOK(t, k.SysNewContainer(0, init, uint64(pages)+16, []int{0})).Vals[0])
			p := pm.Ptr(mustOK(t, k.SysNewProcessIn(0, init, cntr)).Vals[0])
			th := pm.Ptr(mustOK(t, k.SysNewThreadIn(0, init, p, 0)).Vals[0])
			mustOK(t, k.SysMmap(0, th, 0x400000, pages, hw.Size4K, pt.RW))
			victims = append(victims, cntr)
		}
		return testing.AllocsPerRun(runs, func() {
			if r := k.SysKillContainer(0, init, victims[0]); r.Errno != OK {
				t.Fatal(r.Errno)
			}
			victims = victims[1:]
		})
	}
	if small, large := allocs(64), allocs(512); large > small {
		t.Errorf("kill_container allocates %.0f times for 512 pages, %.0f for 64", large, small)
	}
}

// A boot's host bytes do not grow with configured RAM: the page
// metadata and the physical frame index cover only the prefix of frames
// the boot touches, and TLB slots come with a core's first Insert. The
// least of three boots at 8,192 frames, the shape every mck run boots,
// and the least of three at 524,288 frames (2 GiB) must lie within
// 1 KiB of each other, and each within 8 KiB. The least of three is
// taken, so a stray runtime allocation cannot fail the pin.
func TestBootBytesPerFrame(t *testing.T) {
	const slack, ceiling = 1 << 10, 8 << 10
	leastBoot := func(frames int) uint64 {
		var least uint64
		for i := 0; i < 3; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, _, err := Boot(hw.Config{Frames: frames, Cores: 4, TLBSlots: 256}); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			if n := after.TotalAlloc - before.TotalAlloc; i == 0 || n < least {
				least = n
			}
		}
		return least
	}
	small, large := leastBoot(8192), leastBoot(524288)
	if max(small, large)-min(small, large) > slack {
		t.Fatalf("Boot allocated %d bytes at 8,192 frames and %d at 524,288, want within %d of each other",
			small, large, slack)
	}
	if max(small, large) > ceiling {
		t.Fatalf("Boot allocated %d bytes at 8,192 frames and %d at 524,288, want at most %d", small, large, ceiling)
	}
	t.Logf("boot allocated %d bytes at 8,192 frames, %d at 524,288", small, large)
}
