//go:build !race

package spec

import (
	"testing"

	"atmosphere/internal/hw"
	"atmosphere/internal/kernel"
	"atmosphere/internal/pt"
)

// The per-step refinement oracle allocates nothing on a warm kernel:
// Diff compares containers in place, loads every other kernel object
// into its reused scratch and sorts nothing when kernel and spec agree.
// (The invariant suite's pin is verify.TestWFChecksAllocateNothing. The
// race runtime may allocate on its own, so this file builds without
// -race.)
func TestOracleRefillsAllocateNothing(t *testing.T) {
	k, init := boot(t)
	for _, r := range []kernel.Ret{
		k.SysNewContainer(0, init, 20, []int{0}),
		k.SysNewEndpoint(0, init, 1),
		k.SysSendAsync(0, init, 1, kernel.SendArgs{}),
		k.SysMmap(0, init, 0x400000, 4, hw.Size4K, pt.RW),
		k.SysIommuCreateDomain(0, init),
		k.SysIommuMap(0, init, 0x400000),
	} {
		if r.Errno != kernel.OK {
			t.Fatal(r.Errno)
		}
	}
	ip := NewInterp(k)
	if err := ip.Diff(); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() { _ = ip.Diff() }); n != 0 {
		t.Errorf("Interp.Diff allocates %.2f times per call on a warm kernel, want 0", n)
	}
}
