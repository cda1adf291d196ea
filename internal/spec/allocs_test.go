//go:build !race

package spec

import (
	"testing"

	"atmosphere/internal/hw"
	"atmosphere/internal/kernel"
	"atmosphere/internal/pt"
)

// The per-step refinement oracles allocate nothing on a warm kernel:
// Load refills a warm State in place, SnapshotInto reuses a warm
// Snapshot's sets, and Diff compares containers in place, loads every
// other kernel object into its reused scratch and sorts nothing when
// kernel and spec agree.
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
	var st State
	st.Load(k.PM, k.Alloc, k.IOMMU)
	ip := NewInterp(k.PM, k.IOMMU)
	if err := ip.Diff(k.PM, k.IOMMU); err != nil {
		t.Fatal(err)
	}
	snap := k.Alloc.Snapshot()
	for _, pin := range []struct {
		name string
		f    func()
	}{
		{"State.Load", func() { st.Load(k.PM, k.Alloc, k.IOMMU) }},
		{"Allocator.SnapshotInto", func() { k.Alloc.SnapshotInto(&snap) }},
		{"Interp.Diff", func() { _ = ip.Diff(k.PM, k.IOMMU) }},
	} {
		if n := testing.AllocsPerRun(20, pin.f); n != 0 {
			t.Errorf("%s allocates %.2f times per call on a warm kernel, want 0", pin.name, n)
		}
	}
}
