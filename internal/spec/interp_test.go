package spec

import (
	"testing"

	"atmosphere/internal/hw"
	"atmosphere/internal/iommu"
	"atmosphere/internal/pt"
)

// Diff reports the lowest diverging key where it ranges a map, as its
// sorted loops do, so the same divergence gives the same message on
// every call.
func TestDiffReportsLowestKey(t *testing.T) {
	const proc = Ptr(0x5000)
	e := pt.MapEntry{Size: hw.Size4K, Perm: pt.RW}
	type space = map[hw.VirtAddr]pt.MapEntry
	type dma = map[iommu.DomainID]space
	for _, tc := range []struct {
		name         string
		spec, kernel State
		want         string
	}{
		{
			name:   "kernel-only VAs",
			spec:   State{AddressSpaces: map[Ptr]space{proc: {}}, DMASpaces: dma{}},
			kernel: State{AddressSpaces: map[Ptr]space{proc: {0x9000: e, 0x3000: e}}},
			want:   "address space 0x5000: va 0x3000 mapped in kernel, not in spec",
		},
		{
			name:   "kernel-only DMA domains",
			spec:   State{AddressSpaces: map[Ptr]space{}, DMASpaces: dma{}},
			kernel: State{DMASpaces: dma{7: {}, 3: {}}},
			want:   "dma space 3: present in kernel, absent in spec",
		},
		{
			name:   "diverging DMA domains",
			spec:   State{AddressSpaces: map[Ptr]space{}, DMASpaces: dma{7: {0x1000: e}, 3: {0x1000: e}}},
			kernel: State{DMASpaces: dma{7: {}, 3: {}}},
			want:   "dma space 3: va 0x1000 mapped in spec, not in kernel",
		},
	} {
		ip := NewInterp(tc.spec)
		for i := 0; i < 50; i++ {
			err := ip.Diff(tc.kernel)
			if err == nil || err.Error() != tc.want {
				t.Fatalf("%s: call %d: Diff = %v, want %q", tc.name, i, err, tc.want)
			}
		}
	}
}
