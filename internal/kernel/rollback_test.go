package kernel_test

import (
	"testing"

	"atmosphere/internal/hw"
	"atmosphere/internal/kernel"
	"atmosphere/internal/pm"
	"atmosphere/internal/pt"
	"atmosphere/internal/verify"
)

// TestRefusedAllocationRollsBack refuses each allocation a page-mapping
// syscall makes into an empty region, in turn: the user page and the
// three table nodes of an mmap, the three nodes a granted page needs at
// the receiver's RecvVA, and the three nodes of an iommu_map's domain
// table. Each refusal must fail the syscall with ENOMEM, restore the
// caller's quota and leave every invariant holding: no node a failed
// map installed may stay behind, charged or not.
func TestRefusedAllocationRollsBack(t *testing.T) {
	const (
		mapped = hw.VirtAddr(0x4000_0000) // a page the setup maps
		fresh  = hw.VirtAddr(5) << 39     // a PML4 slot nothing maps under
	)
	cases := []struct {
		name   string
		allocs int // allocations the syscall makes when none is refused
		// setup prepares a booted kernel and returns the syscall.
		setup func(t *testing.T, k *kernel.Kernel, init pm.Ptr) func() kernel.Ret
	}{
		{"mmap", 4, func(t *testing.T, k *kernel.Kernel, init pm.Ptr) func() kernel.Ret {
			return func() kernel.Ret { return k.SysMmap(0, init, fresh, 1, hw.Size4K, pt.RW) }
		}},
		{"grant", 3, func(t *testing.T, k *kernel.Kernel, init pm.Ptr) func() kernel.Ret {
			mustOK(t, k.SysMmap(0, init, mapped, 1, hw.Size4K, pt.RW))
			mustOK(t, k.SysNewEndpoint(0, init, 0))
			mustOK(t, k.SysSendAsync(0, init, 0, kernel.SendArgs{GrantPage: true, PageVA: mapped}))
			return func() kernel.Ret { return k.SysRecv(0, init, 0, kernel.RecvArgs{PageVA: fresh, EdptSlot: -1}) }
		}},
		{"iommu_map", 3, func(t *testing.T, k *kernel.Kernel, init pm.Ptr) func() kernel.Ret {
			mustOK(t, k.SysMmap(0, init, mapped, 1, hw.Size4K, pt.RW))
			mustOK(t, k.SysIommuCreateDomain(0, init))
			return func() kernel.Ret { return k.SysIommuMap(0, init, mapped) }
		}},
	}
	for _, c := range cases {
		// refuse == 0 refuses nothing and pins the allocation count.
		for refuse := 0; refuse <= c.allocs; refuse++ {
			k, init, err := kernel.Boot(hw.Config{Frames: 2048, Cores: 2, TLBSlots: 64})
			if err != nil {
				t.Fatal(err)
			}
			call := c.setup(t, k, init)
			root := k.PM.Cntr(k.PM.RootContainer)
			used := root.UsedPages
			n := 0
			k.Alloc.SetFaultHook(func() bool { n++; return n == refuse })
			r := call()
			k.Alloc.SetFaultHook(nil)
			if refuse == 0 {
				if r.Errno != kernel.OK || n != c.allocs {
					t.Fatalf("%s: %v after %d allocations, want OK after %d", c.name, r.Errno, n, c.allocs)
				}
				continue
			}
			if r.Errno != kernel.ENOMEM {
				t.Errorf("%s, allocation %d refused: %v, want ENOMEM", c.name, refuse, r.Errno)
			}
			if root.UsedPages != used {
				t.Errorf("%s, allocation %d refused: root uses %d pages, %d before", c.name, refuse, root.UsedPages, used)
			}
			if err := verify.TotalWF(k); err != nil {
				t.Errorf("%s, allocation %d refused: %v", c.name, refuse, err)
			}
		}
	}
}

func mustOK(t *testing.T, r kernel.Ret) {
	t.Helper()
	if r.Errno != kernel.OK {
		t.Fatalf("setup syscall: %v", r.Errno)
	}
}
