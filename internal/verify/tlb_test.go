package verify

import (
	"strings"
	"testing"

	"atmosphere/internal/hw"
	"atmosphere/internal/kernel"
	"atmosphere/internal/pm"
	"atmosphere/internal/pt"
)

// TLBWF catches a shootdown that invalidates only on its initiating
// core (kernel.MutantShootdownLocalOnly) at every unmap site: on a
// 4-core boot, a container reserving cores 1 and 2 has both cores'
// TLBs warmed by hand with the page an op then unmaps. Under the
// mutant the checked op fails tlb_wf; without it, every step is clean.
// The superpage row caches the 2 MiB page's middle, past its first
// 64 KiB.
func TestTLBWFCatchesLocalOnlyShootdown(t *testing.T) {
	const va = hw.VirtAddr(0x4000_0000)
	for _, tc := range []struct {
		name string
		size hw.PageSize
		op   func(c *Checker, init, th, cntr pm.Ptr) (kernel.Ret, error)
	}{
		{"munmap", hw.Size4K, func(c *Checker, _, th, _ pm.Ptr) (kernel.Ret, error) {
			return c.Munmap(1, th, va, 1, hw.Size4K)
		}},
		{"superpage munmap", hw.Size2M, func(c *Checker, _, th, _ pm.Ptr) (kernel.Ret, error) {
			return c.Munmap(1, th, va, 1, hw.Size2M)
		}},
		{"grant", hw.Size4K, func(c *Checker, _, th, _ pm.Ptr) (kernel.Ret, error) {
			return c.Send(1, th, 0, kernel.SendArgs{GrantPage: true, PageVA: va})
		}},
		// The first unit reaps the thread, the second unmaps the page.
		{"kill installment", hw.Size4K, func(c *Checker, init, _, cntr pm.Ptr) (kernel.Ret, error) {
			return c.KillContainerBounded(0, init, cntr, 2)
		}},
		{"kill_container", hw.Size4K, func(c *Checker, init, _, cntr pm.Ptr) (kernel.Ret, error) {
			return c.KillContainer(0, init, cntr)
		}},
	} {
		for _, mutant := range []bool{false, true} {
			c, init := newChecker(t)
			m := musts(t)
			cntr := pm.Ptr(m(c.NewContainer(0, init, 1024, []int{1, 2})).Vals[0])
			proc := pm.Ptr(m(c.NewProcessIn(0, init, cntr)).Vals[0])
			th := pm.Ptr(m(c.NewThreadIn(0, init, proc, 1)).Vals[0])
			m(c.Mmap(1, th, va, 1, tc.size, pt.RW))
			if tc.name == "grant" {
				q := pm.Ptr(m(c.NewProcessIn(0, init, cntr)).Vals[0])
				rcv := pm.Ptr(m(c.NewThreadIn(0, init, q, 2)).Vals[0])
				m(c.NewEndpoint(1, th, 0))
				if err := c.InstallEndpoint(rcv, 0, c.K.PM.Thrd(th).Endpoints[0]); err != nil {
					t.Fatal(err)
				}
				m(c.Recv(2, rcv, 0, kernel.RecvArgs{PageVA: va, EdptSlot: -1}))
			}
			cr3 := c.K.PM.Proc(proc).PageTable.CR3()
			at := va + hw.VirtAddr(tc.size.Bytes()/2) // the page's middle
			tr, ok := c.K.Machine.MMU.Walk(cr3, at)
			if !ok {
				t.Fatalf("%s: walk failed", tc.name)
			}
			for _, core := range []int{1, 2} {
				c.K.Machine.Core(core).TLB.Insert(cr3, at, tr)
			}
			if err := TLBWF(c.K); err != nil {
				t.Fatalf("%s: coherent warm entries flagged: %v", tc.name, err)
			}
			if mutant {
				c.K.SetMutantForTest(kernel.MutantShootdownLocalOnly)
			}
			_, err := tc.op(c, init, th, cntr)
			switch {
			case mutant && (err == nil || !strings.Contains(err.Error(), "tlb_wf")):
				t.Errorf("%s under the local-only mutant: err = %v, want a tlb_wf violation", tc.name, err)
			case !mutant && err != nil:
				t.Errorf("%s: %v", tc.name, err)
			}
		}
	}
}

// TLB coherence costs nothing while no entry is valid — every
// generated run today: no simulated cycles and no host allocation.
func TestTLBWFEmptyIsFree(t *testing.T) {
	c, init := newChecker(t)
	musts(t)(c.Mmap(0, init, 0x40_0000, 1, hw.Size4K, pt.RW))
	before := c.K.Machine.TotalCycles()
	if allocs := testing.AllocsPerRun(10, func() {
		if err := TLBWF(c.K); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("TLBWF allocated %.0f times per run", allocs)
	}
	if c.K.Machine.TotalCycles() != before {
		t.Error("TLBWF charged simulated cycles")
	}
}
