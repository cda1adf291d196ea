package verify

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"atmosphere/internal/hw"
	"atmosphere/internal/kernel"
	"atmosphere/internal/pm"
	"atmosphere/internal/pt"
)

// caughtOnlyUnder runs scenario on a fresh checked kernel with and
// without mutant planted: planted, the first checked step to fail must
// fail with a message containing want; clean, every step must pass. It
// returns the planted run's Checker.
func caughtOnlyUnder(t *testing.T, mutant kernel.Mutant, scenario func(c *Checker, init pm.Ptr) error, want func(c *Checker, init pm.Ptr) string) *Checker {
	t.Helper()
	var c *Checker
	for _, planted := range []bool{false, true} {
		var init pm.Ptr
		c, init = newChecker(t)
		if planted {
			c.K.SetMutantForTest(mutant)
		}
		err := scenario(c, init)
		switch {
		case !planted && err != nil:
			t.Fatalf("clean kernel: %v", err)
		case planted && (err == nil || !strings.Contains(err.Error(), want(c, init))):
			t.Fatalf("planted mutant: err = %v, want it to name %q", err, want(c, init))
		}
	}
	return c
}

// steps runs checked syscalls in order and returns the first failure:
// a checker error or an errno other than OK and EWOULDBLOCK.
func steps(calls ...func() (kernel.Ret, error)) error {
	for i, call := range calls {
		r, err := call()
		if err == nil && r.Errno != kernel.OK && r.Errno != kernel.EWOULDBLOCK {
			err = fmt.Errorf("syscall %d: %v", i, r.Errno)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// The double grant (kernel.MutantGrantLeak): a page granted over a
// checked send_async stays mapped in the sender's address space, and
// charged to its container, where the spec revoked it at send. Diff
// compares containers before address spaces, so it names the charge.
func TestCheckerCatchesDoubleGrant(t *testing.T) {
	const va = hw.VirtAddr(0x40_0000)
	var sender pm.Ptr
	c := caughtOnlyUnder(t, kernel.MutantGrantLeak, func(c *Checker, init pm.Ptr) error {
		sender = c.K.PM.Thrd(init).OwningProc
		return steps(
			func() (kernel.Ret, error) { return c.NewEndpoint(0, init, 0) },
			func() (kernel.Ret, error) { return c.Mmap(0, init, va, 1, hw.Size4K, pt.RW) },
			func() (kernel.Ret, error) {
				return c.SendAsync(0, init, 0, kernel.SendArgs{GrantPage: true, PageVA: va})
			},
			func() (kernel.Ret, error) {
				return c.Recv(0, init, 0, kernel.RecvArgs{PageVA: 0x80_0000, EdptSlot: -1})
			},
		)
	}, func(c *Checker, init pm.Ptr) string {
		used := c.K.PM.Cntr(c.K.PM.RootContainer).UsedPages
		return fmt.Sprintf("send_async spec: container %#x: used_pages kernel=%d spec=%d",
			c.K.PM.RootContainer, used, used-1)
	})
	if _, kept := c.K.PM.Proc(sender).PageTable.Mapping(va); !kept {
		t.Fatal("the planted kernel revoked the sender's mapping")
	}
	if _, kept := c.ip.St.AddressSpaces[sender][va]; kept {
		t.Fatal("the spec kept the sender's mapping")
	}
}

// An mmap whose second page aliases its first page's frame
// (kernel.MutantMmapAlias) keeps every reference count consistent; the
// fresh-frame witness catches it.
func TestCheckerCatchesMmapAlias(t *testing.T) {
	caughtOnlyUnder(t, kernel.MutantMmapAlias, func(c *Checker, init pm.Ptr) error {
		return steps(func() (kernel.Ret, error) { return c.Mmap(0, init, 0x40_0000, 2, hw.Size4K, pt.RW) })
	}, func(c *Checker, init pm.Ptr) string {
		e, _ := c.K.PM.Proc(c.K.PM.Thrd(init).OwningProc).PageTable.Mapping(0x40_0000)
		return fmt.Sprintf("mmap spec: mmap: va 0x400000 maps frame %#x holding 2 references", uint64(e.Phys))
	})
}

// An mmap whose first page maps the frame the caller already maps just
// below it (kernel.MutantMmapReuse) keeps every reference count
// consistent; the fresh-frame witness catches it.
func TestCheckerCatchesMmapReuse(t *testing.T) {
	caughtOnlyUnder(t, kernel.MutantMmapReuse, func(c *Checker, init pm.Ptr) error {
		return steps(
			func() (kernel.Ret, error) { return c.Mmap(0, init, 0x40_0000, 1, hw.Size4K, pt.RW) },
			func() (kernel.Ret, error) { return c.Mmap(0, init, 0x40_1000, 1, hw.Size4K, pt.RW) },
		)
	}, func(c *Checker, init pm.Ptr) string {
		e, _ := c.K.PM.Proc(c.K.PM.Thrd(init).OwningProc).PageTable.Mapping(0x40_0000)
		return fmt.Sprintf("mmap spec: mmap: va 0x401000 maps frame %#x holding 2 references", uint64(e.Phys))
	})
}

// A munmap that moves the page just past its range onto a fresh frame
// (kernel.MutantMunmapRemap) keeps every reference count and the quota
// consistent; the surviving mapping's frame in Ψ′ catches it.
func TestCheckerCatchesMunmapRemap(t *testing.T) {
	caughtOnlyUnder(t, kernel.MutantMunmapRemap, func(c *Checker, init pm.Ptr) error {
		return steps(
			func() (kernel.Ret, error) { return c.Mmap(0, init, 0x40_0000, 2, hw.Size4K, pt.RW) },
			func() (kernel.Ret, error) { return c.Munmap(0, init, 0x40_0000, 1, hw.Size4K) },
		)
	}, func(c *Checker, init pm.Ptr) string {
		proc := c.K.PM.Thrd(init).OwningProc
		e, _ := c.K.PM.Proc(proc).PageTable.Mapping(0x40_1000)
		return fmt.Sprintf("munmap spec: address space %#x: va 0x401000 frame kernel=%#x spec=%#x",
			proc, uint64(e.Phys), uint64(c.ip.St.AddressSpaces[proc][0x40_1000].Phys))
	})
}

// An iommu_map that pins the frame of va+4K instead of va's
// (kernel.MutantIommuWrongFrame) is a consistent pin on the wrong page;
// the DMA mapping's frame, copied from the address space, catches it.
func TestCheckerCatchesIommuWrongFrame(t *testing.T) {
	const va = hw.VirtAddr(0x40_0000)
	caughtOnlyUnder(t, kernel.MutantIommuWrongFrame, func(c *Checker, init pm.Ptr) error {
		return steps(
			func() (kernel.Ret, error) { return c.Mmap(0, init, va, 2, hw.Size4K, pt.RW) },
			func() (kernel.Ret, error) { return c.IommuCreateDomain(0, init) },
			func() (kernel.Ret, error) { return c.IommuMap(0, init, va) },
		)
	}, func(c *Checker, init pm.Ptr) string {
		table := c.K.PM.Proc(c.K.PM.Thrd(init).OwningProc).PageTable
		e, _ := table.Mapping(va)
		next, _ := table.Mapping(va + hw.PageSize4K)
		return fmt.Sprintf("iommu_map spec: dma space 1: va %#x frame kernel=%#x spec=%#x",
			uint64(va), uint64(next.Phys), uint64(e.Phys))
	})
}

// Every syscall has a spec step: each exported Sys method of the kernel
// has a Checker method of the same name, less the prefix, but for the
// listed exceptions.
func TestEverySyscallHasASpecStep(t *testing.T) {
	exceptions := map[string]string{
		"SysBatch": "wraps SysBatchRings over rings in the caller's memory; BatchRings checks the doorbell completion by completion",
	}
	kt, ct := reflect.TypeOf(&kernel.Kernel{}), reflect.TypeOf(&Checker{})
	for i := 0; i < kt.NumMethod(); i++ {
		name := kt.Method(i).Name
		if !strings.HasPrefix(name, "Sys") {
			continue
		}
		_, checked := ct.MethodByName(strings.TrimPrefix(name, "Sys"))
		if _, excepted := exceptions[name]; checked == excepted {
			t.Errorf("kernel.%s: Checker method %v, listed exception %v", name, checked, excepted)
		}
	}
}
