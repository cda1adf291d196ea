package iommu

import (
	"errors"
	"testing"

	"atmosphere/internal/hw"
	"atmosphere/internal/mem"
)

func newIOMMU(t *testing.T) (*IOMMU, *mem.Allocator) {
	t.Helper()
	pm := hw.NewPhysMem(256)
	clk := &hw.Clock{}
	alloc := mem.NewAllocator(pm, clk, 1)
	u, err := New(alloc, clk)
	if err != nil {
		t.Fatal(err)
	}
	return u, alloc
}

func TestDomainLifecycle(t *testing.T) {
	u, _ := newIOMMU(t)
	d, err := u.CreateDomain()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := u.Domain(d.ID); err != nil {
		t.Fatal(err)
	}
	if err := u.DestroyDomain(d.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := u.Domain(d.ID); !errors.Is(err, ErrNoDomain) {
		t.Fatal("destroyed domain still visible")
	}
}

func TestAttachDetach(t *testing.T) {
	u, _ := newIOMMU(t)
	d, _ := u.CreateDomain()
	if err := u.AttachDevice(7, d.ID); err != nil {
		t.Fatal(err)
	}
	if err := u.AttachDevice(7, d.ID); !errors.Is(err, ErrDeviceBound) {
		t.Fatal("double attach accepted")
	}
	if err := u.DestroyDomain(d.ID); !errors.Is(err, ErrDomainBusy) {
		t.Fatal("destroyed domain with attached device")
	}
	if err := u.DetachDevice(7); err != nil {
		t.Fatal(err)
	}
	if err := u.DetachDevice(7); !errors.Is(err, ErrDeviceNotBound) {
		t.Fatal("double detach accepted")
	}
	if err := u.DestroyDomain(d.ID); err != nil {
		t.Fatal(err)
	}
}

func TestAttachToDeadDomain(t *testing.T) {
	u, _ := newIOMMU(t)
	if err := u.AttachDevice(1, 999); !errors.Is(err, ErrNoDomain) {
		t.Fatal("attach to missing domain accepted")
	}
}

func TestTranslate(t *testing.T) {
	u, alloc := newIOMMU(t)
	d, _ := u.CreateDomain()
	u.AttachDevice(3, d.ID)
	buf, err := alloc.AllocUserPage4K()
	if err != nil {
		t.Fatal(err)
	}
	if err := u.Map(d.ID, 0x10000, buf); err != nil {
		t.Fatal(err)
	}
	pa, ok := u.Translate(3, 0x10234)
	if !ok || pa != buf+0x234 {
		t.Fatalf("translate = %#x ok=%v", pa, ok)
	}
	// Unbound device must fault.
	if _, ok := u.Translate(4, 0x10000); ok {
		t.Fatal("unbound device translated")
	}
	// Unmapped iova must fault.
	if _, ok := u.Translate(3, 0x99000); ok {
		t.Fatal("unmapped iova translated")
	}
	if err := u.Unmap(d.ID, 0x10000); err != nil {
		t.Fatal(err)
	}
	if _, ok := u.Translate(3, 0x10000); ok {
		t.Fatal("translated after unmap")
	}
}

func TestDMAIsolationBetweenDomains(t *testing.T) {
	u, alloc := newIOMMU(t)
	d1, _ := u.CreateDomain()
	d2, _ := u.CreateDomain()
	u.AttachDevice(1, d1.ID)
	u.AttachDevice(2, d2.ID)
	p1, _ := alloc.AllocUserPage4K()
	u.Map(d1.ID, 0x1000, p1)
	// Device 2 must not see domain 1's mapping.
	if _, ok := u.Translate(2, 0x1000); ok {
		t.Fatal("cross-domain translation leaked")
	}
}

func TestPageClosureAccounting(t *testing.T) {
	u, alloc := newIOMMU(t)
	d, _ := u.CreateDomain()
	p, _ := alloc.AllocUserPage4K()
	u.Map(d.ID, 0x40000000, p)
	// The IOMMU owns every allocated page on this machine.
	closure, owned := pageClosure(u), alloc.Snapshot().Allocated
	if !closure.Equal(owned) {
		t.Fatalf("closure %d pages, allocator says %d", closure.Len(), owned.Len())
	}
	if err := u.CheckWF(nil); err != nil {
		t.Fatal(err)
	}
}

// pageClosure returns the unit's page closure as a fresh set.
func pageClosure(u *IOMMU) *mem.PageSet {
	s := mem.NewPageSet()
	u.PageClosureInto(s)
	return s
}

func TestDestroyDomainReclaimsPages(t *testing.T) {
	u, alloc := newIOMMU(t)
	before := alloc.Snapshot().Allocated.Len()
	d, _ := u.CreateDomain()
	p, _ := alloc.AllocUserPage4K()
	if err := u.Map(d.ID, 0x2000, p); err != nil {
		t.Fatal(err)
	}
	if err := u.DestroyDomain(d.ID); err != nil {
		t.Fatal(err)
	}
	if got := alloc.Snapshot().Allocated.Len(); got != before {
		t.Fatalf("domain destroy leaked: %d -> %d pages", before, got)
	}
}

func TestCheckWFCatchesCorruption(t *testing.T) {
	u, _ := newIOMMU(t)
	d, _ := u.CreateDomain()
	u.AttachDevice(5, d.ID)
	// Corrupt: remove from domain set but leave context binding.
	delete(d.Devices, 5)
	if err := u.CheckWF(nil); err == nil {
		t.Fatal("corrupted device sets passed CheckWF")
	}
}
