package iommu

import (
	"errors"
	"testing"

	"atmosphere/internal/hw"
	"atmosphere/internal/mem"
)

// wf fails the test if the unit's invariants do not hold; the lifecycle
// tests call it after every transition so a violation pins the exact
// step that introduced it.
func wf(t *testing.T, u *IOMMU) {
	t.Helper()
	if err := u.CheckWF(nil); err != nil {
		t.Fatalf("well-formedness broken: %v", err)
	}
}

// TestDoubleDetach: the second detach of the same device must fail with
// ErrDeviceNotBound and leave all domain state untouched.
func TestDoubleDetach(t *testing.T) {
	u, _ := newIOMMU(t)
	d, err := u.CreateDomain()
	if err != nil {
		t.Fatal(err)
	}
	const dev = DeviceID(3)
	if err := u.AttachDevice(dev, d.ID); err != nil {
		t.Fatal(err)
	}
	wf(t, u)
	if err := u.DetachDevice(dev); err != nil {
		t.Fatal(err)
	}
	wf(t, u)
	if err := u.DetachDevice(dev); !errors.Is(err, ErrDeviceNotBound) {
		t.Fatalf("double detach: %v, want ErrDeviceNotBound", err)
	}
	wf(t, u)
	if len(d.Devices) != 0 {
		t.Fatalf("domain still lists %d devices after detach", len(d.Devices))
	}
	// A detached device must be re-attachable; a failed detach must not
	// have left a phantom binding in the way.
	if err := u.AttachDevice(dev, d.ID); err != nil {
		t.Fatalf("re-attach after double detach: %v", err)
	}
	wf(t, u)
}

// TestDestroyBusyDomain: destroying a domain with devices attached is
// refused with ErrDomainBusy, succeeds once the device is gone, and the
// dead ID rejects every subsequent operation with ErrNoDomain.
func TestDestroyBusyDomain(t *testing.T) {
	u, _ := newIOMMU(t)
	d, err := u.CreateDomain()
	if err != nil {
		t.Fatal(err)
	}
	const dev = DeviceID(7)
	if err := u.AttachDevice(dev, d.ID); err != nil {
		t.Fatal(err)
	}
	if err := u.Map(d.ID, 0x1000, 0x8000); err != nil {
		t.Fatal(err)
	}
	wf(t, u)

	if err := u.DestroyDomain(d.ID); !errors.Is(err, ErrDomainBusy) {
		t.Fatalf("destroy with attached device: %v, want ErrDomainBusy", err)
	}
	wf(t, u)
	// The refused destroy must not have revoked the device's view.
	if _, ok := u.Translate(dev, 0x1000); !ok {
		t.Fatal("mapping lost after refused destroy")
	}

	if err := u.DetachDevice(dev); err != nil {
		t.Fatal(err)
	}
	if err := u.DestroyDomain(d.ID); err != nil {
		t.Fatalf("destroy after detach: %v", err)
	}
	wf(t, u)

	if err := u.DestroyDomain(d.ID); !errors.Is(err, ErrNoDomain) {
		t.Fatalf("second destroy: %v, want ErrNoDomain", err)
	}
	if err := u.Map(d.ID, 0x2000, 0x9000); !errors.Is(err, ErrNoDomain) {
		t.Fatalf("map into dead domain: %v, want ErrNoDomain", err)
	}
	if err := u.Unmap(d.ID, 0x1000); !errors.Is(err, ErrNoDomain) {
		t.Fatalf("unmap from dead domain: %v, want ErrNoDomain", err)
	}
	if err := u.AttachDevice(dev, d.ID); !errors.Is(err, ErrNoDomain) {
		t.Fatalf("attach to dead domain: %v, want ErrNoDomain", err)
	}
	if _, ok := u.Translate(dev, 0x1000); ok {
		t.Fatal("detached device still translates")
	}
	wf(t, u)
}

// TestDoubleAttachAcrossDomains: a device bound to one domain cannot be
// bound to a second without detaching first — the isolation invariant
// the unit exists to enforce.
func TestDoubleAttachAcrossDomains(t *testing.T) {
	u, _ := newIOMMU(t)
	d1, err := u.CreateDomain()
	if err != nil {
		t.Fatal(err)
	}
	d2, err := u.CreateDomain()
	if err != nil {
		t.Fatal(err)
	}
	const dev = DeviceID(1)
	if err := u.AttachDevice(dev, d1.ID); err != nil {
		t.Fatal(err)
	}
	if err := u.AttachDevice(dev, d2.ID); !errors.Is(err, ErrDeviceBound) {
		t.Fatalf("re-attach without detach: %v, want ErrDeviceBound", err)
	}
	wf(t, u)
	// Only d1 may carry the binding; a half-applied attach would list the
	// device in both.
	if _, in1 := d1.Devices[dev]; !in1 {
		t.Fatal("device missing from its domain")
	}
	if _, in2 := d2.Devices[dev]; in2 {
		t.Fatal("failed attach leaked the device into the second domain")
	}
	// Migration via detach+attach works and moves the translation view.
	if err := u.Map(d2.ID, 0x3000, 0xa000); err != nil {
		t.Fatal(err)
	}
	if err := u.DetachDevice(dev); err != nil {
		t.Fatal(err)
	}
	if err := u.AttachDevice(dev, d2.ID); err != nil {
		t.Fatal(err)
	}
	if pa, ok := u.Translate(dev, 0x3000); !ok || pa != 0xa000 {
		t.Fatalf("migrated device translate = %#x,%v", pa, ok)
	}
	wf(t, u)
}

// TestLifecycleChurn cycles create/attach/map/unmap/detach/destroy many
// times; page accounting must return to the baseline every round, so a
// leak anywhere in the lifecycle shows up as monotonic growth.
func TestLifecycleChurn(t *testing.T) {
	pm := hw.NewPhysMem(256)
	clk := &hw.Clock{}
	alloc := mem.NewAllocator(pm, clk, 1)
	u, err := New(alloc, clk)
	if err != nil {
		t.Fatal(err)
	}
	baseline := pageClosure(u).Len()
	for round := 0; round < 32; round++ {
		d, err := u.CreateDomain()
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		dev := DeviceID(round % 5)
		if err := u.AttachDevice(dev, d.ID); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for i := 0; i < 4; i++ {
			if err := u.Map(d.ID, hw.VirtAddr(0x1000*(i+1)), hw.PhysAddr(0x10000+0x1000*i)); err != nil {
				t.Fatalf("round %d map %d: %v", round, i, err)
			}
		}
		wf(t, u)
		if err := u.DetachDevice(dev); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		// DestroyDomain unmaps the leftovers itself.
		if err := u.DestroyDomain(d.ID); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		wf(t, u)
		if got := pageClosure(u).Len(); got != baseline {
			t.Fatalf("round %d: page closure %d pages, baseline %d — lifecycle leaks", round, got, baseline)
		}
	}
}
