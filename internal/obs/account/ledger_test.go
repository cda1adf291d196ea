package account

import (
	"strings"
	"testing"

	"atmosphere/internal/hw"
	"atmosphere/internal/mem"
	"atmosphere/internal/obs"
)

const root = hw.PhysAddr(0x1000)

func testAlloc(frames int) *mem.Allocator {
	m := hw.NewPhysMem(frames)
	var clk hw.Clock
	return mem.NewAllocator(m, &clk, 1)
}

func bound(t *testing.T, frames int) (*Ledger, *mem.Allocator) {
	t.Helper()
	a := testAlloc(frames)
	l := NewLedger()
	l.Bind(a, root)
	l.NameContainer(root, "root")
	return l, a
}

func mustAudit(t *testing.T, l *Ledger) {
	t.Helper()
	if err := l.Audit(); err != nil {
		t.Fatalf("audit: %v", err)
	}
}

func TestLedgerObjectLifecycle(t *testing.T) {
	l, a := bound(t, 64)
	l.SetContext(root)
	p, err := a.AllocPage4K(mem.OwnerProcessMgr)
	if err != nil {
		t.Fatal(err)
	}
	if got := l.ContainerPages(root); got != 1 {
		t.Fatalf("root pages = %d, want 1", got)
	}
	mustAudit(t, l)
	if err := a.FreePage(p); err != nil {
		t.Fatal(err)
	}
	if got := l.ContainerPages(root); got != 0 {
		t.Fatalf("root pages after free = %d, want 0", got)
	}
	mustAudit(t, l)
}

func TestLedgerUserRefsAndMove(t *testing.T) {
	l, a := bound(t, 64)
	other := hw.PhysAddr(0x2000)
	l.NameContainer(other, "other")
	l.SetContext(root)
	p, err := a.AllocUserPage4K()
	if err != nil {
		t.Fatal(err)
	}
	if err := a.IncRef(p); err != nil { // sender grants a second ref
		t.Fatal(err)
	}
	mustAudit(t, l)
	l.MoveRef(p, root, InFlight)
	mustAudit(t, l) // per-page totals unchanged by a move
	l.MoveRef(p, InFlight, other)
	if got := l.ContainerPages(other); got != 1 {
		t.Fatalf("other pages = %d, want 1", got)
	}
	// Receiver unmaps its ref; root's original ref frees the page.
	l.SetContext(other)
	if _, err := a.DecRef(p); err != nil {
		t.Fatal(err)
	}
	l.SetContext(root)
	if _, err := a.DecRef(p); err != nil {
		t.Fatal(err)
	}
	if got := l.LivePages(); got != 0 {
		t.Fatalf("live = %d, want 0", got)
	}
	if got := l.Anomalies(); got != 0 {
		t.Fatalf("anomalies = %d, want 0", got)
	}
	mustAudit(t, l)
}

func TestLedgerSuperpageCounts4KUnits(t *testing.T) {
	l, a := bound(t, 1024)
	l.SetContext(root)
	if _, err := a.Merge2M(); err != nil {
		t.Fatal(err)
	}
	p, err := a.AllocUserPage(mem.Size2M)
	if err != nil {
		t.Fatal(err)
	}
	if got := l.ContainerPages(root); got != hw.Pages4KPer2M {
		t.Fatalf("root pages = %d, want %d", got, hw.Pages4KPer2M)
	}
	if l.Watermark() != hw.Pages4KPer2M {
		t.Fatalf("watermark = %d", l.Watermark())
	}
	mustAudit(t, l)
	if _, err := a.DecRef(p); err != nil {
		t.Fatal(err)
	}
	mustAudit(t, l)
}

// TestLedgerDetectsLeak is the auditor's negative test: a page freed
// behind the ledger's back must fail the audit naming the container
// that held it and the page delta.
func TestLedgerDetectsLeak(t *testing.T) {
	l, a := bound(t, 64)
	l.SetContext(root)
	p, err := a.AllocPage4K(mem.OwnerPageTable)
	if err != nil {
		t.Fatal(err)
	}
	mustAudit(t, l)
	a.SetObserver(nil) // the leak: lifecycle event the ledger never sees
	if err := a.FreePage(p); err != nil {
		t.Fatal(err)
	}
	a.SetObserver(l.PageEvent)
	err = l.Audit()
	if err == nil {
		t.Fatal("audit passed despite a page freed behind the ledger")
	}
	if !strings.Contains(err.Error(), "root") {
		t.Fatalf("audit error does not name the container: %v", err)
	}
	if !strings.Contains(err.Error(), "delta") {
		t.Fatalf("audit error does not give a page delta: %v", err)
	}
	_, fails := l.AuditStats()
	if fails != 1 {
		t.Fatalf("auditFails = %d, want 1", fails)
	}
}

func TestLedgerDetectsHiddenAlloc(t *testing.T) {
	l, a := bound(t, 64)
	a.SetObserver(nil)
	if _, err := a.AllocPage4K(mem.OwnerIOMMU); err != nil {
		t.Fatal(err)
	}
	a.SetObserver(l.PageEvent)
	if err := l.Audit(); err == nil {
		t.Fatal("audit passed despite a page allocated behind the ledger")
	}
}

func TestLedgerSeedsExistingState(t *testing.T) {
	a := testAlloc(64)
	po, err := a.AllocPage4K(mem.OwnerProcessMgr)
	if err != nil {
		t.Fatal(err)
	}
	pu, err := a.AllocUserPage4K()
	if err != nil {
		t.Fatal(err)
	}
	if err := a.IncRef(pu); err != nil {
		t.Fatal(err)
	}
	l := NewLedger()
	l.Bind(a, root)
	if got := l.ContainerPages(root); got != 2 {
		t.Fatalf("seeded root pages = %d, want 2", got)
	}
	mustAudit(t, l)
	_ = po
}

func TestLedgerNilSafe(t *testing.T) {
	var l *Ledger
	l.SetContext(root)
	l.SwapContext(root)
	l.PageEvent(mem.OpAllocObj, 0x1000, mem.Size4K)
	l.MoveRef(0x1000, root, InFlight)
	l.Attribute(0x1000, root)
	l.ChargeCycles(root, 10)
	l.NameContainer(root, "x")
	l.RegisterMetrics(nil)
	l.RegisterContainerMetrics(nil, "x", root)
	if l.Rows() != nil || l.ContainerPages(root) != 0 || l.LivePages() != 0 ||
		l.Watermark() != 0 || l.Anomalies() != 0 || l.FragPercent() != 0 {
		t.Fatal("nil ledger returned nonzero state")
	}
	if err := l.Audit(); err != nil {
		t.Fatalf("nil audit: %v", err)
	}
}

func TestLedgerRowsAndMetrics(t *testing.T) {
	l, a := bound(t, 64)
	l.SetContext(root)
	if _, err := a.AllocPage4K(mem.OwnerProcessMgr); err != nil {
		t.Fatal(err)
	}
	l.ChargeCycles(root, 1234)
	rows := l.Rows()
	if len(rows) != 1 || rows[0].Name != "root" || rows[0].Cycles != 1234 || rows[0].Pages() != 1 {
		t.Fatalf("rows = %+v", rows)
	}
	r := obs.NewRegistry()
	l.RegisterMetrics(r)
	l.RegisterContainerMetrics(r, "root", root)
	var sb strings.Builder
	r.WriteText(&sb)
	out := sb.String()
	for _, want := range []string{
		"account.pages.live 1",
		"account.cntr.root.cycles 1234",
		"account.cntr.root.pages 1",
		"account.audit_failures 0",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics dump missing %q:\n%s", want, out)
		}
	}
}
