package drivers

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"atmosphere/internal/kernel"
	"atmosphere/internal/obs"
	"atmosphere/internal/obs/account"
	"atmosphere/internal/obs/profile"
)

// sinks are the observers a chaos test run attaches.
type sinks struct {
	Trace   *obs.Tracer
	Metrics *obs.Registry
	Ledger  *account.Ledger
}

func (s sinks) attach(k *kernel.Kernel) {
	k.AttachObs(s.Trace, s.Metrics)
	if s.Ledger != nil {
		k.AttachLedger(s.Ledger)
	}
}

// ledgeredChaos runs the chaos workload with tracer, registry, and
// page-ownership ledger all attached.
func ledgeredChaos(t *testing.T, seed uint64, ops int) (*ChaosReport, sinks) {
	t.Helper()
	s := sinks{Trace: obs.NewTracer(0), Metrics: obs.NewRegistry(), Ledger: account.NewLedger()}
	rep, err := RunChaosKV(ChaosConfig{
		Seed: seed, Ops: ops, Plan: DefaultChaosPlan(),
		Attach: s.attach,
	})
	if err != nil {
		t.Fatalf("chaos run failed: %v (report: %v)", err, rep)
	}
	return rep, s
}

// rowsByName indexes ledger rows by container name.
func rowsByName(l *account.Ledger) map[string]account.ContainerRow {
	m := make(map[string]account.ContainerRow)
	for _, r := range l.Rows() {
		m[r.Name] = r
	}
	return m
}

// TestAccountingAcrossRespawn is the cross-respawn accounting check:
// the supervisor kills and respawns the NVMe driver container at least
// once, and the ledger must show every dead generation's closure
// drained to zero pages (cycles stay — they were genuinely spent)
// while the surviving generation still owns its rings and buffers.
// Every periodic closure audit along the way counts into Violations,
// so zero violations means the invariant held across every teardown
// intermediate state too.
func TestAccountingAcrossRespawn(t *testing.T) {
	rep, s := ledgeredChaos(t, 42, 300)
	if rep.Violations != 0 {
		t.Fatalf("%d invariant/audit violations: %v", rep.Violations, rep)
	}
	if rep.Restarts < 1 {
		t.Fatalf("supervisor respawn not exercised: %v", rep)
	}
	// Driver stats survive the respawn: the counter block is shared
	// across generations, so completions from before and after the kill
	// accumulate in one place.
	if rep.Driver.Completed == 0 || rep.Driver.Submitted < rep.Driver.Completed {
		t.Fatalf("driver stats inconsistent across respawn: %s", rep.Driver.String())
	}

	rows := rowsByName(s.Ledger)
	gens := 0
	for name, row := range rows {
		if !strings.HasPrefix(name, "nvme.gen") {
			continue
		}
		gens++
		last := name == fmt.Sprintf("nvme.gen%d", rep.Restarts)
		if last {
			if row.Pages() == 0 {
				t.Errorf("live generation %s owns no pages", name)
			}
		} else if row.Pages() != 0 {
			t.Errorf("dead generation %s still owns %d pages (leak)", name, row.Pages())
		}
		if row.Cycles == 0 {
			t.Errorf("generation %s was billed no cycles", name)
		}
	}
	if want := int(rep.Restarts) + 1; gens != want {
		t.Fatalf("ledger saw %d driver generations, want %d (restarts=%d)", gens, want, rep.Restarts)
	}
	if got := s.Ledger.ContainerPages(account.InFlight); got != 0 {
		t.Fatalf("in-flight pages at end of run = %d, want 0", got)
	}
	if err := s.Ledger.Audit(); err != nil {
		t.Fatalf("final audit: %v", err)
	}

	// The fixed-name container gauges track the *current* generation.
	var sb strings.Builder
	if err := s.Metrics.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"account.cntr.nvme.pages", "account.cntr.nvme.cycles", "account.pages.live"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("metrics dump missing %q", want)
		}
	}
}

// TestAccountingUnchangedByLedger pins the zero-cost contract for the
// ledger the same way trace_test does for the tracer: attaching the
// ledger must not move a single simulated cycle or fault decision.
func TestAccountingUnchangedByLedger(t *testing.T) {
	plain, err := RunChaosKV(ChaosConfig{
		Seed: 9, Ops: 150, Plan: DefaultChaosPlan(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ledgered, err := RunChaosKV(ChaosConfig{
		Seed: 9, Ops: 150, Plan: DefaultChaosPlan(),
		Attach: sinks{Ledger: account.NewLedger()}.attach,
	})
	if err != nil {
		t.Fatal(err)
	}
	if plain.String() != ledgered.String() {
		t.Errorf("attaching the ledger changed the report:\n%s\n%s", plain, ledgered)
	}
}

// TestAccountingDeterminism: two same-seed runs must agree byte for
// byte on the folded profile and the accounting rows — the attribution
// pipeline is as deterministic as the simulation under it.
func TestAccountingDeterminism(t *testing.T) {
	_, s1 := ledgeredChaos(t, 1234, 200)
	_, s2 := ledgeredChaos(t, 1234, 200)
	f1 := profile.Fold(s1.Trace).FoldedString()
	f2 := profile.Fold(s2.Trace).FoldedString()
	if f1 != f2 {
		t.Error("same-seed folded profiles are not byte-identical")
	}
	if f1 == "" {
		t.Error("folded profile is empty")
	}
	var r1, r2 bytes.Buffer
	for _, row := range s1.Ledger.Rows() {
		fmt.Fprintf(&r1, "%s %d %d %d\n", row.Name, row.ObjPages, row.UserPages, row.Cycles)
	}
	for _, row := range s2.Ledger.Rows() {
		fmt.Fprintf(&r2, "%s %d %d %d\n", row.Name, row.ObjPages, row.UserPages, row.Cycles)
	}
	if r1.String() != r2.String() {
		t.Errorf("same-seed ledger rows diverge:\n%s\nvs\n%s", r1.String(), r2.String())
	}
}
