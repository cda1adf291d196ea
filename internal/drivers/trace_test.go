package drivers

import (
	"bytes"
	"testing"

	"atmosphere/internal/obs"
)

// tracedChaos runs the chaos workload with full observability attached
// and returns the tracer, registry dump, and report.
func tracedChaos(t *testing.T, seed uint64, plan bool) (*obs.Tracer, string, *ChaosReport) {
	t.Helper()
	s := sinks{Trace: obs.NewTracer(0), Metrics: obs.NewRegistry()}
	cfg := ChaosConfig{Seed: seed, Ops: 150, Attach: s.attach}
	if plan {
		cfg.Plan = DefaultChaosPlan()
	}
	report, err := RunChaosKV(cfg)
	if err != nil {
		t.Fatalf("chaos run failed: %v", err)
	}
	var m bytes.Buffer
	if err := s.Metrics.WriteText(&m); err != nil {
		t.Fatal(err)
	}
	return s.Trace, m.String(), report
}

// TestTraceDeterminism is the reproducibility acceptance check: two
// chaos runs with the same seed must produce identical trace hashes,
// byte-identical Perfetto exports, and byte-identical metrics dumps.
func TestTraceDeterminism(t *testing.T) {
	tr1, m1, r1 := tracedChaos(t, 42, true)
	tr2, m2, r2 := tracedChaos(t, 42, true)
	if tr1.Hash() != tr2.Hash() {
		t.Errorf("same-seed trace hashes differ: %016x vs %016x", tr1.Hash(), tr2.Hash())
	}
	var b1, b2 bytes.Buffer
	if err := obs.WriteTrace(&b1, tr1); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteTrace(&b2, tr2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Error("same-seed Perfetto exports are not byte-identical")
	}
	if m1 != m2 {
		t.Error("same-seed metrics dumps are not byte-identical")
	}
	if r1.String() != r2.String() {
		t.Errorf("same-seed reports diverge:\n%s\n%s", r1, r2)
	}
	// A different seed must move the trace (the hash is not a constant).
	tr3, _, _ := tracedChaos(t, 43, true)
	if tr3.Hash() == tr1.Hash() {
		t.Error("different seeds produced the same trace hash")
	}
}

// TestTraceCoverage asserts the spans account for >= 95% of all charged
// cycles on the fault-free kvstore workload — the tracer sees (almost)
// everything the cycle model charges; only the driver's 4 admin-register
// MMIO writes at setup fall outside every span.
func TestTraceCoverage(t *testing.T) {
	tr, _, report := tracedChaos(t, 1, false)
	if report.TotalCycles == 0 {
		t.Fatal("no cycles charged")
	}
	cov := 100 * float64(tr.SpanTotal()) / float64(report.TotalCycles)
	if cov < 95 {
		t.Errorf("span coverage %.1f%% of %d cycles, want >= 95%%", cov, report.TotalCycles)
	}
	if cov > 100 {
		t.Errorf("span coverage %.1f%% > 100%%: spans overlap or double-count", cov)
	}
	if tr.Dropped() != 0 {
		t.Errorf("ring dropped %d events on a short run", tr.Dropped())
	}
}

// TestChaosReportUnchangedByObservability pins the free-when-attached
// contract end to end: a chaos run with tracer+registry attached must
// produce the identical deterministic report as one without.
func TestChaosReportUnchangedByObservability(t *testing.T) {
	plain, err := RunChaosKV(ChaosConfig{Seed: 9, Ops: 150, Plan: DefaultChaosPlan()})
	if err != nil {
		t.Fatal(err)
	}
	_, _, observed := tracedChaos(t, 9, true)
	if plain.String() != observed.String() {
		t.Errorf("attaching observability changed the report:\n%s\n%s", plain, observed)
	}
}
