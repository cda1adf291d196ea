// Package atmosphere's root benchmark harness: one testing.B benchmark
// per table and figure of the paper's evaluation (§6). Each benchmark
// regenerates its experiment through internal/bench and reports the
// headline numbers as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the entire evaluation. cmd/atmo-bench prints the same
// experiments as human-readable tables with the paper's values inline.
package atmosphere

import (
	"strings"
	"testing"

	"atmosphere/internal/bench"
)

// runExperiment executes one experiment per benchmark iteration and
// reports its rows as metrics on the final run.
func runExperiment(b *testing.B, id string) {
	e, ok := bench.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	var res bench.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = e.Run(bench.Sinks{})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range res.Rows {
		name := metricName(row.Name, row.Unit)
		b.ReportMetric(row.Value, name)
	}
}

// metricName builds a compact, unique metric label.
func metricName(name, unit string) string {
	r := strings.NewReplacer(" ", "_", "(", "", ")", "", "/", "-", ",", "", "<", "", ">", "", ":", "")
	label := r.Replace(name)
	if len(label) > 48 {
		label = label[:48]
	}
	u := strings.Fields(unit)
	if len(u) > 0 {
		return label + "_" + u[0]
	}
	return label
}

func BenchmarkTable1ProofEffort(b *testing.B)      { runExperiment(b, "table1") }
func BenchmarkTable2VerificationTime(b *testing.B) { runExperiment(b, "table2") }
func BenchmarkTable3Syscalls(b *testing.B)         { runExperiment(b, "table3") }
func BenchmarkFig2PerFunction(b *testing.B)        { runExperiment(b, "fig2") }
func BenchmarkFig3History(b *testing.B)            { runExperiment(b, "fig3") }
func BenchmarkFig4Ixgbe(b *testing.B)              { runExperiment(b, "fig4") }
func BenchmarkFig5Nvme(b *testing.B)               { runExperiment(b, "fig5") }
func BenchmarkFig6Apps(b *testing.B)               { runExperiment(b, "fig6") }
func BenchmarkFig7KvStore(b *testing.B)            { runExperiment(b, "fig7") }
func BenchmarkAblationFlatVsRecursive(b *testing.B) {
	runExperiment(b, "ablation")
}

// TestAllExperimentsProduceRows is the smoke test that every experiment
// runs and produces sane output (ensuring `go test ./...` exercises the
// whole evaluation pipeline even without -bench).
func TestAllExperimentsProduceRows(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation in -short mode")
	}
	for _, e := range bench.All() {
		res, err := e.Run(bench.Sinks{})
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if len(res.Rows) == 0 {
			t.Fatalf("%s produced no rows", e.ID)
		}
		if res.ID != e.ID {
			t.Fatalf("experiment %s returned result id %s", e.ID, res.ID)
		}
		if res.String() == "" {
			t.Fatalf("%s rendered empty", e.ID)
		}
	}
}
