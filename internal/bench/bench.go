// Package bench regenerates every table and figure of the paper's
// evaluation (§6). Each experiment produces a Result whose rows mirror
// the paper's presentation, alongside the paper's reported values so
// the shape comparison (who wins, by what factor, where crossovers sit)
// is visible at a glance. cmd/atmo-bench prints them; bench_test.go
// wraps each in a testing.B benchmark.
package bench

import (
	"fmt"
	"sort"
	"strings"
)

// Row is one line of an experiment's output.
type Row struct {
	Name string
	// Value is the measured (simulated) result; Paper is the paper's
	// reported value for the same cell (0 when the paper gives none).
	Value float64
	Paper float64
	// Unit labels both values.
	Unit string
	// PaperOnly marks a row this repository does not measure: its
	// measured cell prints "-" and its JSON carries no "measured".
	PaperOnly bool
}

// Result is one regenerated table or figure.
type Result struct {
	ID    string // "table3", "fig4", ...
	Title string
	Rows  []Row
	Notes []string
}

// String renders the result as an aligned text table.
func (r Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s ===\n", r.ID, r.Title)
	width := 10
	for _, row := range r.Rows {
		if len(row.Name) > width {
			width = len(row.Name)
		}
	}
	fmt.Fprintf(&b, "%-*s  %14s  %14s  %s\n", width, "case", "measured", "paper", "unit")
	for _, row := range r.Rows {
		measured, paper := "-", "-"
		if !row.PaperOnly {
			measured = formatVal(row.Value)
		}
		if row.Paper != 0 {
			paper = formatVal(row.Paper)
		}
		fmt.Fprintf(&b, "%-*s  %14s  %14s  %s\n", width, row.Name, measured, paper, row.Unit)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

func formatVal(v float64) string {
	switch {
	case v == float64(int64(v)) && v < 1e7:
		return fmt.Sprintf("%d", int64(v))
	case v >= 1000:
		return fmt.Sprintf("%.0f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

// Experiment names an experiment runner. Run attaches the sinks to
// every kernel the experiment boots.
type Experiment struct {
	ID  string
	Run func(Sinks) (Result, error)
}

// unobserved adapts an experiment that boots no kernel the sinks reach.
func unobserved(run func() (Result, error)) func(Sinks) (Result, error) {
	return func(Sinks) (Result, error) { return run() }
}

// All returns every experiment in presentation order.
func All() []Experiment {
	return []Experiment{
		{"table1", unobserved(Table1ProofEffort)},
		{"table2", unobserved(Table2VerificationTime)},
		{"table3", Table3SyscallLatency},
		{"fig2", unobserved(Fig2PerFunctionTimes)},
		{"fig3", unobserved(Fig3DevelopmentHistory)},
		{"fig4", unobserved(Fig4IxgbePerformance)},
		{"fig5", unobserved(Fig5NvmePerformance)},
		{"fig6", unobserved(Fig6MaglevHttpd)},
		{"fig7", unobserved(Fig7KVStore)},
		{"ablation", unobserved(AblationFlatVsRecursive)},
		{"degraded", DegradedNvmeThroughput},
		{"multicore", MulticoreScaling},
		{"batch", BatchThroughput},
		{"cluster", ClusterChaos},
	}
}

// Series groups experiments under a named series for `atmo-bench
// -series`: "multicore" is the scalability series, "batch" the syscall
// batching + zero-copy grant rows, "cluster" the multi-machine chaos
// scenario, "paper" the evaluation tables and figures, "all" everything.
func Series(name string) ([]Experiment, bool) {
	switch name {
	case "all":
		return All(), true
	case "multicore":
		e, _ := ByID("multicore")
		return []Experiment{e}, true
	case "batch":
		e, _ := ByID("batch")
		return []Experiment{e}, true
	case "cluster":
		e, _ := ByID("cluster")
		return []Experiment{e}, true
	case "paper":
		var out []Experiment
		for _, e := range All() {
			if e.ID != "multicore" && e.ID != "batch" && e.ID != "cluster" {
				out = append(out, e)
			}
		}
		return out, true
	}
	return nil, false
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs lists experiment identifiers.
func IDs() []string {
	var out []string
	for _, e := range All() {
		out = append(out, e.ID)
	}
	sort.Strings(out)
	return out
}
