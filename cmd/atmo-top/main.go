// Command atmo-top runs a workload on the simulated kernel with the
// accounting ledger attached and prints a top(1)-style view: one row
// per container with its live object/user pages and the cycles billed
// to it, plus allocator-level totals (live pages, watermark,
// fragmentation) and the closure-audit tally. With -diff it runs the
// same seed twice — to the midpoint and to the end — and shows what
// each container gained or lost over the second half; determinism
// makes the midpoint an exact prefix of the full run.
//
// Usage:
//
//	atmo-top -workload chaos -seed 7 -ops 400
//	atmo-top -workload kvstore -ops 300 -diff
//	atmo-top -workload ipc -ops 500
//	atmo-top -workload multicore -cores 4 -ops 200
//	atmo-top -workload multicore -cores 4 -locks            # contention snapshot
//	atmo-top -workload multicore -mc ipc -cores 4 -locks    # sharded ipc frontiers
//	atmo-top -workload multicore -cores 4 -locks -by-class  # one row per lock class
//	atmo-top -workload multicore -cores 4 -locks -diff      # second-half contention delta
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"atmosphere/internal/bench"
	"atmosphere/internal/obs"
	"atmosphere/internal/obs/account"
	"atmosphere/internal/obs/contend"
	"atmosphere/internal/obs/profile"
)

// workloads are the names atmo-top accepts from the bench workload
// table: the single-kernel runs whose ledger it can audit.
var workloads = []string{"kvstore", "chaos", "ipc", "multicore"}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "atmo-top:", err)
		os.Exit(1)
	}
}

// run is the whole command: it parses args, runs the workload (twice
// with -diff) and prints the chosen view to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	workload := fs.String("workload", "kvstore", "workload: "+strings.Join(workloads, ", "))
	seed := fs.Uint64("seed", 1, "workload seed")
	ops := fs.Int("ops", 300, "operations (kv ops or ipc round trips; per-core mmaps for multicore)")
	cores := fs.Int("cores", 4, "core count for the multicore workload")
	mc := fs.String("mc", "alloc", "multicore sub-workload: ipc, kvstore, alloc")
	diff := fs.Bool("diff", false, "show the per-container delta between ops/2 and ops")
	locks := fs.Bool("locks", false, "print the contention snapshot (per-lock waits, attribution, run-queue delays) instead of the accounting view")
	byClass := fs.Bool("by-class", false, "with -locks: roll the per-lock table up to one row per lock class (big, container, endpoint)")
	profileOut := fs.String("profile", "", "also write <prefix>.folded and <prefix>.pb.gz cycle profiles")
	fs.Parse(args)
	w, ok := bench.WorkloadByName(*workload)
	if !ok || !slices.Contains(workloads, *workload) {
		return fmt.Errorf("unknown workload %q (%s)", *workload, strings.Join(workloads, ", "))
	}
	// For multicore, -mc picks one sub-workload of the series. For alloc
	// the per-core page caches are on, so the "page-cache"
	// pseudo-container row shows the frames parked in per-core caches at
	// the end of the run; for ipc the contention snapshot shows the
	// per-container/per-endpoint sharded frontiers.
	opts := bench.WorkloadOpts{Seed: *seed, Ops: *ops, Cores: *cores, Sub: []string{*mc}}

	full, err := runWorkload(w, opts)
	if err != nil {
		return err
	}
	var half bench.Sinks
	if *diff {
		opts.Ops /= 2
		if half, err = runWorkload(w, opts); err != nil {
			return err
		}
	}
	switch {
	case *locks && *diff:
		printLocksDiff(stdout, half.Contend, full.Contend, *ops)
	case *locks:
		err = printLocks(stdout, full.Contend, *ops, *byClass)
	case *diff:
		printDiff(stdout, half.Ledger, full.Ledger, *ops)
	default:
		printSnapshot(stdout, full.Ledger, *ops)
	}
	if err != nil {
		return err
	}
	if *profileOut == "" {
		return nil
	}
	p, err := profile.WriteFiles(*profileOut, full.Tracer)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, p.Describe(*profileOut))
	return nil
}

// runWorkload executes the workload with a fresh ledger, tracer and
// contention observatory attached and returns them after a final
// closure audit. Each run gets its own sinks, so the -diff halves never
// share frontier registrations.
func runWorkload(w bench.Workload, opts bench.WorkloadOpts) (bench.Sinks, error) {
	s := bench.Sinks{Tracer: obs.NewTracer(0), Ledger: account.NewLedger(), Contend: contend.New()}
	if _, err := w.Run(s, opts); err != nil {
		return s, err
	}
	if err := s.Ledger.Audit(); err != nil {
		return s, fmt.Errorf("closure audit failed: %w", err)
	}
	return s, nil
}

func printSnapshot(stdout io.Writer, l *account.Ledger, ops int) {
	rows := l.Rows()
	var totalCycles uint64
	for _, r := range rows {
		totalCycles += r.Cycles
	}
	fmt.Fprintf(stdout, "%-16s %8s %8s %8s %14s %6s\n", "CONTAINER", "OBJ", "USER", "PAGES", "CYCLES", "CYC%")
	for _, r := range rows {
		pct := 0.0
		if totalCycles > 0 {
			pct = 100 * float64(r.Cycles) / float64(totalCycles)
		}
		fmt.Fprintf(stdout, "%-16s %8d %8d %8d %14d %5.1f%%\n",
			r.Name, r.ObjPages, r.UserPages, r.Pages(), r.Cycles, pct)
	}
	audits, fails := l.AuditStats()
	fmt.Fprintf(stdout, "\n%d ops: %d pages live (watermark %d), fragmentation %d%%\n",
		ops, l.LivePages(), l.Watermark(), l.FragPercent())
	fmt.Fprintf(stdout, "audits %d (failed %d), attribution anomalies %d\n",
		audits, fails, l.Anomalies())
}

func printDiff(stdout io.Writer, half, full *account.Ledger, ops int) {
	halfRows := make(map[string]account.ContainerRow)
	for _, r := range half.Rows() {
		halfRows[r.Name] = r
	}
	fmt.Fprintf(stdout, "delta over ops %d..%d:\n", ops/2, ops)
	fmt.Fprintf(stdout, "%-16s %10s %14s\n", "CONTAINER", "ΔPAGES", "ΔCYCLES")
	for _, r := range full.Rows() {
		h := halfRows[r.Name]
		dp := int64(r.Pages()) - int64(h.Pages())
		dc := int64(r.Cycles) - int64(h.Cycles)
		if dp == 0 && dc == 0 {
			continue
		}
		fmt.Fprintf(stdout, "%-16s %+10d %+14d\n", r.Name, dp, dc)
	}
	fmt.Fprintf(stdout, "\nlive pages %d -> %d (watermark %d -> %d)\n",
		half.LivePages(), full.LivePages(), half.Watermark(), full.Watermark())
}

// printLocks renders the contention snapshot: the observatory's full
// report (top-contended locks, wait attribution, run-queue delays,
// ordering status). With byClass the per-lock table is rolled up to one
// row per lock class — the readable view once sharding multiplies the
// frontier count. Every section is sorted, so equal runs print
// byte-identically — golden tests diff this output directly.
func printLocks(stdout io.Writer, o *contend.Observatory, ops int, byClass bool) error {
	fmt.Fprintf(stdout, "contention after %d ops:\n", ops)
	if !byClass {
		return o.WriteReport(stdout)
	}
	for _, sec := range []struct {
		title string
		write func(io.Writer) error
	}{
		{"locks by class", o.WriteLocksByClass},
		{"attribution", o.WriteAttribution},
		{"scheduler", o.WriteSched},
		{"order", o.WriteOrder},
	} {
		fmt.Fprintf(stdout, "== contention: %s ==\n", sec.title)
		if err := sec.write(stdout); err != nil {
			return err
		}
	}
	return nil
}

// printLocksDiff shows what each lock frontier accumulated over the
// second half of the run: the half-ops observatory is an exact prefix
// of the full one (determinism), so the deltas are exact.
func printLocksDiff(stdout io.Writer, half, full *contend.Observatory, ops int) {
	halfRows := make(map[string]contend.LockSummary)
	for _, s := range half.Summary() {
		halfRows[s.Ident] = s
	}
	fmt.Fprintf(stdout, "contention delta over ops %d..%d:\n", ops/2, ops)
	fmt.Fprintf(stdout, "%-24s %10s %10s %14s\n", "LOCK", "ΔACQ", "ΔCONTEND", "ΔWAITCYCLES")
	for _, s := range full.Summary() {
		h := halfRows[s.Ident]
		fmt.Fprintf(stdout, "%-24s %+10d %+10d %+14d\n", s.Ident,
			int64(s.Acquisitions)-int64(h.Acquisitions),
			int64(s.Contended)-int64(h.Contended),
			int64(s.WaitCycles)-int64(h.WaitCycles))
	}
	fmt.Fprintf(stdout, "\nsteals %d -> %d, runq delays observed %d -> %d\n",
		half.Steals(), full.Steals(),
		half.RunqDelays().Count(), full.RunqDelays().Count())
}
