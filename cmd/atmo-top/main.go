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
	"os"

	"atmosphere/internal/bench"
	"atmosphere/internal/drivers"
	"atmosphere/internal/kernel"
	"atmosphere/internal/obs"
	"atmosphere/internal/obs/account"
	"atmosphere/internal/obs/contend"
	"atmosphere/internal/obs/profile"
)

func main() {
	workload := flag.String("workload", "kvstore", "workload: kvstore, chaos, ipc, multicore")
	seed := flag.Uint64("seed", 1, "workload seed")
	ops := flag.Int("ops", 300, "operations (kv ops or ipc round trips; per-core mmaps for multicore)")
	cores := flag.Int("cores", 4, "core count for the multicore workload")
	mc := flag.String("mc", "alloc", "multicore sub-workload: ipc, kvstore, alloc")
	diff := flag.Bool("diff", false, "show the per-container delta between ops/2 and ops")
	locks := flag.Bool("locks", false, "print the contention snapshot (per-lock waits, attribution, run-queue delays) instead of the accounting view")
	byClass := flag.Bool("by-class", false, "with -locks: roll the per-lock table up to one row per lock class (big, container, endpoint)")
	profileOut := flag.String("profile", "", "also write <prefix>.folded and <prefix>.pb.gz cycle profiles")
	flag.Parse()

	full, tr, cobs, err := run(*workload, *mc, *seed, *ops, *cores)
	if err != nil {
		fail(err)
	}
	switch {
	case *locks && *diff:
		_, _, half, err := run(*workload, *mc, *seed, *ops/2, *cores)
		if err != nil {
			fail(err)
		}
		printLocksDiff(half, cobs, *ops)
	case *locks:
		printLocks(cobs, *ops, *byClass)
	case *diff:
		half, _, _, err := run(*workload, *mc, *seed, *ops/2, *cores)
		if err != nil {
			fail(err)
		}
		printDiff(half, full, *ops)
	default:
		printSnapshot(full, *ops)
	}
	if *profileOut != "" {
		p, err := profile.WriteFiles(*profileOut, tr)
		if err != nil {
			fail(err)
		}
		fmt.Println(p.Describe(*profileOut))
	}
}

// run executes the workload with a fresh ledger + tracer + contention
// observatory attached and returns all three after a final closure
// audit. Each run gets its own observatory (like the ledger), so the
// -diff halves never share frontier registrations.
func run(workload, mc string, seed uint64, ops, cores int) (*account.Ledger, *obs.Tracer, *contend.Observatory, error) {
	l := account.NewLedger()
	tr := obs.NewTracer(0)
	cobs := contend.New()
	var err error
	switch workload {
	case "multicore":
		// One sub-workload of the multicore series, chosen by -mc. For
		// alloc the per-core page caches are on, so the "page-cache"
		// pseudo-container row shows the frames parked in per-core
		// caches at the end of the run; for ipc the contention snapshot
		// shows the per-container/per-endpoint sharded frontiers.
		bench.SetContention(cobs)
		_, _, _, err = bench.RunMulticore(mc, cores, seed, ops, tr, nil, l)
		bench.SetContention(nil)
	case "kvstore":
		_, err = drivers.RunChaosKV(drivers.ChaosConfig{
			Seed: seed, Ops: ops, Trace: tr, Ledger: l, Contend: cobs,
		})
	case "chaos":
		_, err = drivers.RunChaosKV(drivers.ChaosConfig{
			Seed: seed, Ops: ops, Plan: drivers.DefaultChaosPlan(), Trace: tr, Ledger: l, Contend: cobs,
		})
	case "ipc":
		err = runIPC(l, tr, cobs, ops)
	default:
		return nil, nil, nil, fmt.Errorf("unknown workload %q (kvstore, chaos, ipc, multicore)", workload)
	}
	if err != nil {
		return nil, nil, nil, err
	}
	if err := l.Audit(); err != nil {
		return nil, nil, nil, fmt.Errorf("closure audit failed: %w", err)
	}
	return l, tr, cobs, nil
}

// runIPC is the Table 3 call/reply ping-pong with accounting attached.
func runIPC(l *account.Ledger, tr *obs.Tracer, cobs *contend.Observatory, rounds int) error {
	_, _, _, err := bench.RunCallReply(0, rounds, func(k *kernel.Kernel) {
		k.AttachObs(tr, nil)
		k.AttachLedger(l)
		k.AttachContention(cobs)
	})
	return err
}

func printSnapshot(l *account.Ledger, ops int) {
	rows := l.Rows()
	var totalCycles uint64
	for _, r := range rows {
		totalCycles += r.Cycles
	}
	fmt.Printf("%-16s %8s %8s %8s %14s %6s\n", "CONTAINER", "OBJ", "USER", "PAGES", "CYCLES", "CYC%")
	for _, r := range rows {
		pct := 0.0
		if totalCycles > 0 {
			pct = 100 * float64(r.Cycles) / float64(totalCycles)
		}
		fmt.Printf("%-16s %8d %8d %8d %14d %5.1f%%\n",
			r.Name, r.ObjPages, r.UserPages, r.Pages(), r.Cycles, pct)
	}
	audits, fails := l.AuditStats()
	fmt.Printf("\n%d ops: %d pages live (watermark %d), fragmentation %d%%\n",
		ops, l.LivePages(), l.Watermark(), l.FragPercent())
	fmt.Printf("audits %d (failed %d), attribution anomalies %d\n",
		audits, fails, l.Anomalies())
}

func printDiff(half, full *account.Ledger, ops int) {
	halfRows := make(map[string]account.ContainerRow)
	for _, r := range half.Rows() {
		halfRows[r.Name] = r
	}
	fmt.Printf("delta over ops %d..%d:\n", ops/2, ops)
	fmt.Printf("%-16s %10s %14s\n", "CONTAINER", "ΔPAGES", "ΔCYCLES")
	for _, r := range full.Rows() {
		h := halfRows[r.Name]
		dp := int64(r.Pages()) - int64(h.Pages())
		dc := int64(r.Cycles) - int64(h.Cycles)
		if dp == 0 && dc == 0 {
			continue
		}
		fmt.Printf("%-16s %+10d %+14d\n", r.Name, dp, dc)
	}
	fmt.Printf("\nlive pages %d -> %d (watermark %d -> %d)\n",
		half.LivePages(), full.LivePages(), half.Watermark(), full.Watermark())
}

// printLocks renders the contention snapshot: the observatory's full
// report (top-contended locks, wait attribution, run-queue delays,
// ordering status). With byClass the per-lock table is rolled up to one
// row per lock class — the readable view once sharding multiplies the
// frontier count. Every section is sorted, so equal runs print
// byte-identically — golden tests diff this output directly.
func printLocks(o *contend.Observatory, ops int, byClass bool) {
	fmt.Printf("contention after %d ops:\n", ops)
	if !byClass {
		if err := o.WriteReport(os.Stdout); err != nil {
			fail(err)
		}
		return
	}
	fmt.Println("== contention: locks by class ==")
	if err := o.WriteLocksByClass(os.Stdout); err != nil {
		fail(err)
	}
	fmt.Println("== contention: attribution ==")
	if err := o.WriteAttribution(os.Stdout); err != nil {
		fail(err)
	}
	fmt.Println("== contention: scheduler ==")
	if err := o.WriteSched(os.Stdout); err != nil {
		fail(err)
	}
	fmt.Println("== contention: order ==")
	if err := o.WriteOrder(os.Stdout); err != nil {
		fail(err)
	}
}

// printLocksDiff shows what each lock frontier accumulated over the
// second half of the run: the half-ops observatory is an exact prefix
// of the full one (determinism), so the deltas are exact.
func printLocksDiff(half, full *contend.Observatory, ops int) {
	halfRows := make(map[string]contend.LockSummary)
	for _, s := range half.Summary() {
		halfRows[s.Ident] = s
	}
	fmt.Printf("contention delta over ops %d..%d:\n", ops/2, ops)
	fmt.Printf("%-24s %10s %10s %14s\n", "LOCK", "ΔACQ", "ΔCONTEND", "ΔWAITCYCLES")
	for _, s := range full.Summary() {
		h := halfRows[s.Ident]
		fmt.Printf("%-24s %+10d %+10d %+14d\n", s.Ident,
			int64(s.Acquisitions)-int64(h.Acquisitions),
			int64(s.Contended)-int64(h.Contended),
			int64(s.WaitCycles)-int64(h.WaitCycles))
	}
	fmt.Printf("\nsteals %d -> %d, runq delays observed %d -> %d\n",
		half.Steals(), full.Steals(),
		half.RunqDelays().Count(), full.RunqDelays().Count())
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "atmo-top:", err)
	os.Exit(1)
}
