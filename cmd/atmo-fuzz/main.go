// Command atmo-fuzz drives generated syscall programs through the
// kernel under one of three oracles. It is the repository's
// syzkaller-shaped confidence tool: where atmo-verify discharges
// curated obligations, atmo-fuzz searches for states the curated
// scenarios miss.
//
// Usage:
//
//	atmo-fuzz                      # checked mode: 2000 ops, seed 1
//	atmo-fuzz -steps 10000 -seed 9
//	atmo-fuzz -seeds 8             # 8 independent swarm profiles
//	atmo-fuzz -diff -seeds 8       # differential spec-vs-kernel lockstep
//	atmo-fuzz -repro f.repro       # replay a minimized repro file
//	atmo-fuzz -chaos -seeds 16     # the differential sweep under injected faults
//
// The default (checked) mode validates every transition against its
// per-syscall specification predicate plus the full invariant suite.
//
// With -diff each program instead runs in lockstep with the pure spec
// interpreter: after every syscall the kernel's abstraction Ψ is
// compared field-by-field against the independently-evolved Ψ′. On
// divergence the failing program is delta-debugged down to a minimal
// op sequence and written as a self-contained repro file; replay it
// with -repro.
//
// With -chaos the same programs run through the same lockstep oracle
// with a seeded fault injector armed on each booted kernel: every
// allocation site fails with probability 0.10. The interpreter trusts
// ENOMEM only after argument validation, so each faulted op is checked
// for its errno, every field of Ψ and lock order, and the full
// invariant suite (verify.TotalWF) runs after every op. Each seed
// reports the injector's deterministic trace hash, so a failing seed
// reproduces bit-for-bit.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"atmosphere/internal/faults"
	"atmosphere/internal/kernel"
	"atmosphere/internal/mck"
	"atmosphere/internal/obs"
)

func main() {
	steps := flag.Int("steps", 2000, "ops per seed")
	seed := flag.Uint64("seed", 1, "first seed")
	seeds := flag.Int("seeds", 1, "number of independent seeds")
	diff := flag.Bool("diff", false, "differential mode: lockstep kernel-vs-spec-interpreter oracle")
	repro := flag.String("repro", "", "replay a repro file through the differential oracle and exit")
	reproOut := flag.String("repro-out", "atmo-fuzz-failure.repro", "with -diff: where to write a minimized failing program")
	chaos := flag.Bool("chaos", false, "differential mode with allocator faults injected")
	traceOut := flag.String("trace", "", "with -chaos: write the last seed's Perfetto trace to this path")
	metricsOut := flag.String("metrics", "", "with -chaos: write a metrics dump to this path")
	flag.Parse()

	switch {
	case *repro != "":
		runRepro(*repro)
		return
	case *chaos:
		runDiff(*seed, *seeds, *steps, "", newChaos(*traceOut, *metricsOut))
		return
	}
	if *traceOut != "" || *metricsOut != "" {
		fmt.Fprintln(os.Stderr, "atmo-fuzz: -trace/-metrics require -chaos")
		os.Exit(2)
	}
	if *diff {
		runDiff(*seed, *seeds, *steps, *reproOut, nil)
		return
	}
	runChecked(*seed, *seeds, *steps)
}

// runChecked is the default mode: every generated program runs on a
// kernel wrapped by verify.Checker, so each transition is validated
// against its specification predicate and the invariant suite.
func runChecked(first uint64, seeds, steps int) {
	total := mck.Stats{Ops: map[string]int{}, Errnos: map[string]int{}}
	for s := 0; s < seeds; s++ {
		seed := first + uint64(s)
		st, err := mck.RunChecked(mck.Generate(seed, steps), mck.Options{})
		total.Merge(st)
		if err != nil {
			fmt.Fprintf(os.Stderr, "seed %d FAILED after %d ops: %v\n", seed, st.Steps, err)
			os.Exit(1)
		}
		fmt.Printf("seed %d: %d checked transitions, all specs and invariants held\n", seed, st.Steps)
	}
	fmt.Printf("\ntotal: %d checked transitions\n\nsyscall coverage:\n", total.Steps)
	printSorted(total.Ops)
	fmt.Println("\nerrno coverage:")
	printSorted(total.Errnos)
}

// runDiff is the lockstep differential mode: kernel vs. pure spec
// interpreter, field-level Ψ comparison after every op, with the
// runtime lock-order, run-queue coverage and post-release checks armed
// on every booted kernel. Without faults the first divergence is shrunk
// to a minimal repro and written to reproOut; a lock-order inversion or
// footprint violation fails the seed with the checker's report. With
// faults (ch non-nil) every booted kernel also gets ch's injector and
// sinks, and TotalWF runs after every op; a divergence is reported
// unshrunk, since the repro format has no line for a fault.
func runDiff(first uint64, seeds, steps int, reproOut string, ch *chaos) {
	total := mck.Stats{Ops: map[string]int{}, Errnos: map[string]int{}}
	baseOpt := mck.Options{WFEvery: 256}
	if ch != nil {
		baseOpt.WFEvery = 1
	}
	for s := 0; s < seeds; s++ {
		seed := first + uint64(s)
		p := mck.Generate(seed, steps)
		opt := baseOpt
		if ch != nil {
			opt.Hook = ch.arm(seed)
		}
		opt, violation := opt.WithLockOrder()
		res, st, err := mck.RunDiff(p, opt)
		total.Merge(st)
		if err != nil {
			fmt.Fprintf(os.Stderr, "seed %d: boot failed: %v\n", seed, err)
			os.Exit(1)
		}
		if res != nil {
			fmt.Fprintf(os.Stderr, "seed %d DIVERGED: %v\n", seed, res)
			if ch != nil {
				fmt.Fprintf(os.Stderr, "under faults: %s\n", ch)
				os.Exit(1)
			}
			fmt.Fprintln(os.Stderr, "shrinking...")
			min := mck.Shrink(p, func(q mck.Program) bool { return mck.Fails(q, baseOpt) })
			if werr := os.WriteFile(reproOut, min.EncodeRepro(), 0o644); werr != nil {
				fmt.Fprintf(os.Stderr, "atmo-fuzz: writing repro: %v\n", werr)
			} else {
				fmt.Fprintf(os.Stderr, "minimized to %d ops; wrote %s (replay with -repro)\n",
					len(min.Ops), reproOut)
			}
			os.Exit(1)
		}
		if v := violation(); v != nil {
			fmt.Fprintf(os.Stderr, "seed %d: %s\n", seed, v)
			os.Exit(1)
		}
		if ch != nil {
			ch.injected += ch.inj.InjectedTotal()
			fmt.Printf("seed %d: %d ops in lockstep under faults, every errno, field of Ψ and invariant held; %s\n",
				seed, st.Steps, ch)
			continue
		}
		fmt.Printf("seed %d: %d ops in lockstep, kernel and spec agreed on every field of Ψ\n", seed, st.Steps)
	}
	fmt.Printf("\ntotal: %d differential transitions\n", total.Steps)
	if ch != nil {
		ch.finish()
	}
	fmt.Println("\nsyscall coverage:")
	printSorted(total.Ops)
	fmt.Println("\nerrno coverage:")
	printSorted(total.Errnos)
}

// runRepro replays a minimized repro file through the differential
// oracle; exit status reports whether the divergence still reproduces.
func runRepro(path string) {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "atmo-fuzz: %v\n", err)
		os.Exit(2)
	}
	p, err := mck.ParseRepro(data)
	if err != nil {
		fmt.Fprintf(os.Stderr, "atmo-fuzz: %s: %v\n", path, err)
		os.Exit(2)
	}
	res, st, err := mck.RunDiff(p, mck.Options{WFEvery: 1})
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: boot failed: %v\n", path, err)
		os.Exit(1)
	}
	if res != nil {
		fmt.Printf("%s: still diverges after %d ops: %v\n", path, st.Steps, res)
		os.Exit(1)
	}
	fmt.Printf("%s: %d ops replayed, kernel and spec agree (divergence fixed)\n", path, st.Steps)
}

func printSorted(m map[string]int) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-24s %7d\n", k, m[k])
	}
}

// chaosPlan is -chaos's fault mix: allocator exhaustion on every
// allocation site a syscall touches, page-table nodes included.
var chaosPlan = faults.Plan{Rules: []faults.Rule{{Kind: faults.AllocExhaust, Rate: 0.10}}}

// chaos arms -chaos's fault injector and sinks on each booted kernel.
// Each seed gets a fresh injector, seeded like its program, and a fresh
// tracer (one kernel, one timeline); the last seed's trace is the one
// exported. The metrics registry is shared, so counters accumulate
// across seeds, while each gauge reads the last seed's kernel and
// injector.
type chaos struct {
	traceOut, metricsOut string
	tracer               *obs.Tracer
	registry             *obs.Registry
	inj                  *faults.Injector
	injected             uint64
}

func newChaos(traceOut, metricsOut string) *chaos {
	ch := &chaos{traceOut: traceOut, metricsOut: metricsOut}
	if metricsOut != "" {
		ch.registry = obs.NewRegistry()
	}
	return ch
}

// arm returns seed's boot hook: it attaches the sinks and routes every
// allocation through a fresh injector.
func (ch *chaos) arm(seed uint64) func(*kernel.Kernel) {
	return func(k *kernel.Kernel) {
		if ch.traceOut != "" {
			ch.tracer = obs.NewTracer(0)
		}
		k.AttachObs(ch.tracer, ch.registry)
		inj, err := faults.NewInjector(seed, chaosPlan, k.Machine.TotalCycles)
		if err != nil {
			panic(err) // chaosPlan is fixed and valid
		}
		inj.SetTracer(ch.tracer)
		inj.RegisterMetrics(ch.registry)
		k.Alloc.SetFaultHook(func() bool { return inj.Hit(faults.AllocExhaust) })
		ch.inj = inj
	}
}

// String reports the current seed's injector.
func (ch *chaos) String() string {
	return fmt.Sprintf("injected %d faults (%s), trace hash %#x",
		ch.inj.InjectedTotal(), ch.inj.Counts(), ch.inj.TraceHash())
}

// finish prints the sweep's fault total and writes the exports.
func (ch *chaos) finish() {
	fmt.Printf("chaos: %d faults injected\n", ch.injected)
	if ch.tracer != nil {
		writeOut(ch.traceOut, func(w io.Writer) error { return obs.WriteTrace(w, ch.tracer) })
		fmt.Printf("wrote trace (%d events) to %s\n", ch.tracer.Len(), ch.traceOut)
	}
	if ch.registry != nil {
		writeOut(ch.metricsOut, ch.registry.WriteText)
		fmt.Printf("wrote metrics to %s\n", ch.metricsOut)
	}
}

// writeOut creates path and streams write into it; a failure ends the
// run with status 1.
func writeOut(path string, write func(io.Writer) error) {
	f, err := os.Create(path)
	if err == nil {
		err = write(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "atmo-fuzz: %v\n", err)
		os.Exit(1)
	}
}
