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
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, runs the chosen oracle and
// returns the exit status (1 for a failed seed, 2 for a usage error).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	fs.SetOutput(stderr)
	steps := fs.Int("steps", 2000, "ops per seed")
	seed := fs.Uint64("seed", 1, "first seed")
	seeds := fs.Int("seeds", 1, "number of independent seeds")
	diff := fs.Bool("diff", false, "differential mode: lockstep kernel-vs-spec-interpreter oracle")
	repro := fs.String("repro", "", "replay a repro file through the differential oracle and exit")
	reproOut := fs.String("repro-out", "atmo-fuzz-failure.repro", "with -diff: where to write a minimized failing program")
	chaos := fs.Bool("chaos", false, "differential mode with allocator faults injected")
	traceOut := fs.String("trace", "", "with -chaos: write the last seed's Perfetto trace to this path")
	metricsOut := fs.String("metrics", "", "with -chaos: write a metrics dump to this path")
	fs.Parse(args)

	o := out{stdout, stderr}
	switch {
	case *repro != "":
		return o.runRepro(*repro)
	case *chaos:
		return o.runDiff(*seed, *seeds, *steps, "", newChaos(*traceOut, *metricsOut))
	}
	if *traceOut != "" || *metricsOut != "" {
		fmt.Fprintln(stderr, "atmo-fuzz: -trace/-metrics require -chaos")
		return 2
	}
	if *diff {
		return o.runDiff(*seed, *seeds, *steps, *reproOut, nil)
	}
	return o.runChecked(*seed, *seeds, *steps)
}

// out holds the command's two streams.
type out struct{ stdout, stderr io.Writer }

// runChecked is the default mode: every generated program runs on a
// kernel wrapped by verify.Checker, so each transition is validated
// against its specification predicate and the invariant suite.
func (o out) runChecked(first uint64, seeds, steps int) int {
	total := mck.Stats{Ops: map[string]int{}, Errnos: map[string]int{}}
	for s := 0; s < seeds; s++ {
		seed := first + uint64(s)
		st, err := mck.RunChecked(mck.Generate(seed, steps), mck.Options{})
		total.Merge(st)
		if err != nil {
			fmt.Fprintf(o.stderr, "seed %d FAILED after %d ops: %v\n", seed, st.Steps, err)
			return 1
		}
		fmt.Fprintf(o.stdout, "seed %d: %d checked transitions, all specs and invariants held\n", seed, st.Steps)
	}
	fmt.Fprintf(o.stdout, "\ntotal: %d checked transitions\n\nsyscall coverage:\n", total.Steps)
	o.printSorted(total.Ops)
	fmt.Fprintln(o.stdout, "\nerrno coverage:")
	o.printSorted(total.Errnos)
	return 0
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
func (o out) runDiff(first uint64, seeds, steps int, reproOut string, ch *chaos) int {
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
			fmt.Fprintf(o.stderr, "seed %d: boot failed: %v\n", seed, err)
			return 1
		}
		if res != nil {
			fmt.Fprintf(o.stderr, "seed %d DIVERGED: %v\n", seed, res)
			if ch != nil {
				fmt.Fprintf(o.stderr, "under faults: %s\n", ch)
				return 1
			}
			fmt.Fprintln(o.stderr, "shrinking...")
			min := mck.Shrink(p, func(q mck.Program) bool { return mck.Fails(q, baseOpt) })
			if werr := os.WriteFile(reproOut, min.EncodeRepro(), 0o644); werr != nil {
				fmt.Fprintf(o.stderr, "atmo-fuzz: writing repro: %v\n", werr)
			} else {
				fmt.Fprintf(o.stderr, "minimized to %d ops; wrote %s (replay with -repro)\n",
					len(min.Ops), reproOut)
			}
			return 1
		}
		if v := violation(); v != nil {
			fmt.Fprintf(o.stderr, "seed %d: %s\n", seed, v)
			return 1
		}
		if ch != nil {
			ch.fold()
			fmt.Fprintf(o.stdout, "seed %d: %d ops in lockstep under faults, every errno, field of Ψ and invariant held; %s\n",
				seed, st.Steps, ch)
			continue
		}
		fmt.Fprintf(o.stdout, "seed %d: %d ops in lockstep, kernel and spec agreed on every field of Ψ\n", seed, st.Steps)
	}
	fmt.Fprintf(o.stdout, "\ntotal: %d differential transitions\n", total.Steps)
	if ch != nil {
		if err := ch.finish(o.stdout); err != nil {
			fmt.Fprintf(o.stderr, "atmo-fuzz: %v\n", err)
			return 1
		}
	}
	fmt.Fprintln(o.stdout, "\nsyscall coverage:")
	o.printSorted(total.Ops)
	fmt.Fprintln(o.stdout, "\nerrno coverage:")
	o.printSorted(total.Errnos)
	return 0
}

// runRepro replays a minimized repro file through the differential
// oracle; exit status reports whether the divergence still reproduces.
func (o out) runRepro(path string) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(o.stderr, "atmo-fuzz: %v\n", err)
		return 2
	}
	p, err := mck.ParseRepro(data)
	if err != nil {
		fmt.Fprintf(o.stderr, "atmo-fuzz: %s: %v\n", path, err)
		return 2
	}
	res, st, err := mck.RunDiff(p, mck.Options{WFEvery: 1})
	if err != nil {
		fmt.Fprintf(o.stderr, "%s: boot failed: %v\n", path, err)
		return 1
	}
	if res != nil {
		fmt.Fprintf(o.stdout, "%s: still diverges after %d ops: %v\n", path, st.Steps, res)
		return 1
	}
	fmt.Fprintf(o.stdout, "%s: %d ops replayed, kernel and spec agree (divergence fixed)\n", path, st.Steps)
	return 0
}

func (o out) printSorted(m map[string]int) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(o.stdout, "  %-24s %7d\n", k, m[k])
	}
}

// chaosPlan is -chaos's fault mix: allocator exhaustion on every
// allocation site a syscall touches, page-table nodes included.
var chaosPlan = faults.Plan{Rules: []faults.Rule{{Kind: faults.AllocExhaust, Rate: 0.10}}}

// chaos arms -chaos's fault injector and sinks on each booted kernel.
// Each seed gets a fresh injector, seeded like its program, and a fresh
// tracer (one kernel, one timeline); the last seed's trace is the one
// exported. The metrics registry is shared, so the kernel's counters
// accumulate across seeds, and the faults.* gauges, registered once,
// read the sweep's per-kind totals, which fold in each seed's injector
// when the seed ends.
type chaos struct {
	traceOut, metricsOut string
	tracer               *obs.Tracer
	registry             *obs.Registry
	inj                  *faults.Injector
	opportunities        [faults.KindCount]uint64
	injected             [faults.KindCount]uint64
}

func newChaos(traceOut, metricsOut string) *chaos {
	ch := &chaos{traceOut: traceOut, metricsOut: metricsOut}
	if metricsOut != "" {
		ch.registry = obs.NewRegistry()
		for k := faults.Kind(0); k < faults.KindCount; k++ {
			ch.registry.Gauge("faults."+k.String()+".opportunities", func() uint64 { return ch.opportunities[k] })
			ch.registry.Gauge("faults."+k.String()+".injected", func() uint64 { return ch.injected[k] })
		}
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
		k.Alloc.SetFaultHook(func() bool { return inj.Hit(faults.AllocExhaust) })
		ch.inj = inj
	}
}

// fold adds the finished seed's injector to the sweep's totals.
func (ch *chaos) fold() {
	for k := range ch.injected {
		ch.opportunities[k] += ch.inj.Opportunities[k]
		ch.injected[k] += ch.inj.Injected[k]
	}
}

// String reports the current seed's injector.
func (ch *chaos) String() string {
	return fmt.Sprintf("injected %d faults (%s), trace hash %#x",
		ch.inj.InjectedTotal(), ch.inj.Counts(), ch.inj.TraceHash())
}

// finish prints the sweep's fault total and writes the exports.
func (ch *chaos) finish(stdout io.Writer) error {
	var total uint64
	for _, n := range ch.injected {
		total += n
	}
	fmt.Fprintf(stdout, "chaos: %d faults injected\n", total)
	if ch.tracer != nil {
		if err := writeOut(ch.traceOut, func(w io.Writer) error { return obs.WriteTrace(w, ch.tracer) }); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote trace (%d events) to %s\n", ch.tracer.Len(), ch.traceOut)
	}
	if ch.registry != nil {
		if err := writeOut(ch.metricsOut, ch.registry.WriteText); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote metrics to %s\n", ch.metricsOut)
	}
	return nil
}

// writeOut creates path and streams write into it.
func writeOut(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
