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
//	atmo-fuzz -chaos -seeds 4      # randomized traces under a fault plan
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
// With -chaos each trace runs on a raw kernel with a seeded fault
// injector armed — allocator exhaustion on every allocation site,
// dropped interrupt edges, spurious interrupts — and the full invariant
// suite (verify.TotalWF) is checked after every transition. The report
// is the invariant pass rate plus the injector's deterministic trace
// hash, so a failing seed reproduces bit-for-bit.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"atmosphere/internal/faults"
	"atmosphere/internal/hw"
	"atmosphere/internal/kernel"
	"atmosphere/internal/mck"
	"atmosphere/internal/obs"
	"atmosphere/internal/pm"
	"atmosphere/internal/pt"
	"atmosphere/internal/verify"
)

func main() {
	steps := flag.Int("steps", 2000, "ops per seed")
	seed := flag.Uint64("seed", 1, "first seed")
	seeds := flag.Int("seeds", 1, "number of independent seeds")
	diff := flag.Bool("diff", false, "differential mode: lockstep kernel-vs-spec-interpreter oracle")
	repro := flag.String("repro", "", "replay a repro file through the differential oracle and exit")
	reproOut := flag.String("repro-out", "atmo-fuzz-failure.repro", "with -diff: where to write a minimized failing program")
	chaos := flag.Bool("chaos", false, "inject faults and report the invariant pass rate")
	traceOut := flag.String("trace", "", "with -chaos: write the last seed's Perfetto trace to this path")
	metricsOut := flag.String("metrics", "", "with -chaos: write a metrics dump to this path")
	flag.Parse()

	switch {
	case *repro != "":
		runRepro(*repro)
		return
	case *chaos:
		runChaos(*seed, *seeds, *steps, *traceOut, *metricsOut)
		return
	}
	if *traceOut != "" || *metricsOut != "" {
		fmt.Fprintln(os.Stderr, "atmo-fuzz: -trace/-metrics require -chaos")
		os.Exit(2)
	}
	if *diff {
		runDiff(*seed, *seeds, *steps, *reproOut)
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
// on every booted kernel. The first divergence is shrunk to a minimal
// repro and written to reproOut; a lock-order inversion or footprint
// violation fails the seed with the checker's report.
func runDiff(first uint64, seeds, steps int, reproOut string) {
	total := mck.Stats{Ops: map[string]int{}, Errnos: map[string]int{}}
	baseOpt := mck.Options{WFEvery: 256}
	for s := 0; s < seeds; s++ {
		seed := first + uint64(s)
		p := mck.Generate(seed, steps)
		opt, violation := baseOpt.WithLockOrder()
		res, st, err := mck.RunDiff(p, opt)
		total.Merge(st)
		if err != nil {
			fmt.Fprintf(os.Stderr, "seed %d: boot failed: %v\n", seed, err)
			os.Exit(1)
		}
		if res != nil {
			fmt.Fprintf(os.Stderr, "seed %d DIVERGED: %v\nshrinking...\n", seed, res)
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
		fmt.Printf("seed %d: %d ops in lockstep, kernel and spec agreed on every field of Ψ\n", seed, st.Steps)
	}
	fmt.Printf("\ntotal: %d differential transitions\n\nsyscall coverage:\n", total.Steps)
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

// chaosPlan is the fuzzer's fault mix: allocator exhaustion hits every
// allocation site a syscall touches, dropped and spurious interrupt
// edges stress the dispatch path.
func chaosPlan() faults.Plan {
	return faults.Plan{Rules: []faults.Rule{
		{Kind: faults.AllocExhaust, Rate: 0.10},
		{Kind: faults.IRQDrop, Rate: 0.30},
		{Kind: faults.IRQSpurious, Rate: 0.05},
	}}
}

// runChaos drives the -chaos mode: per seed, a randomized trace on a
// raw kernel with the injector armed, TotalWF checked after every
// transition, and a pass-rate summary at the end. Each seed gets a
// fresh tracer (one kernel, one timeline); the last seed's trace is
// the one exported. The metrics registry is shared, so counters
// accumulate across seeds.
func runChaos(first uint64, seeds, steps int, traceOut, metricsOut string) {
	var registry *obs.Registry
	if metricsOut != "" {
		registry = obs.NewRegistry()
	}
	var tracer *obs.Tracer
	checked, violations := 0, 0
	for s := 0; s < seeds; s++ {
		seed := first + uint64(s)
		if traceOut != "" {
			tracer = obs.NewTracer(0)
		}
		c, v, inj, err := chaosOne(seed, steps, tracer, registry)
		checked += c
		violations += v
		if err != nil {
			fmt.Fprintf(os.Stderr, "seed %d FAILED after %d transitions: %v\n", seed, c, err)
			os.Exit(1)
		}
		fmt.Printf("seed %d: %d transitions, %d invariant violations; injected %d faults (%s), trace hash %#x\n",
			seed, c, v, inj.InjectedTotal(), inj.Counts(), inj.TraceHash())
	}
	rate := 100.0
	if checked > 0 {
		rate = 100 * float64(checked-violations) / float64(checked)
	}
	fmt.Printf("\nchaos: %d transitions checked under faults, %d violations, invariant pass rate %.2f%%\n",
		checked, violations, rate)
	if tracer != nil {
		if err := writeOut(traceOut, func(w io.Writer) error { return obs.WriteTrace(w, tracer) }); err != nil {
			fmt.Fprintf(os.Stderr, "atmo-fuzz: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote trace (%d events) to %s\n", tracer.Len(), traceOut)
	}
	if registry != nil {
		if err := writeOut(metricsOut, registry.WriteText); err != nil {
			fmt.Fprintf(os.Stderr, "atmo-fuzz: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote metrics to %s\n", metricsOut)
	}
	if violations > 0 {
		os.Exit(1)
	}
}

// writeOut creates path and streams write into it.
func writeOut(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// chaosOne runs one seed's randomized trace with faults armed. Unlike
// the checked mode it drives the raw kernel — injected allocator
// failures make syscalls return ENOMEM mid-operation, which the
// per-step spec checker would (correctly) flag as off-spec, while the
// invariant suite must hold regardless: errored syscalls may abort,
// never corrupt.
func chaosOne(seed uint64, steps int, tracer *obs.Tracer, registry *obs.Registry) (checked, violations int, inj *faults.Injector, err error) {
	k, init, err := kernel.Boot(hw.Config{Frames: 4096, Cores: 4, TLBSlots: 256})
	if err != nil {
		return 0, 0, nil, err
	}
	k.AttachObs(tracer, registry)
	inj, err = faults.NewInjector(seed, chaosPlan(), k.Machine.TotalCycles)
	if err != nil {
		return 0, 0, nil, err
	}
	inj.SetTracer(tracer)
	inj.RegisterMetrics(registry)
	k.Alloc.SetFaultHook(func() bool { return inj.Hit(faults.AllocExhaust) })
	k.IRQFilter = func(core, irq int) bool { return !inj.Hit(faults.IRQDrop) }

	r := hw.NewRand(seed ^ 0x9e3779b97f4a7c15)
	var containers []pm.Ptr
	nextVA := uint64(0x20000000)
	var firstViolation error
	step := func() {
		checked++
		if e := verify.TotalWF(k); e != nil {
			violations++
			if firstViolation == nil {
				firstViolation = e
			}
		}
	}
	for i := 0; i < steps; i++ {
		switch r.Intn(9) {
		case 0, 1:
			count := 1 + r.Intn(4)
			va := hw.VirtAddr(nextVA)
			nextVA += uint64(count+1) * hw.PageSize4K
			k.SysMmap(0, init, va, count, hw.Size4K, pt.RW)
		case 2:
			k.SysMunmap(0, init,
				hw.VirtAddr(0x20000000+uint64(r.Intn(512))*hw.PageSize4K), 1, hw.Size4K)
		case 3:
			if ret := k.SysNewContainer(0, init, uint64(5+r.Intn(40)), []int{0}); ret.Errno == kernel.OK {
				containers = append(containers, pm.Ptr(ret.Vals[0]))
			}
		case 4:
			if len(containers) > 0 {
				if ret := k.SysNewProcessIn(0, init, containers[r.Intn(len(containers))]); ret.Errno == kernel.OK {
					k.SysNewThreadIn(0, init, pm.Ptr(ret.Vals[0]), 1+r.Intn(3))
				}
			}
		case 5:
			slot := 1 + r.Intn(pm.MaxEndpoints-1)
			if r.Intn(2) == 0 {
				k.SysNewEndpoint(0, init, slot)
			} else {
				k.SysCloseEndpoint(0, init, slot)
			}
		case 6:
			if len(containers) > 0 {
				j := r.Intn(len(containers))
				ret := kernel.Ret{Errno: kernel.EAGAIN}
				for rounds := 0; ret.Errno == kernel.EAGAIN && rounds < 64; rounds++ {
					ret = k.SysKillContainerBounded(0, init, containers[j], 1+r.Intn(4))
					step() // every intermediate kill state must be well-formed
				}
				if ret.Errno == kernel.OK {
					containers = append(containers[:j], containers[j+1:]...)
				}
				continue
			}
		case 7:
			k.SysYield(0, init)
		default:
			if inj.Hit(faults.IRQSpurious) {
				k.RaiseIRQ(r.Intn(4), 32+r.Intn(16)) // unbound line: must be inert
			}
		}
		step()
	}
	return checked, violations, inj, firstViolation
}
