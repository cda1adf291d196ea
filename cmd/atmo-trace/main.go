// Command atmo-trace runs a workload on the simulated kernel with the
// cycle-accurate tracer attached and exports the result: a Chrome/
// Perfetto trace_event JSON file (open it at https://ui.perfetto.dev)
// and, optionally, a plain-text metrics dump. Everything rides the
// deterministic cycle clock, so two runs with the same flags produce
// byte-identical files.
//
// Usage:
//
//	atmo-trace -workload kvstore -seed 1 -o trace.json
//	atmo-trace -workload chaos -seed 7 -o trace.json -metrics metrics.txt
//	atmo-trace -workload ipc -ops 1000 -o trace.json
//	atmo-trace -workload multicore -cores 4 -o trace.json
//	atmo-trace -workload kvstore-batch -cores 4 -o trace.json
//	atmo-trace -workload cluster -seed 1107 -o trace.json
//	atmo-trace -workload cluster -merged -seed 1107 -o merged.json
//	atmo-trace -workload multicore -cores 4 -contention -o trace.json
//
// With -merged the cluster workload runs with distributed tracing on
// and -o receives the merged multi-machine trace instead: one process
// track per participant (client, lb, every backend) with flow arrows
// linking each request's hops, plus a critical-path attribution report
// on stdout.
//
// With -contention a contention observatory rides the run: per-lock
// wait-rate and holder-queue-depth counter tracks merge onto the
// exported timeline, and the deterministic contention report (top
// contended locks, per-syscall/container wait attribution, run-queue
// delays) prints to stdout.
package main

import (
	"flag"
	"fmt"
	"os"

	"atmosphere/internal/bench"
	"atmosphere/internal/cluster"
	"atmosphere/internal/drivers"
	"atmosphere/internal/faults"
	"atmosphere/internal/kernel"
	"atmosphere/internal/obs"
	"atmosphere/internal/obs/contend"
	"atmosphere/internal/obs/dist"
	"atmosphere/internal/obs/profile"
)

func main() {
	workload := flag.String("workload", "kvstore", "workload to trace: kvstore, kvstore-batch, chaos, ipc, multicore, cluster")
	seed := flag.Uint64("seed", 1, "workload seed")
	ops := flag.Int("ops", 200, "operations (kv ops or ipc round trips; per-core for multicore)")
	cores := flag.Int("cores", 4, "core count for the multicore workload")
	out := flag.String("o", "trace.json", "Perfetto trace output path")
	metricsOut := flag.String("metrics", "", "metrics dump output path (empty = skip)")
	profileOut := flag.String("profile", "", "write <prefix>.folded and <prefix>.pb.gz cycle profiles (empty = skip)")
	events := flag.Int("events", obs.DefaultEventCapacity, "tracer ring capacity (events)")
	merged := flag.Bool("merged", false, "cluster workload: distributed tracing on, write the merged multi-machine trace to -o")
	contention := flag.Bool("contention", false, "attach a contention observatory: counter tracks in the trace plus a contention report on stdout")
	flag.Parse()
	if *merged && *workload != "cluster" {
		fmt.Fprintln(os.Stderr, "atmo-trace: -merged requires -workload cluster")
		os.Exit(2)
	}
	if *contention && *workload == "cluster" {
		fmt.Fprintln(os.Stderr, "atmo-trace: -contention covers the single-machine workloads (kvstore, kvstore-batch, chaos, ipc, multicore)")
		os.Exit(2)
	}

	tracer := obs.NewTracer(*events)
	registry := obs.NewRegistry()
	var cobs *contend.Observatory
	if *contention {
		cobs = contend.New()
	}

	var totalCycles uint64
	var distCol *dist.Collector
	var err error
	switch *workload {
	case "kvstore":
		totalCycles, err = runKV(tracer, registry, *seed, *ops, drivers.ChaosConfig{Contend: cobs})
	case "chaos":
		totalCycles, err = runKV(tracer, registry, *seed, *ops,
			drivers.ChaosConfig{Plan: drivers.DefaultChaosPlan(), Contend: cobs})
	case "ipc":
		totalCycles, err = runIPC(tracer, registry, cobs, *ops)
	case "multicore":
		totalCycles, err = runMulticore(tracer, registry, cobs, *cores, *seed, *ops)
	case "kvstore-batch":
		totalCycles, err = runKVBatch(tracer, registry, cobs, *cores, *seed, *ops)
	case "cluster":
		totalCycles, distCol, err = runCluster(tracer, registry, *seed, *merged)
	default:
		fmt.Fprintf(os.Stderr, "atmo-trace: unknown workload %q (kvstore, kvstore-batch, chaos, ipc, multicore, cluster)\n", *workload)
		os.Exit(2)
	}
	if err != nil {
		fail(err)
	}

	f, err := os.Create(*out)
	if err != nil {
		fail(err)
	}
	if *merged {
		err = dist.WriteMerged(f, distCol)
	} else {
		err = obs.WriteTrace(f, tracer)
	}
	if err != nil {
		fail(err)
	}
	if err := f.Close(); err != nil {
		fail(err)
	}
	if *metricsOut != "" {
		mf, err := os.Create(*metricsOut)
		if err != nil {
			fail(err)
		}
		if err := registry.WriteText(mf); err != nil {
			fail(err)
		}
		if err := mf.Close(); err != nil {
			fail(err)
		}
	}

	if *profileOut != "" {
		p, err := profile.WriteFiles(*profileOut, tracer)
		if err != nil {
			fail(err)
		}
		fmt.Println(p.Describe(*profileOut))
	}

	if *merged {
		if err := distCol.Attribution(5).WriteText(os.Stdout); err != nil {
			fail(err)
		}
		for _, line := range distCol.PressureNotes() {
			fmt.Println(line)
		}
	}

	if cobs != nil {
		if err := cobs.WriteReport(os.Stdout); err != nil {
			fail(err)
		}
	}

	coverage := 0.0
	if totalCycles > 0 {
		coverage = 100 * float64(tracer.SpanTotal()) / float64(totalCycles)
	}
	fmt.Printf("%s: %d events (%d dropped), trace hash %016x\n",
		*workload, tracer.Len(), tracer.Dropped(), tracer.Hash())
	fmt.Printf("spans cover %d of %d charged cycles (%.1f%%)\n",
		tracer.SpanTotal(), totalCycles, coverage)
	fmt.Printf("wrote %s — open it at https://ui.perfetto.dev\n", *out)
}

// runKV drives the chaos-harness kvstore workload (fault-free when
// cfg.Plan is empty) with the tracer attached end to end.
func runKV(t *obs.Tracer, m *obs.Registry, seed uint64, ops int, cfg drivers.ChaosConfig) (uint64, error) {
	cfg.Seed = seed
	cfg.Ops = ops
	cfg.Trace = t
	cfg.Metrics = m
	report, err := drivers.RunChaosKV(cfg)
	if report == nil {
		return 0, err
	}
	return report.TotalCycles, err
}

// runMulticore traces the multicore scalability series' three
// sub-workloads back to back on a cores-wide machine: contention-aware
// big lock, per-core page caches, work stealing — the lock.wait spans
// show up on every contended core's timeline. When cobs is non-nil all
// three sub-workloads report into it; each booted kernel registers a
// distinct big-lock frontier (big/kernel, big/kernel#1, ...).
func runMulticore(t *obs.Tracer, m *obs.Registry, cobs *contend.Observatory, cores int, seed uint64, ops int) (uint64, error) {
	if cobs != nil {
		bench.SetContention(cobs)
		defer bench.SetContention(nil)
	}
	var total uint64
	for _, wl := range []string{"ipc", "kvstore", "alloc"} {
		_, _, tc, err := bench.RunMulticore(wl, cores, seed, ops, t, m, nil)
		if err != nil {
			return total, fmt.Errorf("atmo-trace: multicore %s: %w", wl, err)
		}
		total += tc
	}
	return total, nil
}

// runKVBatch traces the batched kv-rpc workload: per-core client/server
// pairs moving request pages by grant through submission-ring
// doorbells. The SysBatch spans wrap the per-op spans of everything a
// doorbell drains, so the amortized trampoline is visible on the
// timeline.
func runKVBatch(t *obs.Tracer, m *obs.Registry, cobs *contend.Observatory, cores int, seed uint64, ops int) (uint64, error) {
	if cobs != nil {
		bench.SetContention(cobs)
		defer bench.SetContention(nil)
	}
	_, _, tc, err := bench.RunKVRPC(true, cores, seed, ops, t, m, nil)
	if err != nil {
		return tc, fmt.Errorf("atmo-trace: kvstore-batch: %w", err)
	}
	return tc, nil
}

// runCluster traces the multi-machine chaos scenario: the bench
// series' kill-one-backend plan, with the fault injector's instants and
// the cluster's kill/respawn/evict/reinstate events on one timeline.
// With merged set, distributed tracing is on and the returned collector
// holds every participant's request spans for the merged export.
func runCluster(t *obs.Tracer, m *obs.Registry, seed uint64, merged bool) (uint64, *dist.Collector, error) {
	cfg := cluster.DefaultConfig()
	cfg.Seed = seed
	cfg.Tracer = t
	cfg.Metrics = m
	cfg.DistTracing = merged
	cfg.Plan = faults.Plan{Rules: []faults.Rule{{
		Kind:   faults.MachineKill,
		Period: 800 * cluster.TickCycles,
		Until:  801 * cluster.TickCycles,
		Target: 3, // backend 1
	}}}
	c, err := cluster.New(cfg)
	if err != nil {
		return 0, nil, err
	}
	r := c.Run()
	fmt.Printf("cluster: %d responses, %d lost, reconverge kill %d cycles, trace hash %016x\n",
		r.Responses, r.GaveUp, r.ReconvergeKillCycles, r.TraceHash)
	return r.KernelCycles, c.Dist(), nil
}

// runIPC traces a bare call/reply ping-pong — the Table 3 microbench
// shape, instrumented.
func runIPC(t *obs.Tracer, m *obs.Registry, cobs *contend.Observatory, rounds int) (uint64, error) {
	k, _, _, err := bench.RunCallReply(0, rounds, func(k *kernel.Kernel) {
		k.AttachObs(t, m)
		k.AttachContention(cobs)
	})
	if err != nil {
		return 0, err
	}
	return k.Machine.TotalCycles(), nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "atmo-trace:", err)
	os.Exit(1)
}
