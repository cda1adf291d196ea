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
	"io"
	"os"
	"strings"

	"atmosphere/internal/bench"
	"atmosphere/internal/obs"
	"atmosphere/internal/obs/contend"
	"atmosphere/internal/obs/dist"
	"atmosphere/internal/obs/profile"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "atmo-trace:", err)
		os.Exit(1)
	}
}

// run is the whole command: it parses args, runs the workload with the
// tracer and registry (plus the observatory with -contention) attached,
// writes the exports and prints the reports to stdout. Bad flag
// combinations exit with status 2, like bad flags do.
func run(args []string, stdout io.Writer) error {
	var names, single []string
	for _, w := range bench.Workloads() {
		names = append(names, w.Name)
		if !w.Cluster {
			single = append(single, w.Name)
		}
	}
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	workload := fs.String("workload", "kvstore", "workload to trace: "+strings.Join(names, ", "))
	seed := fs.Uint64("seed", 1, "workload seed")
	ops := fs.Int("ops", 200, "operations (kv ops or ipc round trips; per-core for multicore)")
	cores := fs.Int("cores", 4, "core count for the multicore workload")
	out := fs.String("o", "trace.json", "Perfetto trace output path")
	metricsOut := fs.String("metrics", "", "metrics dump output path (empty = skip)")
	profileOut := fs.String("profile", "", "write <prefix>.folded and <prefix>.pb.gz cycle profiles (empty = skip)")
	events := fs.Int("events", obs.DefaultEventCapacity, "tracer ring capacity (events)")
	merged := fs.Bool("merged", false, "cluster workload: distributed tracing on, write the merged multi-machine trace to -o")
	contention := fs.Bool("contention", false, "attach a contention observatory: counter tracks in the trace plus a contention report on stdout")
	fs.Parse(args)
	w, known := bench.WorkloadByName(*workload)
	if *merged && !w.Cluster {
		usage("-merged requires -workload cluster")
	}
	if *contention && w.Cluster {
		usage("-contention covers the single-machine workloads (%s)", strings.Join(single, ", "))
	}
	if !known {
		usage("unknown workload %q (%s)", *workload, strings.Join(names, ", "))
	}

	tracer := obs.NewTracer(*events)
	sinks := bench.Sinks{Tracer: tracer, Metrics: obs.NewRegistry()}
	if *contention {
		sinks.Contend = contend.New()
	}
	res, err := w.Run(sinks, bench.WorkloadOpts{
		Seed: *seed, Ops: *ops, Cores: *cores, DistTracing: *merged,
	})
	if err != nil {
		return err
	}
	if res.Summary != "" {
		fmt.Fprintln(stdout, res.Summary)
	}

	err = writeFile(*out, func(f io.Writer) error {
		if *merged {
			return dist.WriteMerged(f, res.Dist)
		}
		return obs.WriteTrace(f, tracer)
	})
	if err != nil {
		return err
	}
	if *metricsOut != "" {
		if err := writeFile(*metricsOut, sinks.Metrics.WriteText); err != nil {
			return err
		}
	}

	if *profileOut != "" {
		p, err := profile.WriteFiles(*profileOut, tracer)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, p.Describe(*profileOut))
	}

	if *merged {
		if err := res.Dist.Attribution(5).WriteText(stdout); err != nil {
			return err
		}
		for _, line := range res.Dist.PressureNotes() {
			fmt.Fprintln(stdout, line)
		}
	}

	if sinks.Contend != nil {
		if err := sinks.Contend.WriteReport(stdout); err != nil {
			return err
		}
	}

	coverage := 0.0
	if res.Cycles > 0 {
		coverage = 100 * float64(tracer.SpanTotal()) / float64(res.Cycles)
	}
	fmt.Fprintf(stdout, "%s: %d events (%d dropped), trace hash %016x\n",
		*workload, tracer.Len(), tracer.Dropped(), tracer.Hash())
	fmt.Fprintf(stdout, "spans cover %d of %d charged cycles (%.1f%%)\n",
		tracer.SpanTotal(), res.Cycles, coverage)
	fmt.Fprintf(stdout, "wrote %s — open it at https://ui.perfetto.dev\n", *out)
	return nil
}

// usage reports a bad flag combination the way the flag package
// reports a bad flag: message on stderr, exit status 2.
func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "atmo-trace: "+format+"\n", args...)
	os.Exit(2)
}

// writeFile creates path and streams write into it.
func writeFile(path string, write func(io.Writer) error) error {
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
