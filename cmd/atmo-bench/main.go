// Command atmo-bench regenerates the tables and figures of the paper's
// evaluation (§6). Each experiment prints measured values next to the
// paper's reported numbers.
//
// Usage:
//
//	atmo-bench                  # run everything
//	atmo-bench -experiment fig4 # one experiment
//	atmo-bench -series multicore # the multicore scalability series
//	atmo-bench -series cluster   # the multi-machine chaos scenario
//	atmo-bench -list            # list experiment ids
//	atmo-bench -json -outdir .  # also write BENCH_<id>.json per experiment
//	atmo-bench -check bench_all_reference.txt  # exit nonzero if a gated row moved
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"atmosphere/internal/bench"
	"atmosphere/internal/obs"
	"atmosphere/internal/obs/account"
	"atmosphere/internal/obs/profile"
)

func main() {
	experiment := flag.String("experiment", "all", "experiment id (or comma list, or 'all')")
	series := flag.String("series", "", "named experiment series (multicore, batch, cluster, paper, all); overrides -experiment")
	list := flag.Bool("list", false, "list experiment ids")
	traceOut := flag.String("trace", "", "write a Perfetto trace of the instrumented experiments to this path")
	metricsOut := flag.String("metrics", "", "write a plain-text metrics dump to this path")
	profileOut := flag.String("profile", "", "write <prefix>.folded and <prefix>.pb.gz cycle profiles of the instrumented experiments")
	jsonOut := flag.Bool("json", false, "write BENCH_<id>.json per experiment (machine-readable trajectory)")
	outdir := flag.String("outdir", ".", "directory for BENCH_<id>.json files")
	check := flag.String("check", "", "reference dump to compare against (exit 1 if any gated row differs)")
	flag.Parse()

	if *list {
		for _, id := range bench.IDs() {
			fmt.Println(id)
		}
		return
	}

	var sinks bench.Sinks
	if *traceOut != "" || *profileOut != "" || *jsonOut {
		sinks.Tracer = obs.NewTracer(0)
	}
	if *metricsOut != "" {
		sinks.Metrics = obs.NewRegistry()
		// The accounting gauges ride the metrics dump: the ledger rebinds
		// per experiment boot, so the dump reflects the last kernel.
		sinks.Ledger = account.NewLedger()
	}
	tracer, registry := sinks.Tracer, sinks.Metrics

	var run []bench.Experiment
	if *series != "" {
		var ok bool
		run, ok = bench.Series(*series)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown series %q (multicore, batch, cluster, paper, all)\n", *series)
			os.Exit(2)
		}
	} else if *experiment == "all" {
		run = bench.All()
	} else {
		for _, id := range strings.Split(*experiment, ",") {
			e, ok := bench.ByID(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", id)
				os.Exit(2)
			}
			run = append(run, e)
		}
	}
	var results []bench.Result
	for _, e := range run {
		res, err := e.Run(sinks)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			os.Exit(1)
		}
		results = append(results, res)
		fmt.Println(res)
		if *jsonOut {
			var hash uint64
			if tracer != nil {
				hash = tracer.Hash()
			}
			path := filepath.Join(*outdir, "BENCH_"+res.ID+".json")
			err := writeFile(path, func(w io.Writer) error {
				return bench.WriteResultJSON(w, res, hash)
			})
			if err != nil {
				fmt.Fprintf(os.Stderr, "atmo-bench: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n", path)
		}
	}

	if tracer != nil && *traceOut != "" {
		if err := writeFile(*traceOut, func(w io.Writer) error { return obs.WriteTrace(w, tracer) }); err != nil {
			fmt.Fprintf(os.Stderr, "atmo-bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote trace (%d events) to %s\n", tracer.Len(), *traceOut)
	}
	if registry != nil {
		if err := writeFile(*metricsOut, registry.WriteText); err != nil {
			fmt.Fprintf(os.Stderr, "atmo-bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote metrics to %s\n", *metricsOut)
	}
	if *profileOut != "" {
		p, err := profile.WriteFiles(*profileOut, tracer)
		if err != nil {
			fmt.Fprintf(os.Stderr, "atmo-bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(p.Describe(*profileOut))
	}

	if *check != "" {
		f, err := os.Open(*check)
		if err != nil {
			fmt.Fprintf(os.Stderr, "atmo-bench: %v\n", err)
			os.Exit(1)
		}
		ref, err := bench.ParseReference(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "atmo-bench: %v\n", err)
			os.Exit(1)
		}
		diffs := bench.CompareToReference(results, ref)
		if len(diffs) > 0 {
			fmt.Fprintf(os.Stderr, "atmo-bench: %d gated row(s) differ from %s:\n", len(diffs), *check)
			for _, d := range diffs {
				fmt.Fprintf(os.Stderr, "  %s\n", d)
			}
			os.Exit(1)
		}
		fmt.Printf("every gated row matches %s\n", *check)
	}
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
