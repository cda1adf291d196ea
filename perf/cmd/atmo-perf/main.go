// Command atmo-perf runs the repository benchmark (see perf/README.md):
//
//	atmo-perf -workload <name|all> [-seed n] [-seconds s] [-reps n] [-trace 0|1] [-trace-dir dir]
//
// It prints every metric by name and unit, then as its last line one
// JSON object: {"correct", "attempted", "failed", "metrics": {name:
// {"value", "unit"}}}. With -trace 0 the metrics are the end-to-end
// ones, with -trace 1 the per-layer ones. It exits 1 when any output
// check failed. -workload all runs every workload, each in its own
// process.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"

	"atmosphere/perf"
)

func main() {
	workload := flag.String("workload", "", "workload to run, or all")
	seed := flag.Uint64("seed", perf.DefaultSeed, "workload seed: the inputs are a pure function of it")
	seconds := flag.Float64("seconds", 0, "keep repeating the measured phase until this many seconds have passed")
	reps := flag.Int("reps", 5, "minimum repetitions of the measured phase, each on a fresh boot")
	trace := flag.Int("trace", 0, "1 adds a traced repetition and reports the per-layer metrics")
	traceDir := flag.String("trace-dir", "atmo-perf-trace", "where the traced repetition writes its artifacts")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "atmo-perf: -trace must be 0 or 1")
		os.Exit(2)
	}
	// One process per workload, one goroutine of simulation; cap the Go
	// scheduler so host figures do not depend on the machine's width.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	if *workload == "all" {
		os.Exit(runAll())
	}
	rep, err := perf.Run(*workload, perf.Options{
		Seed: *seed, Reps: *reps, Seconds: *seconds, Trace: *trace == 1, TraceDir: *traceDir,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "atmo-perf:", err)
		os.Exit(2)
	}
	catalog := perf.EndToEnd
	if *trace == 1 {
		catalog = perf.PerLayer
	}
	fmt.Printf("workload %s seed %d reps %d attempted %d failed %d\n",
		rep.Workload, *seed, rep.Reps, rep.Attempted, rep.Failed)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, m := range catalog {
		v, ok := rep.Metrics[m.Name]
		if !ok {
			continue
		}
		fmt.Printf("  %-42s %16.6g %s\n", m.Name, v, m.Unit)
		metrics[m.Name] = value{v, m.Unit}
	}
	for _, p := range rep.Problems {
		fmt.Fprintln(os.Stderr, "atmo-perf: FAIL:", p)
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.Correct(), rep.Attempted, rep.Failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "atmo-perf:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !rep.Correct() {
		os.Exit(1)
	}
}

// runAll re-runs this command once per workload, each in its own
// process with the same flags, and returns the worst exit code.
func runAll() int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "atmo-perf:", err)
		return 2
	}
	code := 0
	for _, w := range perf.Workloads() {
		args := []string{"-workload", w}
		flag.Visit(func(f *flag.Flag) {
			if f.Name != "workload" {
				args = append(args, "-"+f.Name, f.Value.String())
			}
		})
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "atmo-perf: %s: %v\n", w, err)
			c := 2
			var ee *exec.ExitError
			if errors.As(err, &ee) {
				c = ee.ExitCode()
			}
			code = max(code, c)
		}
	}
	return code
}
