// Package perf is the repository's benchmark: five workloads that drive
// the kernel, the kv app, the shared-memory rings, the cluster tier and
// the model checker through their public entry points only, timing every
// call into a layer from outside. Simulated figures come from the
// calling core's hw.Clock; host figures from getrusage CPU time and
// runtime.MemStats. Every output is checked: a wrong reply word, an
// unexpected errno, a bad completion, a lost cluster request or an
// oracle finding counts as a failed operation.
//
// A run repeats the workload's measured phase on fresh boots. Simulated
// figures must repeat bit for bit across repetitions (a repetition that
// differs fails the run); host figures are medians over repetitions.
// See README.md for the workloads, the metrics and the layer each
// per-layer metric belongs to.
package perf

import (
	"bytes"
	"fmt"
	"math"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"time"
)

// DefaultSeed is the workload seed used when none is given.
const DefaultSeed = 1

// tracedHeapLimit is the soft Go heap limit of the traced repetition.
const tracedHeapLimit = 256 << 20

// Options select one run of one workload.
type Options struct {
	Seed uint64
	// Reps is the minimum number of measured repetitions, each on a
	// fresh boot; Seconds keeps repeating until that much wall time has
	// passed.
	Reps    int
	Seconds float64
	// Scale is the run length as a fraction of the workload's default
	// (0 means 1). Tests use small scales.
	Scale float64
	// Trace adds one repetition with every observability sink attached
	// and a CPU profile over the untraced repetitions, and reports the
	// per-layer metrics instead of the end-to-end ones.
	Trace bool
	// TraceDir receives the traced repetition's artifacts; "" writes
	// none.
	TraceDir string
}

// Report is one run's result.
type Report struct {
	Workload  string
	Reps      int
	Attempted uint64
	Failed    uint64
	// Problems lists failed checks that are not single operations: a
	// repetition that diverged, a traced run that disagreed with the
	// untraced one, an aborted phase.
	Problems []string
	// Metrics holds every end-to-end metric, or with Options.Trace
	// every per-layer one.
	Metrics map[string]float64
}

// Correct reports whether every check passed.
func (r *Report) Correct() bool { return r.Failed == 0 && len(r.Problems) == 0 }

// workload is one benchmark workload.
type workload struct {
	name, why string
	// length is the default measured run length, in the workload's own
	// unit (requests per core, generations per core, ticks, ...).
	length int
	// setup builds a fresh instance — boot, objects, prefill, inputs —
	// and returns its measured phase. tr is nil on untraced runs.
	setup func(seed uint64, length int, tr *tracing) (phase, error)
}

// phase runs the measured operations of one repetition.
type phase func() (*outcome, error)

// outcome is what one measured phase reports.
type outcome struct {
	ops, failed uint64
	// sim holds exact simulated figures, end-to-end and per-layer.
	sim map[string]float64
	// host holds host-side per-layer figures the workload measured
	// around its own calls.
	host map[string]float64
	// trace holds figures only a traced repetition produces.
	trace map[string]float64
}

func newOutcome() *outcome {
	return &outcome{sim: map[string]float64{}, host: map[string]float64{}, trace: map[string]float64{}}
}

// Workloads lists the workload names in their canonical order.
func Workloads() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

var workloads = []*workload{ipcRPC, kvBatch, sharedAlloc, clusterChaos, checked}

func lookup(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// repHost is one repetition's host cost. setupCPU is the mean over the
// repetition's set-ups.
type repHost struct {
	calCPU, setupCPU, runCPU float64
	alloc                    uint64
}

// minSetupCPU is how long, in CPU seconds, an untraced repetition keeps
// setting up: a workload whose set-up takes a millisecond sets up again
// (keeping the last instance) until this much has passed, collections
// between set-ups included, so its set-up figure averages over enough
// work to stand above scheduler noise.
const minSetupCPU = 0.05

// runRep runs one repetition on a fresh instance: the calibration loop
// that set-up time is scaled by, the set-up, then the measured phase.
func runRep(w *workload, seed uint64, length int, tr *tracing) (*outcome, repHost, error) {
	var h repHost
	var err error
	if h.calCPU, err = freshCPU(calibrate); err != nil {
		return nil, h, err
	}

	var run phase
	var setupErr error
	start, err := readHost()
	if err != nil {
		return nil, h, err
	}
	h0, setups := start, 0
	for setups == 0 || (tr == nil && h0.cpu-start.cpu < minSetupCPU) {
		cpu, err := freshCPU(func() { run, setupErr = w.setup(seed, length, tr) })
		if err != nil {
			return nil, h, err
		}
		if setupErr != nil {
			return nil, h, fmt.Errorf("setup: %w", setupErr)
		}
		h.setupCPU += cpu
		setups++
		if h0, err = readHost(); err != nil {
			return nil, h, err
		}
	}
	h.setupCPU /= float64(setups)

	o, err := run()
	if err != nil {
		return nil, h, err
	}
	h1, err := readHost()
	if err != nil {
		return nil, h, err
	}
	h.runCPU = h1.cpu - h0.cpu
	h.alloc = h1.alloc - h0.alloc
	return o, h, nil
}

// Run runs one workload.
func Run(name string, opt Options) (*Report, error) {
	w := lookup(name)
	if w == nil {
		return nil, fmt.Errorf("perf: unknown workload %q (have %v)", name, Workloads())
	}
	scale := opt.Scale
	if scale == 0 {
		scale = 1
	}
	length := int(math.Round(float64(w.length) * scale))
	if length < 1 {
		length = 1
	}
	reps := opt.Reps
	if reps < 1 {
		reps = 1
	}
	rep := &Report{Workload: name, Metrics: map[string]float64{}}

	var prof bytes.Buffer
	if opt.Trace {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("perf: cpu profile: %w", err)
		}
	}
	var first *outcome
	var cals, setups, rates, allocs, runCPUs []float64
	hostLayer := map[string][]float64{}
	budget := time.Duration(opt.Seconds * float64(time.Second))
	start := time.Now()
	for i := 0; i < reps || time.Since(start) < budget; i++ {
		o, h, err := runRep(w, opt.Seed, length, nil)
		if err != nil {
			rep.Problems = append(rep.Problems, fmt.Sprintf("rep %d: %v", i, err))
			break
		}
		rep.Reps++
		rep.Attempted += o.ops
		rep.Failed += o.failed
		if first == nil {
			first = o
		} else if d := simDiff(first.sim, o.sim); d != "" {
			rep.Problems = append(rep.Problems, fmt.Sprintf("rep %d: simulated metrics differ from rep 0: %s", i, d))
		}
		cals = append(cals, h.calCPU)
		setups = append(setups, h.setupCPU)
		rates = append(rates, ratio(float64(o.ops), h.runCPU))
		allocs = append(allocs, ratio(float64(h.alloc), float64(o.ops)))
		runCPUs = append(runCPUs, h.runCPU)
		for k, v := range o.host {
			hostLayer[k] = append(hostLayer[k], v)
		}
	}
	if opt.Trace {
		pprof.StopCPUProfile()
	}
	if first == nil {
		return rep, nil
	}

	if !opt.Trace {
		for _, m := range EndToEnd {
			if v, ok := first.sim[m.Name]; ok {
				rep.Metrics[m.Name] = v
			}
		}
		rep.Metrics["host_alloc_bytes_per_op"] = median(allocs)
		// Medians before the ratio: calibration and set-up noise are
		// independent from one repetition to the next, and only drift
		// slower than a run is shared.
		rep.Metrics["setup_s"] = ratio(median(setups)*refCalibrationCPU, median(cals))
		rep.Problems = append(rep.Problems, undeclared(EndToEnd, rep.Metrics)...)
		return rep, nil
	}

	for _, m := range PerLayer {
		rep.Metrics[m.Name] = 0
	}
	for k, v := range first.sim {
		if !isEndToEnd(k) {
			rep.Metrics[k] = v
		}
	}
	for k, vs := range hostLayer {
		rep.Metrics[k] = median(vs)
	}
	rep.Metrics["error_ratio"] = ratio(float64(rep.Failed), float64(rep.Attempted))
	rep.Metrics["host.ops_per_cpu_s"] = median(rates)
	untraced, err := readHost()
	if err != nil {
		return nil, err
	}
	rep.Metrics["host.max_rss_mb"] = untraced.maxRSSMiB
	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		rep.Problems = append(rep.Problems, err.Error())
	}
	for pkg, s := range shares {
		rep.Metrics["host.cpu_share."+pkg] = s
	}

	// The traced repetition's sinks keep a record per request (the
	// cluster's critical paths): a soft heap limit keeps its peak near
	// the live set instead of letting the heap double past it.
	defer debug.SetMemoryLimit(debug.SetMemoryLimit(tracedHeapLimit))
	tr := newTracing(opt.TraceDir, name)
	o, h, err := runRep(w, opt.Seed, length, tr)
	if err != nil {
		rep.Problems = append(rep.Problems, fmt.Sprintf("traced rep: %v", err))
	} else {
		rep.Attempted += o.ops
		rep.Failed += o.failed
		if d := simDiff(first.sim, o.sim); d != "" {
			rep.Problems = append(rep.Problems, "traced simulated metrics differ from untraced: "+d)
		}
		for k, v := range o.trace {
			rep.Metrics[k] = v
		}
		rep.Metrics["trace.host_overhead_ratio"] = ratio(h.runCPU, median(runCPUs))
	}
	if err := tr.write("cpu.pprof", prof.Bytes()); err != nil {
		rep.Problems = append(rep.Problems, err.Error())
	}
	rep.Problems = append(rep.Problems, undeclared(PerLayer, rep.Metrics)...)
	return rep, nil
}

// simDiff names the first simulated figure that differs between two
// repetitions ("" when they agree bit for bit).
func simDiff(a, b map[string]float64) string {
	keys := make([]string, 0, len(a)+len(b))
	for k := range a {
		keys = append(keys, k)
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		x, okx := a[k]
		y, oky := b[k]
		if !okx || !oky || math.Float64bits(x) != math.Float64bits(y) {
			return fmt.Sprintf("%s: %v vs %v", k, x, y)
		}
	}
	return ""
}

func isEndToEnd(name string) bool {
	for _, m := range EndToEnd {
		if m.Name == name {
			return true
		}
	}
	return false
}

// undeclared reports every metric in got that the catalog lacks, and
// every catalog metric got lacks.
func undeclared(catalog []Metric, got map[string]float64) []string {
	var out []string
	want := map[string]bool{}
	for _, m := range catalog {
		want[m.Name] = true
		if _, ok := got[m.Name]; !ok {
			out = append(out, "metric not emitted: "+m.Name)
		}
	}
	var extra []string
	for k := range got {
		if !want[k] {
			extra = append(extra, "undeclared metric emitted: "+k)
		}
	}
	sort.Strings(extra)
	return append(out, extra...)
}
