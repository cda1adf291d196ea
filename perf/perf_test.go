package perf

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// smoke sizes every workload for a test run: a fraction of a second
// each, long enough that the cluster still kills a backend and the
// checker still runs every corpus program.
var smoke = map[string]float64{
	"ipc-rpc":       0.01,
	"kv-batch":      0.01,
	"shared-alloc":  0.01,
	"cluster-chaos": 0.03,
	"checked":       0.02,
}

// smokeReports caches smoke runs by workload, seed and mode for the
// tests that only read them.
var smokeReports = map[string]*Report{}

func smokeReport(t *testing.T, name string, seed uint64, trace bool) *Report {
	t.Helper()
	key := fmt.Sprint(name, seed, trace)
	if smokeReports[key] == nil {
		// Two untraced repetitions, which Run compares bit for bit; a
		// traced run compares its traced repetition with one untraced.
		reps := 2
		if trace {
			reps = 1
		}
		smokeReports[key] = smokeRun(t, name, seed, reps, trace)
	}
	return smokeReports[key]
}

func smokeRun(t *testing.T, name string, seed uint64, reps int, trace bool) *Report {
	t.Helper()
	rep, err := Run(name, Options{Seed: seed, Reps: reps, Scale: smoke[name], Trace: trace})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !rep.Correct() {
		t.Fatalf("%s seed %d trace %v: failed %d of %d, problems %v",
			name, seed, trace, rep.Failed, rep.Attempted, rep.Problems)
	}
	return rep
}

// simulated returns a report's simulated end-to-end figures.
func simulated(rep *Report) map[string]float64 {
	out := map[string]float64{}
	for _, m := range EndToEnd {
		if m.Name != "host_alloc_bytes_per_op" && m.Name != "setup_s" {
			out[m.Name] = rep.Metrics[m.Name]
		}
	}
	return out
}

// TestDeterminism: repetitions within a run must agree bit for bit (Run
// fails the run otherwise), so must two same-seed runs, and some other
// seed must change at least one simulated figure.
func TestDeterminism(t *testing.T) {
	for _, name := range Workloads() {
		a := simulated(smokeReport(t, name, 1, false))
		b := simulated(smokeRun(t, name, 1, 1, false))
		if d := simDiff(a, b); d != "" {
			t.Errorf("%s: same seed, different simulated metrics: %s", name, d)
		}
		changed := false
		for seed := uint64(2); seed <= 10 && !changed; seed++ {
			changed = simDiff(a, simulated(smokeRun(t, name, seed, 1, false))) != ""
		}
		if !changed {
			t.Errorf("%s: seeds 2..10 all reproduce seed 1's simulated metrics", name)
		}
	}
}

// TestSteadyState: the kv workloads serve a fixed, prefilled key space,
// so throughput and table load do not drift with run length.
func TestSteadyState(t *testing.T) {
	for _, name := range []string{"ipc-rpc", "kv-batch"} {
		w := lookup(name)
		short := int(float64(w.length) * smoke[name])
		var got [2]*outcome
		for i, length := range []int{short, 4 * short} {
			o, _, err := runRep(w, 1, length, nil)
			if err != nil || o.failed != 0 {
				t.Fatalf("%s length %d: %v, %d failed", name, length, err, o.failed)
			}
			got[i] = o
		}
		for _, m := range []string{"throughput_mops", "apps.kv_load_factor"} {
			x, y := got[0].sim[m], got[1].sim[m]
			if math.Abs(y-x) > 0.01*x {
				t.Errorf("%s %s: %v at 1x length, %v at 4x", name, m, x, y)
			}
		}
	}
}

// TestTracedConsistency runs every workload's traced repetition. Run
// fails it unless its simulated figures equal the untraced ones, every
// outside-measured syscall cycle sum equals the registry's, the ledger
// audits clean and the exported event window dropped nothing. The
// ipc-rpc size overflows half the tracer ring, so its window closes
// mid-run.
func TestTracedConsistency(t *testing.T) {
	for _, name := range Workloads() {
		rep := smokeReport(t, name, 1, true)
		if name == "ipc-rpc" && rep.Metrics["trace.direct_switches_per_op"] != 2 {
			t.Errorf("ipc-rpc: %v direct switches per request, want 2", rep.Metrics["trace.direct_switches_per_op"])
		}
	}
}

// TestLayerSeparation: each workload loads the layer it exists for and
// leaves the others alone, as read from its per-layer metrics.
func TestLayerSeparation(t *testing.T) {
	layer := func(name string) map[string]float64 { return smokeReport(t, name, 1, true).Metrics }
	want := func(name, metric string, ok func(float64) bool, rule string) {
		t.Helper()
		if v := layer(name)[metric]; !ok(v) {
			t.Errorf("%s: %s = %v, want %s", name, metric, v, rule)
		}
	}
	want("shared-alloc", "lock.wait_share", func(v float64) bool { return v >= 0.3 }, ">= 0.3")
	for _, name := range []string{"ipc-rpc", "kv-batch"} {
		want(name, "lock.wait_share", func(v float64) bool { return v <= 0.01 }, "<= 0.01")
		want(name, "apps.kv_hit_ratio", func(v float64) bool { return v == 1 }, "1")
		want(name, "apps.kv_load_factor", func(v float64) bool { return v == 0.25 }, "0.25")
	}
	want("ipc-rpc", "kernel.crossings_per_op", func(v float64) bool { return v == 2 }, "2")
	want("kv-batch", "kernel.crossings_per_op", func(v float64) bool { return v < 0.01 }, "< 0.01")

	m := layer("checked")
	var all, oracle float64
	for k, v := range m {
		if strings.HasPrefix(k, "host.cpu_share.") {
			all += v
		}
	}
	for _, pkg := range []string{"spec", "verify", "mck", "runtime"} {
		oracle += m["host.cpu_share."+pkg]
	}
	if math.Abs(all-1) > 1e-9 || oracle <= 0.5 {
		t.Errorf("checked: cpu shares sum to %v, spec+verify+mck+runtime %v; want 1 and > 0.5", all, oracle)
	}
}

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

// TestBenchmarkContract holds BENCHMARK.json, the metric catalog and
// what a smoke-sized run emits in step.
func TestBenchmarkContract(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	var got []string
	for k := range keys {
		got = append(got, k)
	}
	sort.Strings(got)
	want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("BENCHMARK.json keys %v, want %v", got, want)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var b benchmarkFile
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) > 8 || len(b.EndToEnd) > 16 || len(b.PerLayer) > 128 {
		t.Errorf("%d workloads, %d e2e, %d per-layer metrics: over the limits",
			len(b.Workloads), len(b.EndToEnd), len(b.PerLayer))
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("bad or repeated name %q", name)
		}
		seen[name] = true
	}

	var names []string
	for _, w := range b.Workloads {
		check(w.Name)
		names = append(names, w.Name)
		if code := lookup(w.Name); code == nil || w.Why != code.why || len(w.Why) > 200 {
			t.Errorf("workload %s: why %q does not match the code's", w.Name, w.Why)
		}
	}
	if !reflect.DeepEqual(names, Workloads()) {
		t.Errorf("workloads %v, code has %v", names, Workloads())
	}
	var maxBound float64
	for i, m := range b.EndToEnd {
		check(m.Name)
		if i >= len(EndToEnd) || EndToEnd[i] != (Metric{m.Name, m.Unit}) {
			t.Errorf("e2e metric %d: %s %s does not match the catalog", i, m.Name, m.Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "higher" && m.Better != "lower") {
			t.Errorf("e2e metric %s: bound %v better %q", m.Name, m.Bound, m.Better)
		}
		maxBound = math.Max(maxBound, m.Bound)
	}
	for i, m := range b.PerLayer {
		check(m.Name)
		if i >= len(PerLayer) || PerLayer[i] != (Metric{m.Name, m.Unit}) {
			t.Errorf("per-layer metric %d: %s %s does not match the catalog", i, m.Name, m.Unit)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("per-layer metric %s: better %q", m.Name, m.Better)
		}
	}
	if len(b.EndToEnd) != len(EndToEnd) || len(b.PerLayer) != len(PerLayer) {
		t.Errorf("BENCHMARK.json declares %d+%d metrics, the catalog %d+%d",
			len(b.EndToEnd), len(b.PerLayer), len(EndToEnd), len(PerLayer))
	}
	setup := false
	for _, m := range b.EndToEnd {
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower" && m.Bound == maxBound
		}
	}
	if !setup {
		t.Error("setup_s must be declared in s, lower is better, with the largest bound")
	}

	for _, name := range Workloads() {
		for _, trace := range []bool{false, true} {
			rep := smokeReport(t, name, 1, trace)
			catalog := EndToEnd
			if trace {
				catalog = PerLayer
			}
			if p := undeclared(catalog, rep.Metrics); len(p) > 0 {
				t.Errorf("%s trace %v: %v", name, trace, p)
			}
			if !trace {
				for k, v := range rep.Metrics {
					if k != "setup_s" && !(v > 0) {
						t.Errorf("%s: end-to-end metric %s is %v", name, k, v)
					}
				}
			}
		}
	}
}

func TestCPUPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"atmosphere/internal/kernel.(*Kernel).SysCall":               "kernel",
		"atmosphere/internal/obs/contend.(*Observatory).LockAcquire": "obs",
		"atmosphere/internal/spec.(*Interp).Diff.func1":              "spec",
		"runtime.mallocgc": "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":     "runtime",
		"__tsan::MemoryAccessRangeT":                       "runtime",
		"racecalladdr":                                     "runtime",
		"hash/fnv.(*sum64a).Write":                         "other",
		"atmosphere/perf.setupIPCRPC.func1":                "other",
		"atmosphere/internal/faults.(*Injector).ShouldFor": "other",
		"atmosphere/internal/netproto.ParseUDP":            "netproto",
		"atmosphere/internal/cluster.(*Cluster).Step":      "cluster",
	} {
		if got := cpuPackage(fn); got != want {
			t.Errorf("cpuPackage(%q) = %q, want %q", fn, got, want)
		}
	}
}
