package bench

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"testing"

	"atmosphere/internal/cluster"
	"atmosphere/internal/faults"
	"atmosphere/internal/hw"
	"atmosphere/internal/kernel"
	"atmosphere/internal/obs"
	"atmosphere/internal/obs/account"
	"atmosphere/internal/obs/contend"
	"atmosphere/internal/obs/dist"
	"atmosphere/internal/obs/profile"
	"atmosphere/internal/pt"
)

// probes is one run's observer set. The zero value attaches nothing;
// on() builds the full set a row's probe-on run attaches.
type probes struct {
	Sinks
	report []byte // contention report, or the cluster's merged export
}

func on() *probes {
	return &probes{Sinks: Sinks{Tracer: obs.NewTracer(1 << 16), Metrics: obs.NewRegistry(),
		Ledger: account.NewLedger(), Contend: contend.New()}}
}

func fnvOf(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// probeTable3 runs the Table 3 call/reply and map-a-page kernels.
func probeTable3(t *testing.T, p *probes) []uint64 {
	ipc, err := atmoCallReplyCycles(p.Attach)
	if err != nil {
		t.Fatal(err)
	}
	mp, err := atmoMapPageCycles(p.Attach)
	if err != nil {
		t.Fatal(err)
	}
	if p.Ledger != nil {
		if p.Tracer.Len() == 0 {
			t.Error("tracer attached but recorded no events — the guard proved nothing")
		}
		// The profiler folds the span stream the tracer saw, and the
		// ledger's closure audit passes on the kernel it was bound to.
		if profile.Fold(p.Tracer).TotalCycles() == 0 {
			t.Error("profiler folded zero cycles from the benchmark trace")
		}
		if err := p.Ledger.Audit(); err != nil {
			t.Errorf("ledger audit on benchmark kernel: %v", err)
		}
		if p.Ledger.LivePages() == 0 {
			t.Error("ledger attached but tracked no pages — the guard proved nothing")
		}
	}
	// Both means are whole cycles; any fraction would show as a drift.
	return []uint64{uint64(ipc * 1000), uint64(mp * 1000)}
}

// probeMulticore runs the multicore series grid: one wall per point,
// then the total operation count. The observatory accumulates across
// the grid, so its fixed order is part of the report.
func probeMulticore(t *testing.T, p *probes) []uint64 {
	var walls []uint64
	var ops uint64
	for _, wl := range mcWorkloads {
		events := uint64(p.Tracer.Len()) + p.Tracer.Dropped()
		for _, n := range mcCores {
			o, wall, _, err := RunMulticore(wl, n, mcSeed, 0, p.Attach)
			if err != nil {
				t.Fatalf("%s %dc: %v", wl, n, err)
			}
			walls = append(walls, wall)
			ops += o
		}
		if p.Tracer != nil && uint64(p.Tracer.Len())+p.Tracer.Dropped() == events {
			t.Errorf("%s: tracer attached but recorded nothing", wl)
		}
	}
	if p.Contend != nil {
		var waits uint64
		for _, s := range p.Contend.Summary() {
			waits += s.WaitCycles
		}
		if waits == 0 {
			t.Error("observatory attached but recorded no wait cycles — the guard proved nothing")
		}
		if p.Contend.RunqDelays().Count() == 0 {
			t.Error("observatory attached but saw no run-queue delays")
		}
	}
	return append(walls, ops)
}

// probeCluster runs one cluster scenario (DefaultConfig, 2000 ticks).
// The probes are the cluster tracer, the client latency histograms and
// distributed tracing, whose 16 header bytes per frame deliberately
// change the frame hash (untraced, it must be hash) and fill the Dist*
// tallies; every other report field must match, so the figures end
// with the hash of the report with those fields normalized away.
func probeCluster(plan faults.Plan, hash uint64) func(*testing.T, *probes) []uint64 {
	return func(t *testing.T, p *probes) []uint64 {
		cfg := cluster.DefaultConfig()
		cfg.Plan = plan
		cfg.DistTracing = p.Tracer != nil
		r, col, err := runCluster(cfg, p.Sinks)
		if err != nil {
			t.Fatal(err)
		}
		if (r.TraceHash == hash) == cfg.DistTracing {
			t.Errorf("trace hash %#x with dist tracing %v, untraced baseline %#x", r.TraceHash, cfg.DistTracing, hash)
		}
		if cfg.DistTracing {
			if r.DistCompleted == 0 || r.DistTraceEvents == 0 {
				t.Errorf("traced run recorded nothing (completed=%d events=%d) — the guard proved nothing",
					r.DistCompleted, r.DistTraceEvents)
			}
			if r.DistCompleted+r.DistStale != r.Responses {
				t.Errorf("trace joins don't reconcile: completed %d + stale %d != responses %d",
					r.DistCompleted, r.DistStale, r.Responses)
			}
			if r.DistIrregular != 0 || r.DistHeaderRejects != 0 {
				t.Errorf("irregular=%d rejects=%d, want 0/0", r.DistIrregular, r.DistHeaderRejects)
			}
			var b bytes.Buffer
			if err := dist.WriteMerged(&b, col); err != nil {
				t.Fatal(err)
			}
			p.report = b.Bytes()
		}
		norm := r
		norm.TraceHash = 0
		norm.DistCompleted, norm.DistAbandoned, norm.DistOrphaned = 0, 0, 0
		norm.DistStale, norm.DistHeaderRejects, norm.DistIrregular = 0, 0, 0
		norm.DistTraceEvents, norm.DistTraceDropped = 0, 0
		return []uint64{r.KernelCycles, r.Responses, r.P50, r.P99, r.P999, r.ReconvergeKillCycles,
			fnvOf([]byte(fmt.Sprintf("%+v", norm)))}
	}
}

// probeRows are TestProbesAreFree's workloads: base is the prefix of
// the figures an unprobed run must reproduce, and trace, metrics and
// report pin the streams the full probe set records.
var probeRows = []struct {
	name                   string
	run                    func(*testing.T, *probes) []uint64
	base                   []uint64
	trace, metrics, report uint64
}{
	{name: "table3", run: probeTable3,
		base:  []uint64{1060 * 1000, 1980 * 1000},
		trace: 0xb09fc0e8c9be786e, metrics: 0xff3e52b54f17131c, report: 0x067a3f392c0520de},
	{name: "multicore", run: probeMulticore,
		base: []uint64{
			424000, 424000, 424000, 424000, 424000, 424000, 424000, // ipc
			274112, 274112, 274558, 274558, 276718, 278788, 278788, // kvstore
			584794, 613144, 699652, 874158, 1369330, 2735514, 5467882, // alloc
		},
		trace: 0x58f940dc72fb587e, metrics: 0xe3573a8ea4ef5eed, report: 0x72fccadb33b33035},
	{name: "cluster-steady", run: probeCluster(faults.Plan{}, 0x540cd10528418b6b),
		base:  []uint64{14194486, 15968, 80000, 80000, 80000, 0},
		trace: 0xa8c7f832281a39c5, metrics: 0xcfd2f1a3ad209143, report: 0xcf1d11b6b525075d},
	{name: "cluster-chaos", run: probeCluster(clusterChaosPlan(), 0x766d9033f95ed8df),
		base:  []uint64{13997628, 15968, 80000, 80000, 600000, 180000},
		trace: 0xf5ee121abe1930e6, metrics: 0x20be04cf8bc47df7, report: 0x2255c6f4728abce7},
}

// TestProbesAreFree pins that observing the kernel is free. Each row
// runs a workload with nothing attached, which must reproduce the
// row's baseline — the figures date to builds before each probe
// landed, so a mismatch means the run itself drifted. The row then runs
// again with every probe it supports attached: no figure may move, the
// probes must have recorded something, and what they recorded must
// hash to the pinned values — the tracer's Hash(), the metrics dump,
// and the contention report (the merged distributed export for the
// cluster rows, which no observatory reaches).
func TestProbesAreFree(t *testing.T) {
	for _, row := range probeRows {
		t.Run(row.name, func(t *testing.T) {
			off := row.run(t, &probes{})
			for i, want := range row.base {
				if off[i] != want {
					t.Errorf("unprobed figure %d = %d, baseline %d — the run itself drifted", i, off[i], want)
				}
			}
			p := on()
			probed := row.run(t, p)
			for i := range off {
				if probed[i] != off[i] {
					t.Errorf("probes moved figure %d: %d -> %d", i, off[i], probed[i])
				}
			}
			var dump bytes.Buffer
			if err := p.Metrics.WriteText(&dump); err != nil {
				t.Fatal(err)
			}
			if p.report == nil {
				var b bytes.Buffer
				if err := p.Contend.WriteReport(&b); err != nil {
					t.Fatal(err)
				}
				p.report = b.Bytes()
			}
			got := [3]uint64{p.Tracer.Hash(), fnvOf(dump.Bytes()), fnvOf(p.report)}
			if want := [3]uint64{row.trace, row.metrics, row.report}; got != want {
				t.Errorf("probe streams (trace, metrics, report) hash %#x, pinned %#x", got, want)
			}
		})
	}
}

// probeAlone runs the named probeRows row with only p attached: each
// probe on its own must leave the row on its unprobed baseline, as the
// full set does in TestProbesAreFree. The row's own guards check that p
// recorded something.
func probeAlone(t *testing.T, name string, p *probes) {
	for _, row := range probeRows {
		if row.name != name {
			continue
		}
		got := row.run(t, p)
		for i, want := range row.base {
			if got[i] != want {
				t.Errorf("%s alone: figure %d = %d, baseline %d", name, i, got[i], want)
			}
		}
		return
	}
	t.Fatalf("no probe row %q", name)
}

// The tracer and metrics registry alone leave every multicore series
// point on its wall-clock baseline.
func TestTracingIsFreeMulticore(t *testing.T) {
	probeAlone(t, "multicore", &probes{Sinks: Sinks{Tracer: obs.NewTracer(1 << 16), Metrics: obs.NewRegistry()}})
}

// The contention observatory alone leaves every multicore series point
// on its wall-clock baseline.
func TestContentionObsIsFree(t *testing.T) {
	probeAlone(t, "multicore", &probes{Sinks: Sinks{Contend: contend.New()}})
}

// Distributed tracing alone charges both cluster scenarios the
// baseline cycles and SLOs.
func TestTracingIsFreeCluster(t *testing.T) {
	for _, name := range []string{"steady", "chaos"} {
		t.Run(name, func(t *testing.T) {
			probeAlone(t, "cluster-"+name, &probes{Sinks: Sinks{Tracer: obs.NewTracer(1 << 16)}})
		})
	}
}

// The contention observatory never wires into the cluster loop: in the
// sinks a cluster run is given, it records nothing while both cluster
// scenarios reproduce their untraced baselines and trace hashes.
func TestContentionObsIsFreeCluster(t *testing.T) {
	cobs := contend.New()
	probeAlone(t, "cluster-steady", &probes{Sinks: Sinks{Contend: cobs}})
	probeAlone(t, "cluster-chaos", &probes{Sinks: Sinks{Contend: cobs}})
	if n := len(cobs.Summary()); n != 0 {
		t.Errorf("observatory recorded %d locks from the cluster loop", n)
	}
}

// Attach order is not part of the probe contract: all six orders of the
// three Attach calls must export the same trace, metrics dump and
// contention report for a Table 3 call/reply plus mmap run.
func TestProbeAttachOrderIrrelevant(t *testing.T) {
	attach := [3]func(*kernel.Kernel, *probes){
		func(k *kernel.Kernel, p *probes) { k.AttachObs(p.Tracer, p.Metrics) },
		func(k *kernel.Kernel, p *probes) { k.AttachLedger(p.Ledger) },
		func(k *kernel.Kernel, p *probes) { k.AttachContention(p.Contend) },
	}
	var first string
	for _, order := range [][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
		p := on()
		k, client, _, err := RunCallReply(0, 50, func(k *kernel.Kernel) {
			for _, i := range order {
				attach[i](k, p)
			}
			k.EnableContention()
		})
		if err != nil {
			t.Fatal(err)
		}
		if r := k.SysMmap(0, client, 0x40000000, 4, hw.Size4K, pt.RW); r.Errno != kernel.OK {
			t.Fatalf("mmap: %v", r.Errno)
		}
		var b bytes.Buffer
		for _, err := range []error{obs.WriteTrace(&b, p.Tracer), p.Metrics.WriteText(&b), p.Contend.WriteReport(&b)} {
			if err != nil {
				t.Fatal(err)
			}
		}
		if first == "" {
			first = b.String()
		} else if b.String() != first {
			t.Errorf("attach order %v exports differently from %v", order, [3]int{0, 1, 2})
		}
	}
}
