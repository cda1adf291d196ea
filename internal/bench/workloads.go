package bench

import (
	"fmt"

	"atmosphere/internal/cluster"
	"atmosphere/internal/drivers"
	"atmosphere/internal/faults"
	"atmosphere/internal/obs/dist"
)

// Workload is one entry of the workload table that cmd/atmo-trace and
// cmd/atmo-top dispatch through: a named run on the simulated machine
// with the caller's sinks attached to every kernel it boots. A new
// workload is one entry here; each CLI still decides which names it
// accepts.
type Workload struct {
	Name string
	// Cluster marks the multi-machine workload: only the tracer and the
	// registry reach its kernels, and it alone supports distributed
	// tracing (WorkloadOpts.DistTracing).
	Cluster bool
	Run     func(Sinks, WorkloadOpts) (Outcome, error)
}

// WorkloadOpts sizes a workload run.
type WorkloadOpts struct {
	Seed uint64
	// Ops is kv operations or ipc round trips; per core for multicore
	// and kvstore-batch, where <= 0 selects the series defaults.
	Ops   int
	Cores int // multicore and kvstore-batch
	// Sub picks the multicore sub-workloads (ipc, kvstore, alloc);
	// nil runs all three in turn.
	Sub         []string
	DistTracing bool // cluster: trace every request across machines
}

// Outcome is what a workload run leaves for the CLIs to report.
type Outcome struct {
	Cycles  uint64          // simulated cycles charged, summed over cores and kernels
	Summary string          // a one-line run summary, when the workload has one
	Dist    *dist.Collector // cluster: the distributed-trace collector
}

// Workloads returns the workload table.
func Workloads() []Workload {
	return []Workload{
		{Name: "kvstore", Run: chaosWorkload(faults.Plan{})},
		{Name: "kvstore-batch", Run: kvBatchWorkload},
		{Name: "chaos", Run: chaosWorkload(drivers.DefaultChaosPlan())},
		{Name: "ipc", Run: ipcWorkload},
		{Name: "multicore", Run: multicoreWorkload},
		{Name: "cluster", Cluster: true, Run: clusterWorkload},
	}
}

// WorkloadByName finds a workload in the table.
func WorkloadByName(name string) (Workload, bool) {
	for _, w := range Workloads() {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// chaosWorkload is the chaos harness's kvstore-with-WAL run under plan
// (fault-free when plan is empty).
func chaosWorkload(plan faults.Plan) func(Sinks, WorkloadOpts) (Outcome, error) {
	return func(s Sinks, o WorkloadOpts) (Outcome, error) {
		report, err := drivers.RunChaosKV(drivers.ChaosConfig{
			Seed: o.Seed, Ops: o.Ops, Plan: plan, Attach: s.Attach,
		})
		if report == nil {
			return Outcome{}, err
		}
		return Outcome{Cycles: report.TotalCycles}, err
	}
}

// kvBatchWorkload is the batched kv-rpc run: per-core client/server
// pairs moving request pages by grant through submission-ring
// doorbells.
func kvBatchWorkload(s Sinks, o WorkloadOpts) (Outcome, error) {
	_, _, total, err := RunKVRPC(true, o.Cores, o.Seed, o.Ops, s.Attach)
	if err != nil {
		return Outcome{}, fmt.Errorf("kvstore-batch: %w", err)
	}
	return Outcome{Cycles: total}, nil
}

// ipcWorkload is the Table 3 call/reply ping-pong, o.Ops round trips.
func ipcWorkload(s Sinks, o WorkloadOpts) (Outcome, error) {
	k, _, _, err := RunCallReply(0, o.Ops, s.Attach)
	if err != nil {
		return Outcome{}, err
	}
	return Outcome{Cycles: k.Machine.TotalCycles()}, nil
}

// multicoreWorkload runs the multicore series' sub-workloads back to
// back on a cores-wide machine, one kernel each.
func multicoreWorkload(s Sinks, o WorkloadOpts) (Outcome, error) {
	subs := o.Sub
	if subs == nil {
		subs = mcWorkloads
	}
	var out Outcome
	for _, wl := range subs {
		_, _, total, err := RunMulticore(wl, o.Cores, o.Seed, o.Ops, s.Attach)
		if err != nil {
			return out, err
		}
		out.Cycles += total
	}
	return out, nil
}

// clusterWorkload is the cluster series' kill-one-backend scenario at
// o.Seed: the fault injector's instants and the cluster's
// kill/respawn/evict/reinstate events land on one timeline.
func clusterWorkload(s Sinks, o WorkloadOpts) (Outcome, error) {
	cfg := cluster.DefaultConfig()
	cfg.Seed = o.Seed
	cfg.Plan = clusterChaosPlan()
	cfg.DistTracing = o.DistTracing
	r, col, err := runCluster(cfg, s)
	if err != nil {
		return Outcome{}, err
	}
	return Outcome{
		Cycles: r.KernelCycles,
		Summary: fmt.Sprintf("cluster: %d responses, %d lost, reconverge kill %d cycles, trace hash %016x",
			r.Responses, r.GaveUp, r.ReconvergeKillCycles, r.TraceHash),
		Dist: col,
	}, nil
}
