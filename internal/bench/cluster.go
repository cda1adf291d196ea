package bench

import (
	"fmt"

	"atmosphere/internal/cluster"
	"atmosphere/internal/faults"
	"atmosphere/internal/hw"
	"atmosphere/internal/obs/dist"
)

// The cluster chaos series (`-series cluster`): the multi-machine
// serving tier of internal/cluster run twice — once fault-free for the
// steady-state envelope, once with a backend machine killed mid-run —
// reporting latency quantiles, throughput, and the reconvergence SLOs
// (how long the Maglev tier takes to evict the dead backend and to
// reinstate it after its respawn). Deterministic: DefaultConfig's seed
// pins both runs' trace hashes, which the chaos note surfaces so a
// reference diff catches any replay divergence.

// clusterKillTick is when the chaos phase kills backend 1 (machine
// node 3): deep enough into the run that the tier is in steady state,
// early enough that kill, respawn (+300 ticks), and reinstatement all
// complete well before the run ends.
const clusterKillTick = 800

func clusterChaosPlan() faults.Plan {
	return faults.Plan{Rules: []faults.Rule{{
		Kind:   faults.MachineKill,
		Period: clusterKillTick * cluster.TickCycles,
		Until:  (clusterKillTick + 1) * cluster.TickCycles,
		Target: 3, // backend 1
	}}}
}

// ClusterChaos runs the steady and chaos phases and tabulates both.
func ClusterChaos() (Result, error) {
	res := Result{
		ID:    "cluster",
		Title: "Cluster serving tier: Maglev failover under machine kill (simulated)",
	}
	steady, _, err := runCluster("cluster.steady", faults.Plan{}, false)
	if err != nil {
		return Result{}, err
	}
	// The chaos phase runs with distributed tracing on: tracing is
	// cycle-free (TestProbesAreFree), so every gated row below
	// is untouched, and the ungated notes gain the tail-latency
	// attribution and per-machine tracer pressure.
	chaos, col, err := runCluster("cluster.chaos", clusterChaosPlan(), true)
	if err != nil {
		return Result{}, err
	}
	if chaos.Kills != 1 || chaos.Respawns != 1 {
		return Result{}, fmt.Errorf("bench: cluster chaos run had %d kills, %d respawns (want 1/1)",
			chaos.Kills, chaos.Respawns)
	}

	cfg := cluster.DefaultConfig()
	kreq := func(r cluster.Report) float64 {
		wall := float64(r.Ticks) * cluster.TickCycles
		return float64(r.Responses) * hw.ClockHz / wall / 1e3
	}
	res.Rows = append(res.Rows,
		Row{Name: "steady p50", Value: float64(steady.P50), Unit: "cycles"},
		Row{Name: "steady p99", Value: float64(steady.P99), Unit: "cycles"},
		Row{Name: "steady p999", Value: float64(steady.P999), Unit: "cycles"},
		Row{Name: "steady throughput", Value: kreq(steady), Unit: "Kreq/s"},
		Row{Name: "chaos p999", Value: float64(chaos.P999), Unit: "cycles"},
		Row{Name: "chaos reconverge kill", Value: float64(chaos.ReconvergeKillCycles), Unit: "cycles"},
		Row{Name: "chaos reconverge return", Value: float64(chaos.ReconvergeReturnCycles), Unit: "cycles"},
		Row{Name: "chaos requests lost", Value: float64(chaos.GaveUp), Unit: "reqs"},
		Row{Name: "chaos requests misrouted", Value: float64(chaos.Misrouted), Unit: "reqs"},
		Row{Name: "chaos throughput", Value: kreq(chaos), Unit: "Kreq/s"},
	)
	res.Notes = append(res.Notes,
		fmt.Sprintf("%d backends, %d flows, %d arrivals/tick, %d ticks of %d cycles, seed %d",
			cfg.Backends, cfg.Flows, cfg.Rate, cfg.Ticks, cluster.TickCycles, cfg.Seed),
		fmt.Sprintf("chaos kills backend 1 at tick %d; respawn after %d ticks; probes every %d ticks evict after %d misses",
			clusterKillTick, cfg.RespawnDelayTicks, cfg.ProbeEvery, cfg.DeadAfter),
		fmt.Sprintf("in flight at kill %d, lost %d (<5%% SLO); trace hashes steady %#x chaos %#x",
			chaos.InFlightAtKill, chaos.GaveUp, steady.TraceHash, chaos.TraceHash),
	)
	attr := col.Attribution(1)
	comp := func(c dist.Components) string {
		return fmt.Sprintf("queue %d + link %d + lb %d + backend %d + backoff %d",
			c.ClientQueue, c.Link, c.LB, c.Backend, c.Backoff)
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("chaos traces: %d completed, %d abandoned, %d stale; attribution share %s of %d total cycles",
			attr.Completed, attr.Abandoned, attr.Stale, comp(attr.Comp), attr.TotalLatency))
	for _, row := range attr.Rows {
		res.Notes = append(res.Notes,
			fmt.Sprintf("chaos %s trace: %d cycles = %s", row.Label, row.Rec.Latency, comp(row.Rec.Comp)))
	}
	res.Notes = append(res.Notes, col.PressureNotes()...)
	return res, nil
}

func runCluster(name string, plan faults.Plan, traced bool) (cluster.Report, *dist.Collector, error) {
	cfg := cluster.DefaultConfig()
	cfg.Name = name
	cfg.Plan = plan
	cfg.Tracer = benchTracer
	cfg.Metrics = benchMetrics
	cfg.DistTracing = traced
	c, err := cluster.New(cfg)
	if err != nil {
		return cluster.Report{}, nil, fmt.Errorf("bench: cluster: %w", err)
	}
	return c.Run(), c.Dist(), nil
}
