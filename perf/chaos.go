package perf

import (
	"bytes"
	"fmt"

	"atmosphere/internal/cluster"
	"atmosphere/internal/faults"
	"atmosphere/internal/hw"
	"atmosphere/internal/obs"
)

var clusterChaos = &workload{
	name: "cluster-chaos",
	why: "the open-loop cluster under backend kills and link faults: links, retries and health checks set its " +
		"latency, so kernel changes should move only its cycles_per_op",
	length: 50_000, // ticks
	setup:  setupClusterChaos,
}

const (
	// chaosKillEvery is the kill period in ticks; each kill lands up to
	// chaosKillJitter ticks late, so kills sample every phase of the
	// probe schedule. A run shorter than two periods kills at half its
	// length.
	chaosKillEvery  = 5_000
	chaosKillJitter = 97
	// chaosSettle is how long before the end the last kill must land:
	// respawn (300 ticks) plus reinstatement must finish inside the run.
	chaosSettle = 500
	// Low-rate link faults, per link per tick, that give the latency
	// distribution a tail: a delayed frame adds two ticks, a corrupted
	// one is dropped by its receiver and the client retries.
	chaosDelayRate   = 0.008
	chaosDelayTicks  = 2
	chaosCorruptRate = 0.0005
	// chaosLatencyTicks bounds the latency histogram: one bucket per
	// tick, so its quantiles are exact rather than bucket bounds.
	chaosLatencyTicks = 1024
)

// chaosKill is one planned backend kill and what the benchmark saw of
// it from outside: the tick the machine died, the tick Maglev evicted
// it, the tick it came back and the tick Maglev reinstated it.
type chaosKill struct {
	tick                                 uint64
	backend                              int
	died, evicted, respawned, reinstated uint64
}

func chaosPlan(seed uint64, ticks int) ([]*chaosKill, faults.Plan) {
	every := chaosKillEvery
	if ticks < 2*every {
		every = ticks / 2
	}
	plan := faults.Plan{Rules: []faults.Rule{
		{Kind: faults.LinkDelay, Rate: chaosDelayRate, Param: chaosDelayTicks * cluster.TickCycles},
		{Kind: faults.LinkCorrupt, Rate: chaosCorruptRate},
	}}
	var kills []*chaosKill
	for i := 1; ; i++ {
		tick := uint64(i*every) + mix64(seed^uint64(i))%chaosKillJitter
		if every == 0 || tick+chaosSettle >= uint64(ticks) {
			break
		}
		b := (i - 1) % cluster.DefaultConfig().Backends
		kills = append(kills, &chaosKill{tick: tick, backend: b})
		// A one-shot rule: its single period point is the kill tick and
		// its window closes right after. Node ids of backends start at 2.
		plan.Rules = append(plan.Rules, faults.Rule{
			Kind: faults.MachineKill, Period: tick * cluster.TickCycles,
			Until: (tick + 1) * cluster.TickCycles, Target: uint64(2 + b),
		})
	}
	return kills, plan
}

// setupClusterChaos builds cluster.DefaultConfig's tier for ticks ticks
// with the kill plan and link faults; the phase steps it tick by tick
// and watches every failover from outside.
func setupClusterChaos(seed uint64, ticks int, tr *tracing) (phase, error) {
	kills, plan := chaosPlan(seed, ticks)
	cfg := cluster.DefaultConfig()
	cfg.Ticks = uint64(ticks)
	cfg.Seed = seed
	cfg.Plan = plan
	cfg.Metrics = obs.NewRegistry()
	if tr != nil {
		cfg.Metrics = tr.reg
		cfg.Tracer = tr.tracer
		cfg.DistTracing = true
	}
	// The client observes request latency into "<name>.latency" of the
	// registry it is given; registering it first with one bucket per
	// tick makes its quantiles exact.
	bounds := make([]uint64, chaosLatencyTicks)
	for i := range bounds {
		bounds[i] = uint64(i+1) * cluster.TickCycles
	}
	lat := cfg.Metrics.Histogram("cluster.latency", bounds)
	c, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	backends := cfg.Backends
	return func() (*outcome, error) {
		o := newOutcome()
		next := 0 // first kill not yet reinstated
		for tick := uint64(1); tick <= cfg.Ticks; tick++ {
			c.Step()
			if next == len(kills) {
				continue
			}
			k := kills[next]
			alive := c.Machine(1 + k.backend).Alive()
			switch {
			case k.died == 0:
				if !alive {
					k.died = tick
				}
			case k.evicted == 0:
				if c.Maglev().TableCounts()[k.backend] == 0 {
					k.evicted = tick
				}
			case k.respawned == 0:
				if alive {
					k.respawned = tick
				}
			default:
				if c.Maglev().TableCounts()[k.backend] > 0 {
					k.reinstated = tick
					next++
				}
			}
		}
		rep := c.Report()
		if next != len(kills) || rep.Kills != uint64(len(kills)) || rep.Respawns != rep.Kills {
			return nil, fmt.Errorf("%d of %d kills reconverged (report: %d kills, %d respawns)",
				next, len(kills), rep.Kills, rep.Respawns)
		}
		if c.Maglev().ActiveBackends() != backends {
			return nil, fmt.Errorf("%d of %d backends active at the end", c.Maglev().ActiveBackends(), backends)
		}
		o.ops = rep.Sent + rep.Shed
		o.failed = rep.GaveUp + rep.Shed
		lbCycles := c.Machine(0).TotalCycles()
		var backendCycles uint64
		for i := 1; i <= backends; i++ {
			backendCycles += c.Machine(i).TotalCycles()
		}
		resp := float64(rep.Responses)
		sent := float64(rep.Sent)
		wall := float64(rep.Ticks) * cluster.TickCycles
		o.sim["throughput_mops"] = resp * hw.ClockHz / wall / 1e6
		o.sim["cycles_per_op"] = ratio(float64(lbCycles+backendCycles), resp)
		o.sim["latency_p50_cycles"] = float64(lat.Quantile(0.50))
		o.sim["latency_p99_cycles"] = float64(lat.Quantile(0.99))
		o.sim["latency_p999_cycles"] = float64(lat.Quantile(0.999))
		o.sim["latency_samples"] = float64(lat.Count())
		var failover, reinstate []uint64
		for _, k := range kills {
			failover = append(failover, (k.evicted-k.died)*cluster.TickCycles)
			reinstate = append(reinstate, (k.reinstated-k.respawned)*cluster.TickCycles)
		}
		o.sim["cluster.failover_cycles"] = float64(sortedQuantile(failover, 0.5))
		o.sim["cluster.reinstate_cycles"] = float64(sortedQuantile(reinstate, 0.5))
		o.sim["cluster.retries_per_kreq"] = ratio(1000*float64(rep.Retries), sent)
		o.sim["cluster.timeouts_per_kreq"] = ratio(1000*float64(rep.Timeouts), sent)
		o.sim["cluster.misrouted_per_kreq"] = ratio(1000*float64(rep.Misrouted), sent)
		dropped := rep.DroppedNoBackend + rep.DroppedDead + rep.DroppedMalformed + rep.DroppedLink
		o.sim["cluster.dropped_per_kreq"] = ratio(1000*float64(dropped), sent)
		o.sim["cluster.shed_ratio"] = ratio(float64(rep.Shed), float64(rep.Sent+rep.Shed))
		o.sim["cluster.lb_cycles_per_req"] = ratio(float64(lbCycles), resp)
		o.sim["cluster.backend_cycles_per_req"] = ratio(float64(backendCycles), resp)
		if tr != nil {
			if err := chaosTrace(o, c, rep, tr); err != nil {
				return nil, err
			}
		}
		return o, nil
	}, nil
}

// chaosTrace reads the distributed-trace critical paths: every
// completed request's latency splits exactly into client-queue, link,
// lb, backend and backoff cycles.
func chaosTrace(o *outcome, c *cluster.Cluster, rep cluster.Report, tr *tracing) error {
	if rep.DistIrregular != 0 {
		return fmt.Errorf("%d completed traces with an irregular hop log", rep.DistIrregular)
	}
	if d := tr.tracer.Dropped(); d != 0 {
		return fmt.Errorf("exported tracer window dropped %d events", d)
	}
	completed := c.Dist().Completed()
	exact := make([]uint64, len(completed))
	var total, queue, link, lb, backend, backoff uint64
	for i, rec := range completed {
		exact[i] = rec.Latency
		total += rec.Latency
		queue += rec.Comp.ClientQueue
		link += rec.Comp.Link
		lb += rec.Comp.LB
		backend += rec.Comp.Backend
		backoff += rec.Comp.Backoff
	}
	t := float64(total)
	o.trace["trace.cluster.queue_share"] = ratio(float64(queue), t)
	o.trace["trace.cluster.link_share"] = ratio(float64(link), t)
	o.trace["trace.cluster.lb_share"] = ratio(float64(lb), t)
	o.trace["trace.cluster.backend_share"] = ratio(float64(backend), t)
	o.trace["trace.cluster.backoff_share"] = ratio(float64(backoff), t)
	o.trace["trace.cluster.latency_p999_exact_cycles"] = float64(sortedQuantile(exact, 0.999))
	var trace, metrics bytes.Buffer
	if err := obs.WriteTrace(&trace, tr.tracer); err != nil {
		return err
	}
	if err := tr.reg.WriteText(&metrics); err != nil {
		return err
	}
	for file, b := range map[string][]byte{"trace.json": trace.Bytes(), "metrics.txt": metrics.Bytes()} {
		if err := tr.write(file, b); err != nil {
			return err
		}
	}
	return nil
}
