package cluster

import (
	"testing"

	"atmosphere/internal/faults"
)

func steadyConfig() Config {
	cfg := DefaultConfig()
	cfg.Ticks = 600
	return cfg
}

// killPlan arms a single backend kill at the given tick. Until closes
// the window after one boundary so the rule fires exactly once.
func killPlan(backend int, tick uint64) faults.Plan {
	return faults.Plan{Rules: []faults.Rule{{
		Kind:   faults.MachineKill,
		Period: tick * TickCycles,
		Until:  (tick + 1) * TickCycles,
		Target: uint64(firstBackend + backend),
	}}}
}

func TestSteadyStateServes(t *testing.T) {
	c, err := New(steadyConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := c.Run()
	if r.Responses == 0 {
		t.Fatal("no responses in a fault-free run")
	}
	if r.GaveUp != 0 || r.Timeouts != 0 || r.Misrouted != 0 {
		t.Fatalf("fault-free run lost work: gaveup=%d timeouts=%d misrouted=%d",
			r.GaveUp, r.Timeouts, r.Misrouted)
	}
	// Baseline RTT is exactly 4 hops.
	if r.P50 != 4*TickCycles {
		t.Fatalf("p50 = %d cycles, want the 4-hop RTT %d", r.P50, 4*TickCycles)
	}
	// Every flow's first request is a seeding SET; after that GETs hit.
	if r.Misses != 0 {
		t.Fatalf("%d misses in a run with no data loss", r.Misses)
	}
	// Load spreads across all backends.
	for i := 1; i <= c.cfg.Backends; i++ {
		if c.machines[i].served == 0 {
			t.Fatalf("backend %d served nothing", i-1)
		}
	}
	if r.KernelCycles == 0 {
		t.Fatal("no cycles charged to machine kernels")
	}
}

func TestSteadyStateDeterminism(t *testing.T) {
	run := func(seed uint64) Report {
		cfg := steadyConfig()
		cfg.Seed = seed
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return c.Run()
	}
	a, b := run(1), run(1)
	if a != b {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a, b)
	}
	if other := run(2); other.TraceHash == a.TraceHash {
		t.Fatal("different seeds produced identical trace hashes")
	}
}

func TestChaosKillReconverges(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Plan = killPlan(1, 800)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := c.Run()

	if r.Kills != 1 || r.Respawns != 1 {
		t.Fatalf("kills=%d respawns=%d, want 1/1", r.Kills, r.Respawns)
	}
	if r.RemoveEvents == 0 || r.AddEvents == 0 {
		t.Fatalf("maglev never saw the death/return: remove=%d add=%d",
			r.RemoveEvents, r.AddEvents)
	}
	// Reconvergence SLO: the health checker must evict the dead backend
	// within a bounded cycle budget (2 probe rounds + timeouts, with
	// margin: 30 ticks).
	if r.ReconvergeKillCycles == 0 || r.ReconvergeKillCycles > 30*TickCycles {
		t.Fatalf("kill reconvergence took %d cycles (budget %d)",
			r.ReconvergeKillCycles, 30*TickCycles)
	}
	if r.ReconvergeReturnCycles == 0 || r.ReconvergeReturnCycles > 30*TickCycles {
		t.Fatalf("return reconvergence took %d cycles (budget %d)",
			r.ReconvergeReturnCycles, 30*TickCycles)
	}
	// <5% of the requests in flight at the kill may be lost outright;
	// the retry budget outlasts reconvergence, so flows re-route.
	if r.InFlightAtKill == 0 {
		t.Fatal("no requests in flight at the kill — load too thin to test the SLO")
	}
	if 20*r.GaveUp > r.InFlightAtKill {
		t.Fatalf("lost %d of %d in-flight requests (>5%%)", r.GaveUp, r.InFlightAtKill)
	}
	// The dead backend's flows needed timeouts and retries to re-route.
	if r.Timeouts == 0 || r.Retries == 0 {
		t.Fatalf("kill caused no timeouts/retries (%d/%d)", r.Timeouts, r.Retries)
	}
	// The respawned machine came back empty: misses and read-repair.
	if r.Misses == 0 || r.SetRepairs == 0 {
		t.Fatalf("respawn should cost misses and repairs, got %d/%d", r.Misses, r.SetRepairs)
	}
	// And it rejoined the table and serves again.
	if c.Maglev().ActiveBackends() != cfg.Backends {
		t.Fatalf("table has %d active backends, want %d",
			c.Maglev().ActiveBackends(), cfg.Backends)
	}
	m := c.Machine(2) // backend 1
	if !m.Alive() || m.Generation() != 1 {
		t.Fatalf("backend 1 alive=%v gen=%d, want alive gen 1", m.Alive(), m.Generation())
	}
}

// TestChaosDeterminism is the acceptance criterion: a same-seed re-run
// including the kill and respawn is byte-identical, and the hash is
// sensitive to both the seed and the plan.
func TestChaosDeterminism(t *testing.T) {
	run := func(seed uint64, plan faults.Plan) Report {
		cfg := DefaultConfig()
		cfg.Seed = seed
		cfg.Plan = plan
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return c.Run()
	}
	plan := killPlan(1, 800)
	a, b := run(1107, plan), run(1107, plan)
	if a != b {
		t.Fatalf("same seed chaos run diverged:\n%+v\n%+v", a, b)
	}
	if a.Kills != 1 || a.Respawns != 1 {
		t.Fatalf("chaos run had kills=%d respawns=%d", a.Kills, a.Respawns)
	}
	if other := run(1108, plan); other.TraceHash == a.TraceHash {
		t.Fatal("different seed produced an identical chaos trace hash")
	}
	if calm := run(1107, faults.Plan{}); calm.TraceHash == a.TraceHash {
		t.Fatal("fault plan left no mark on the trace hash")
	}
}

func TestLinkFaults(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Ticks = 1200
	cfg.Plan = faults.Plan{Rules: []faults.Rule{
		// Partition the client link for 40 ticks at tick 300.
		{Kind: faults.LinkPartition, Period: 300 * TickCycles, Until: 301 * TickCycles,
			Target: clientLink, Param: 40 * TickCycles},
		// Periodically delay and corrupt frames on backend 0's link.
		{Kind: faults.LinkDelay, Period: 100 * TickCycles, Target: firstBackLink, Param: 5 * TickCycles},
		{Kind: faults.LinkCorrupt, Period: 250 * TickCycles, Target: firstBackLink},
	}}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := c.Run()
	if r.DroppedLink == 0 {
		t.Fatal("partition dropped nothing")
	}
	if r.Corrupted == 0 {
		t.Fatal("corruption never fired")
	}
	// Corrupted frames must be rejected somewhere, not served.
	if r.DroppedMalformed == 0 {
		t.Fatal("corrupted frames were never rejected")
	}
	// The partition outlasts the deadline, so some requests timed out;
	// the retry budget outlasts the partition, so the tier recovered.
	if r.Timeouts == 0 {
		t.Fatal("40-tick partition caused no timeouts")
	}
	if r.Responses == 0 {
		t.Fatal("no responses despite recovery window")
	}
	tail := float64(r.GaveUp) / float64(r.Sent)
	if tail > 0.05 {
		t.Fatalf("lost %.1f%% of all requests to a transient partition", 100*tail)
	}
}

func TestMachineStallRecovers(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Ticks = 1000
	// Stall backend 0 for 6 ticks at tick 400: frames queue, nothing is
	// lost, and the stall shows up in the latency tail, not in GaveUp.
	cfg.Plan = faults.Plan{Rules: []faults.Rule{{
		Kind: faults.MachineStall, Period: 400 * TickCycles, Until: 401 * TickCycles,
		Target: firstBackend, Param: 6 * TickCycles,
	}}}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := c.Run()
	if c.Machine(1).Stalls != 1 {
		t.Fatalf("stalls = %d, want 1", c.Machine(1).Stalls)
	}
	if r.GaveUp != 0 {
		t.Fatalf("a 6-tick stall lost %d requests", r.GaveUp)
	}
	if r.Kills != 0 || r.RemoveEvents != 0 {
		t.Fatalf("a short stall must not trip the health checker (kills=%d removes=%d)",
			r.Kills, r.RemoveEvents)
	}
	if r.P999 <= r.P50 {
		t.Fatalf("stall left no latency tail: p50=%d p999=%d", r.P50, r.P999)
	}
}

func TestLBKillAndRespawn(t *testing.T) {
	cfg := DefaultConfig()
	// The outage (RespawnDelayTicks, 300) outlasts the full retry window
	// (~120 ticks), so requests caught in it exhaust their budgets.
	cfg.Plan = faults.Plan{Rules: []faults.Rule{{
		Kind: faults.MachineKill, Period: 600 * TickCycles, Until: 601 * TickCycles,
		Target: lbNode,
	}}}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := c.Run()
	if r.Kills != 1 || r.Respawns != 1 {
		t.Fatalf("kills=%d respawns=%d, want 1/1", r.Kills, r.Respawns)
	}
	if !c.Machine(0).Alive() {
		t.Fatal("LB did not come back")
	}
	// Traffic resumed after the LB respawn: responses well beyond what
	// had completed by the kill tick.
	if r.Responses == 0 || r.GaveUp == 0 {
		t.Fatalf("LB outage should lose some requests and then recover: responses=%d gaveup=%d",
			r.Responses, r.GaveUp)
	}
}
