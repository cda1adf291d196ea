package mck

import (
	"strings"
	"testing"

	"atmosphere/internal/kernel"
	"atmosphere/internal/obs/contend"
)

// crossContainerProgram builds the canonical sharded-lock workout: a
// second container pinned to core 1 with one thread, then rounds of
// cross-container rendezvous over the shared endpoint every new thread
// adopts in slot 0. Each round is recv (the child parks), call (init
// rendezvouses cross-container — the plan holds both container
// frontiers plus the endpoint), send (the child replies, waking init).
func crossContainerProgram(rounds int) Program {
	p := Program{Frames: DefaultFrames, Cores: 2}
	p.Ops = append(p.Ops,
		// quota = 20%40, cpus = {1} from the B bitmask.
		Op{Kind: KNewContainer, Actor: 0, A: 20, B: 0b10},
		// container registry index 1 = the one just created.
		Op{Kind: KNewProcessIn, Actor: 0, A: 1},
		// process registry index 1, pinned on core 1%(cores+2) = 1.
		Op{Kind: KNewThreadIn, Actor: 0, A: 1, B: 1},
	)
	for i := 0; i < rounds; i++ {
		p.Ops = append(p.Ops,
			Op{Kind: KRecv, Actor: 1, A: 0, B: 0},
			Op{Kind: KCall, Actor: 0, A: 0, B: 0, C: uint16(i)},
			Op{Kind: KSend, Actor: 1, A: 0, B: 0, C: uint16(i)},
		)
	}
	return p
}

// TestShardedAbstractEquivalence pins the tentpole's safety claim: with
// contention enabled, per-shard jitter armed, and the lock-order checker
// watching, a cross-container IPC program — the workload whose plans
// hold two container frontiers and an endpoint frontier at once — keeps
// Abstract(kernel) lockstep-equal to the spec interpreter at every step,
// for every jitter seed. Sharding perturbs only the virtual-time cost
// model; if a plan ever influenced a state transition, the differential
// oracle would diverge here.
func TestShardedAbstractEquivalence(t *testing.T) {
	p := crossContainerProgram(64)
	for seed := uint64(1); seed <= 8; seed++ {
		var cobs *contend.Observatory
		opt := Options{
			WFEvery: 32,
			Hook: func(k *kernel.Kernel) {
				cobs = contend.New()
				k.AttachContention(cobs)
				k.ArmLockOrder()
				k.EnableContention()
				k.SetLockJitter(seed, 256)
			},
		}
		res, st, err := RunDiff(p, opt)
		if err != nil {
			t.Fatalf("seed %d: boot: %v", seed, err)
		}
		if res != nil {
			t.Fatalf("seed %d: divergence: %v", seed, res)
		}
		if st.Steps != len(p.Ops) {
			t.Fatalf("seed %d: executed %d of %d ops", seed, st.Steps, len(p.Ops))
		}
		if v := cobs.Violation(); v != nil {
			t.Fatalf("seed %d: lock order: %s", seed, v)
		}
		// Prove the sharded plans actually ran: container and endpoint
		// frontiers must have been created, registered, and acquired.
		byClass := map[string]uint64{}
		for _, c := range cobs.ByClass() {
			byClass[c.Class] = c.Acquisitions
		}
		for _, class := range []string{"big", "container", "endpoint"} {
			if byClass[class] == 0 {
				t.Fatalf("seed %d: no %s-frontier acquisitions (classes: %v)", seed, class, byClass)
			}
		}
	}
}

// TestPlantedCrossShardInversion plants a cross-shard ordering bug —
// MutantPlanFlip acquires the endpoint frontier before its
// container — and demands the armed checker catch it under schedule
// exploration, deterministically: two identical sweeps must fail with
// byte-identical inversion reports.
func TestPlantedCrossShardInversion(t *testing.T) {
	opt := Options{
		Hook: func(k *kernel.Kernel) { k.SetMutantForTest(kernel.MutantPlanFlip) },
	}
	_, err1 := ExploreSchedules([]uint64{7}, 40, opt)
	if err1 == nil {
		t.Fatalf("planted endpoint-before-container inversion went undetected")
	}
	for _, want := range []string{
		"lock-order inversion",
		"while holding endpoint/",
		"acquiring container/",
		"(no endpoint -> container edge declared)",
	} {
		if !strings.Contains(err1.Error(), want) {
			t.Fatalf("inversion report missing %q:\n%s", want, err1)
		}
	}
	_, err2 := ExploreSchedules([]uint64{7}, 40, opt)
	if err2 == nil || err1.Error() != err2.Error() {
		t.Fatalf("planted inversion not deterministic:\nrun 1: %v\nrun 2: %v", err1, err2)
	}
}
