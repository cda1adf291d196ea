package mck

import (
	"fmt"
	"testing"

	"atmosphere/internal/kernel"
	"atmosphere/internal/pm"
	"atmosphere/internal/spec"
)

// TestLoadMatchesAbstract pins the in-place refill of Ψ. After every
// syscall of programs that kill processes and containers, close
// endpoints and unmap pages, a State reused across steps by LoadObjects
// equals one a fresh LoadObjects fills. The corpus must also free an
// object's page and bring it back as an object of another kind, so a
// stale entry under the old kind shows.
func TestLoadMatchesAbstract(t *testing.T) {
	// Teardown and page reuse in a fixed order (actor 0 is init; see
	// resolve for how A, B, C map onto arguments), then random programs.
	directed := Program{Frames: DefaultFrames, Cores: DefaultCores, Ops: []Op{
		{Kind: KNewEndpoint, A: 1},
		{Kind: KMmap, A: 0, B: 5}, // 4 pages
		{Kind: KMunmap, A: 0, B: 3},
		{Kind: KMunmap, A: 2, B: 3},
		{Kind: KCloseEndpoint, A: 1},
		{Kind: KNewProcess},
		{Kind: KNewThreadIn, A: 1},
		{Kind: KKillProcess, A: 1},
		{Kind: KNewEndpoint, A: 2},
		{Kind: KNewContainer, A: 20, B: 1},
		{Kind: KNewProcessIn, A: 1},
		{Kind: KNewThreadIn, A: 2},
		{Kind: KMmap, Actor: 1, A: 8, B: 3},
		{Kind: KKillContainer, A: 1},
		{Kind: KNewProcess},
		{Kind: KNewEndpoint, A: 3},
	}}
	progs := []Program{directed}
	for seed := uint64(1); seed <= 4; seed++ {
		progs = append(progs, Generate(seed, 400))
	}
	okCalls := map[string]int{}
	kindOf := map[pm.Ptr]string{}
	reborn := 0
	for i, prog := range progs {
		var reused spec.State
		hook := func(k *kernel.Kernel) {
			k.PostSyscall = func(name string, _ pm.Ptr, ret kernel.Ret) {
				if ret.Errno == kernel.OK {
					okCalls[name]++
				}
				var fresh spec.State
				fresh.LoadObjects(k.PM, k.IOMMU)
				reused.LoadObjects(k.PM, k.IOMMU)
				// fmt prints maps in key order and nil and empty
				// collections alike, so equal prints are equal states.
				if fmt.Sprint(fresh) != fmt.Sprint(reused) {
					t.Fatalf("program %d after %s: LoadObjects into a reused State differs from a fresh one", i, name)
				}
				note := func(kind string, p pm.Ptr) {
					if was, ok := kindOf[p]; ok && was != kind {
						reborn++
					}
					kindOf[p] = kind
				}
				for p := range fresh.Containers {
					note("container", p)
				}
				for p := range fresh.Procs {
					note("proc", p)
				}
				for p := range fresh.Threads {
					note("thread", p)
				}
				for p := range fresh.Endpoints {
					note("endpoint", p)
				}
			}
		}
		res, _, err := RunDiff(prog, Options{Hook: hook})
		if err != nil || res != nil {
			t.Fatalf("program %d: %v %v", i, err, res)
		}
		clear(kindOf)
	}
	for _, name := range []string{"kill_proc", "kill_container", "close_endpoint", "munmap"} {
		if okCalls[name] == 0 {
			t.Errorf("no successful %s in the corpus", name)
		}
	}
	if reborn == 0 {
		t.Error("no object's page came back as an object of another kind")
	}
}
