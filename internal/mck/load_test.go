package mck

import (
	"testing"

	"atmosphere/internal/kernel"
	"atmosphere/internal/mem"
	"atmosphere/internal/pm"
	"atmosphere/internal/spec"
)

// TestLoadMatchesAbstract pins the in-place refill of Ψ. After every
// syscall of programs that kill processes and containers, close
// endpoints and unmap pages, a State reused across steps by Load equals
// a fresh Abstract, and one reused by LoadObjects equals it apart from
// Mem. The corpus must also free an object's page and bring it back as
// an object of another kind, so a stale entry under the old kind shows,
// and grow the allocator's touched prefix after a program's first Load,
// so a reused Ψ is compared after its page sets were resized.
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
	reborn, resized := 0, 0
	for i, prog := range progs {
		var loaded, objects spec.State
		var alloc *mem.Allocator
		firstTouched := 0
		hook := func(k *kernel.Kernel) {
			alloc = k.Alloc
			k.PostSyscall = func(name string, _ pm.Ptr, ret kernel.Ret) {
				if ret.Errno == kernel.OK {
					okCalls[name]++
				}
				fresh := spec.Abstract(k.PM, k.Alloc, k.IOMMU)
				loaded.Load(k.PM, k.Alloc, k.IOMMU)
				if firstTouched == 0 {
					firstTouched = k.Alloc.Touched()
				}
				if !statesEqual(fresh, loaded) {
					t.Fatalf("program %d after %s: Load into a reused State differs from Abstract", i, name)
				}
				objects.LoadObjects(k.PM, k.IOMMU)
				fresh.Mem = mem.Snapshot{}
				if !statesEqual(fresh, objects) {
					t.Fatalf("program %d after %s: LoadObjects into a reused State differs from Abstract", i, name)
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
		if alloc.Touched() > firstTouched {
			resized++
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
	if resized == 0 {
		t.Error("no program grew the touched prefix after its first Load")
	}
}

// statesEqual compares every field of Ψ: Unchanged both ways (it checks
// only one direction of the address-space keys), plus the root and the
// DMA spaces it leaves out.
func statesEqual(a, b spec.State) bool {
	if !spec.Unchanged(a, b) || !spec.Unchanged(b, a) ||
		a.RootContainer != b.RootContainer || len(a.DMASpaces) != len(b.DMASpaces) {
		return false
	}
	for id, as := range a.DMASpaces {
		if bs, ok := b.DMASpaces[id]; !ok || !spec.SpaceEqual(as, bs) {
			return false
		}
	}
	return true
}
