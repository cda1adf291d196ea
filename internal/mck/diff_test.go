package mck

import (
	"fmt"
	"strings"
	"testing"

	"atmosphere/internal/faults"
	"atmosphere/internal/hw"
	"atmosphere/internal/kernel"
	"atmosphere/internal/pm"
)

// TestRunDiffSeeds is the differential oracle's bread and butter: many
// seeds, many ops each, kernel and interpreter must agree on every
// field of Ψ after every step.
func TestRunDiffSeeds(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			p := Generate(seed, 400)
			res, st, err := RunDiff(p, Options{WFEvery: 64})
			if err != nil {
				t.Fatalf("boot: %v", err)
			}
			if res != nil {
				t.Fatalf("divergence: %v", res)
			}
			if st.Steps == 0 {
				t.Fatalf("no ops executed")
			}
		})
	}
}

// TestDiffUnderAllocFaults runs generated programs through the
// differential oracle with one allocation in ten refused, armed through
// Options.Hook as atmo-fuzz -chaos arms it, and every invariant checked
// after every op. Step 8 of seed 4 is an mmap, and step 8 of seed 6 a
// batched one, whose page-table node is refused: the kernel must
// report the ENOMEM the interpreter trusts after argument validation,
// where it once reported EINVAL.
func TestDiffUnderAllocFaults(t *testing.T) {
	plan := faults.Plan{Rules: []faults.Rule{{Kind: faults.AllocExhaust, Rate: 0.10}}}
	for _, seed := range []uint64{4, 6} {
		var inj *faults.Injector
		opt := Options{WFEvery: 1, Hook: func(k *kernel.Kernel) {
			var err error
			if inj, err = faults.NewInjector(seed, plan, k.Machine.TotalCycles); err != nil {
				t.Fatal(err)
			}
			k.Alloc.SetFaultHook(func() bool { return inj.Hit(faults.AllocExhaust) })
		}}
		res, _, err := RunDiff(Generate(seed, 100), opt)
		if err != nil {
			t.Fatalf("seed %d: boot: %v", seed, err)
		}
		if res != nil {
			t.Fatalf("seed %d: %v", seed, res)
		}
		if inj.InjectedTotal() == 0 {
			t.Fatalf("seed %d: no allocation was refused", seed)
		}
	}
}

// TestDiffRefusedPageDelivery grants a page with send_async and receives
// it from the buffer at recv's VA 0, which needs two fresh table nodes.
// Refusing either node fails the recv with ENOMEM and leaves the
// receiver's table as it was: the interpreter must trust that ENOMEM,
// as it does mmap's, and leave Ψ′ unchanged.
func TestDiffRefusedPageDelivery(t *testing.T) {
	p := Program{Ops: []Op{{Kind: KMmap, B: 3}, {Kind: KSendAsync, B: 2}, {Kind: KRecv}}}
	for refuse := 1; refuse <= 2; refuse++ {
		sent, n := false, 0
		opt := Options{WFEvery: 1, Hook: func(k *kernel.Kernel) {
			k.PostSyscall = func(name string, _ pm.Ptr, ret kernel.Ret) {
				sent = sent || name == "send_async" && ret.Errno == kernel.OK
			}
			k.Alloc.SetFaultHook(func() bool {
				if sent {
					n++
				}
				return sent && n == refuse
			})
		}}
		res, st, err := RunDiff(p, opt)
		if err != nil {
			t.Fatalf("refusing allocation %d after the send: boot: %v", refuse, err)
		}
		if res != nil {
			t.Fatalf("refusing allocation %d after the send: %v", refuse, res)
		}
		if st.Steps != 3 || st.Errnos[kernel.ENOMEM.String()] != 1 {
			t.Fatalf("refusing allocation %d after the send: %d steps, errnos %v, want 3 steps and one ENOMEM",
				refuse, st.Steps, st.Errnos)
		}
	}
}

// TestRunDiffChecksFinalState plants a refcount leak on the first
// successful mmap's frame during the syscall after it. The spec steps
// cannot see it (Diff compares objects and address spaces, not
// reference counts, and mmap counts its fresh frames' references at the
// mmap itself), so only TotalWF can, and a 200-op program never reaches
// the first periodic check at WFEvery 256: only the check after the
// last op catches it. The program then shrinks to the mmap and one
// syscall after it.
func TestRunDiffChecksFinalState(t *testing.T) {
	opt := Options{WFEvery: 256, Hook: func(k *kernel.Kernel) {
		var frame hw.PhysAddr
		leaked := false
		k.PostSyscall = func(name string, caller pm.Ptr, ret kernel.Ret) {
			switch {
			case leaked:
			case frame != 0:
				leaked = true
				if err := k.Alloc.IncRef(frame); err != nil {
					t.Error(err)
				}
			case name == "mmap" && ret.Errno == kernel.OK:
				for _, e := range k.PM.Proc(k.PM.Thrd(caller).OwningProc).PageTable.AddressSpace() {
					frame = e.Phys
					break
				}
			}
		}
	}}
	p := Generate(2, 200)
	res, _, err := RunDiff(p, opt)
	if err != nil {
		t.Fatalf("boot: %v", err)
	}
	if res == nil {
		t.Fatal("the planted refcount leak went unchecked")
	}
	if res.Step != len(p.Ops)-1 || !strings.HasPrefix(res.Err.Error(), "invariants: memory_wf: mapped page ") {
		t.Fatalf("caught as %v, want the final check's refcount report", res)
	}
	min := Shrink(p, func(q Program) bool { return Fails(q, opt) })
	if len(min.Ops) != 2 || min.Ops[0].Kind != KMmap {
		t.Fatalf("shrunk to %d ops, want the mmap and one op after it:\n%s", len(min.Ops), min.EncodeRepro())
	}
}

// TestRunCheckedSeeds drives the same generator through the
// differential oracle with the invariant suite after every step.
func TestRunCheckedSeeds(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			p := Generate(seed, 250)
			if _, err := RunChecked(p, Options{}); err != nil {
				t.Fatalf("checked run: %v", err)
			}
		})
	}
}

// cacheChurnProgram drives the per-core page caches through both
// munmap paths: init (core 0) and a second thread of its process (core
// 1) each map 9 pages and unmap them one by one, rounds times. Each
// round's unmaps fill the core's cache past its drain threshold (batch
// 4): most park their frame in the cache, one drains it. A grant and
// its receive ride along.
func cacheChurnProgram(rounds int) Program {
	p := Program{Frames: DefaultFrames, Cores: DefaultCores}
	// Process registry index 0 is init's; the thread lands on core 1.
	p.Ops = append(p.Ops, Op{Kind: KNewThreadIn, Actor: 0, A: 0, B: 1})
	for r := 0; r < rounds; r++ {
		for actor := uint8(0); actor < 2; actor++ {
			base := uint16(actor) * 64
			// count = B%16 - 1
			p.Ops = append(p.Ops, Op{Kind: KMmap, Actor: actor, A: base, B: 10})
			for i := uint16(0); i < 9; i++ {
				p.Ops = append(p.Ops, Op{Kind: KMunmap, Actor: actor, A: base + i, B: 2})
			}
		}
	}
	// Grant page 200 (B = 2*200) over the shared endpoint in slot 0.
	p.Ops = append(p.Ops,
		Op{Kind: KMmap, Actor: 0, A: 200, B: 2},
		Op{Kind: KSendAsync, Actor: 0, A: 0, B: 400},
		Op{Kind: KRecv, Actor: 1, A: 0},
	)
	return p
}

// TestDiffWithCoreCaches runs the differential oracle and the checked
// runner on kernels booted as every kernel benchmark boots them:
// per-core page caches, contention on, and the lock-order, run-queue
// coverage and post-release checks armed. Generated programs almost
// never unmap a page they mapped, so the cache churn program makes the
// run non-vacuous: some munmap counts its shootdown after release, and
// some munmap drains its cache and so keeps its shootdown in the hold.
func TestDiffWithCoreCaches(t *testing.T) {
	var kernels []*kernel.Kernel
	opt, violation := Options{WFEvery: 256, Hook: func(k *kernel.Kernel) {
		k.EnableCoreCaches(4)
		k.EnableContention()
		kernels = append(kernels, k)
	}}.WithLockOrder()
	diff := func(name string, p Program) {
		res, _, err := RunDiff(p, opt)
		if err != nil {
			t.Fatalf("%s: boot: %v", name, err)
		}
		if res != nil {
			t.Fatalf("%s: divergence: %v", name, res)
		}
	}
	checked := func(name string, p Program) {
		if _, err := RunChecked(p, opt); err != nil {
			t.Fatalf("%s: checked run: %v", name, err)
		}
	}
	churn := cacheChurnProgram(16)
	diff("churn", churn)
	checked("churn", churn)
	for seed := uint64(1); seed <= 8; seed++ {
		diff(fmt.Sprintf("seed %d", seed), Generate(seed, 2000))
	}
	for seed := uint64(1); seed <= 2; seed++ {
		checked(fmt.Sprintf("seed %d", seed), Generate(seed, 400))
	}
	if err := violation(); err != nil {
		t.Fatal(err)
	}
	var late, drains uint64
	for _, k := range kernels {
		late += k.Contention().CheckedFlushes()
		_, _, _, d := k.CoreCaches().Stats()
		drains += d
	}
	if late == 0 {
		t.Error("no munmap counted its shootdown after release")
	}
	if drains == 0 {
		t.Error("no munmap drained its cache: the stays-in-hold path never ran")
	}
}
