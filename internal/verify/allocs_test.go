//go:build !race

package verify

import (
	"testing"

	"atmosphere/internal/kernel"
	"atmosphere/internal/pm"
	"atmosphere/internal/spec"
)

// Every invariant in WFChecks allocates nothing on a warm kernel,
// memory_wf's per-table refinement walks included, and nothing on a
// crowded one either. (The race runtime may allocate on its own, so this
// file builds without -race.)
func TestWFChecksAllocateNothing(t *testing.T) {
	k := warmKernel(t).k
	var mappings int
	for _, proc := range k.PM.ProcPerms {
		mappings += proc.PageTable.MappedCount()
	}
	if n := len(k.PM.ProcPerms); n < 3 || mappings < 64 {
		t.Fatalf("warm kernel has %d processes and %d mappings, want at least 3 and 64", n, mappings)
	}
	for _, kk := range []struct {
		name string
		k    *kernel.Kernel
	}{{"warm", k}, {"crowded", crowdedKernel(t)}} {
		for _, c := range WFChecks() {
			if err := c.Check(kk.k); err != nil {
				t.Fatalf("%s kernel: %s: %v", kk.name, c.Name, err)
			}
			if n := testing.AllocsPerRun(20, func() { _ = c.Check(kk.k) }); n != 0 {
				t.Errorf("%s allocates %.2f times per call on a %s kernel, want 0", c.Name, n, kk.name)
			}
		}
	}
}

// crowdedKernel returns a kernel on which the thread and endpoint checks
// hold more than eight keys in each set or count they build: ten threads
// owned by the root container, ten live endpoints, and nine threads
// queued on one of them. Go keeps a map of at most eight keys that does
// not escape on the stack, so only such a kernel shows a map made per
// call. It has one container, so the container-tree check's map stays
// small.
func crowdedKernel(t *testing.T) *kernel.Kernel {
	t.Helper()
	k, init, err := kernel.Boot(cfg())
	if err != nil {
		t.Fatal(err)
	}
	must := func(r kernel.Ret, want kernel.Errno) kernel.Ret {
		t.Helper()
		if r.Errno != want {
			t.Fatalf("crowding syscall returned %v, want %v", r.Errno, want)
		}
		return r
	}
	ep := pm.Ptr(must(k.SysNewEndpoint(0, init, 0), kernel.OK).Vals[0])
	for slot := 1; slot < 10; slot++ {
		must(k.SysNewEndpoint(0, init, slot), kernel.OK)
	}
	proc := k.PM.Thrd(init).OwningProc
	for i := 0; i < 9; i++ {
		th := pm.Ptr(must(k.SysNewThreadIn(0, init, proc, i%cfg().Cores), kernel.OK).Vals[0])
		k.PM.Thrd(th).Endpoints[0] = ep
		k.PM.EndpointIncRef(ep, 1)
		must(k.SysRecv(k.PM.Thrd(th).Core, th, 0, kernel.RecvArgs{EdptSlot: -1}), kernel.EWOULDBLOCK)
	}
	if n, q := len(k.PM.CntrPerms[k.PM.RootContainer].OwnedThreads), len(k.PM.Edpt(ep).Queue); n != 10 || q != 9 ||
		len(k.PM.EdptPerms) != 10 || len(k.PM.CntrPerms) > 8 {
		t.Fatalf("crowded kernel has %d threads, %d queued, %d endpoints and %d containers",
			n, q, len(k.PM.EdptPerms), len(k.PM.CntrPerms))
	}
	return k
}

// A checked syscall that passes builds no error text: on a warm kernel a
// checked yield (its spec step, Diff and TotalWF) allocates nothing.
func TestCheckedYieldAllocatesNothing(t *testing.T) {
	w := warmKernel(t)
	c := &Checker{K: w.k, ip: spec.NewInterp(w.k)}
	core := w.k.PM.Thrd(w.init).Core
	if _, err := c.Yield(core, w.init); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() { _, _ = c.Yield(core, w.init) }); n != 0 {
		t.Errorf("a checked yield allocates %.2f times per call on a warm kernel, want 0", n)
	}
}

// A rejected creation builds no error text either: on a warm kernel a
// checked new_container with a zero quota, a quota the parent cannot
// carve, or a CPU the parent does not reserve, and a checked new_thread
// or new_thread_in on a core outside the container, allocate nothing.
func TestCheckedRejectedCreationAllocatesNothing(t *testing.T) {
	w := warmKernel(t)
	c := &Checker{K: w.k, ip: spec.NewInterp(w.k)}
	core := w.k.PM.Thrd(w.init).Core
	outside := cfg().Cores
	cpus := []int{0, outside}
	for _, tc := range []struct {
		name string
		want kernel.Errno
		call func() (kernel.Ret, error)
	}{
		{"new_container zero quota", kernel.EQUOTA, func() (kernel.Ret, error) {
			return c.NewContainer(core, w.init, 0, cpus[:1])
		}},
		{"new_container over quota", kernel.EQUOTA, func() (kernel.Ret, error) {
			return c.NewContainer(core, w.init, 1<<40, cpus[:1])
		}},
		{"new_container unreserved CPU", kernel.EINVAL, func() (kernel.Ret, error) {
			return c.NewContainer(core, w.init, 4, cpus)
		}},
		{"new_thread outside core", kernel.EINVAL, func() (kernel.Ret, error) {
			return c.NewThread(core, w.init, outside)
		}},
		{"new_thread_in outside core", kernel.EINVAL, func() (kernel.Ret, error) {
			return c.NewThreadIn(core, w.init, w.procs[1], outside)
		}},
	} {
		ret, err := tc.call()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if ret.Errno != tc.want {
			t.Fatalf("%s returned %v, want %v", tc.name, ret.Errno, tc.want)
		}
		if n := testing.AllocsPerRun(20, func() { _, _ = tc.call() }); n != 0 {
			t.Errorf("a checked %s allocates %.2f times per call on a warm kernel, want 0", tc.name, n)
		}
	}
}
