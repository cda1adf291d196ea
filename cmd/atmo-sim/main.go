// Command atmo-sim boots the simulated Atmosphere kernel and runs a
// small demonstration workload under full checking: containers,
// processes, memory, IPC, and a container kill, narrating each step and
// validating the specification and invariants after every syscall.
//
// Usage:
//
//	atmo-sim [-frames 8192] [-cores 4]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"atmosphere/internal/drivers"
	"atmosphere/internal/faults"
	"atmosphere/internal/hw"
	"atmosphere/internal/kernel"
	"atmosphere/internal/nic"
	"atmosphere/internal/nvme"
	"atmosphere/internal/obs"
	"atmosphere/internal/obs/profile"
	"atmosphere/internal/pm"
	"atmosphere/internal/pt"
	"atmosphere/internal/verify"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "atmo-sim:", err)
		os.Exit(1)
	}
}

// run is the whole command: it parses args, runs the checked demo and
// the driver section, narrating both to stdout, and writes the exports
// the flags ask for.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	frames := fs.Int("frames", 8192, "physical frames (4 KiB)")
	cores := fs.Int("cores", 4, "simulated cores")
	traceOut := fs.String("trace", "", "write a Perfetto trace of the demo workload to this path")
	metricsOut := fs.String("metrics", "", "write a plain-text metrics dump to this path")
	profileOut := fs.String("profile", "", "write <prefix>.folded and <prefix>.pb.gz cycle profiles of the demo workload")
	fs.Parse(args)

	var tracer *obs.Tracer
	var registry *obs.Registry
	if *traceOut != "" || *profileOut != "" {
		tracer = obs.NewTracer(0)
	}
	if *metricsOut != "" {
		registry = obs.NewRegistry()
	}

	c, init, err := verify.NewChecker(hw.Config{Frames: *frames, Cores: *cores, TLBSlots: 512})
	if err != nil {
		return err
	}
	k := c.K
	k.AttachObs(tracer, registry)
	say := func(format string, args ...any) { fmt.Fprintf(stdout, format+"\n", args...) }
	// ok passes a checked syscall's outcome on: the checker's error, or
	// an errno other than OK and EWOULDBLOCK.
	ok := func(r kernel.Ret, err error) (kernel.Ret, error) {
		if err == nil && r.Errno != kernel.OK && r.Errno != kernel.EWOULDBLOCK {
			err = fmt.Errorf("syscall failed: %v", r.Errno)
		}
		return r, err
	}

	say("booted: %d frames (%d MiB), %d cores; init thread %#x",
		*frames, *frames*4/1024, *cores, init)
	say("every syscall below is checked against its specification + all invariants")

	r, err := ok(c.NewContainer(0, init, 400, []int{0, 1}))
	if err != nil {
		return err
	}
	cntr := pm.Ptr(r.Vals[0])
	say("created container %#x (quota 400 pages, cores 0-1)", cntr)

	if r, err = ok(c.NewProcessIn(0, init, cntr)); err != nil {
		return err
	}
	proc := pm.Ptr(r.Vals[0])
	if r, err = ok(c.NewThreadIn(0, init, proc, 1)); err != nil {
		return err
	}
	worker := pm.Ptr(r.Vals[0])
	say("created process %#x with worker thread %#x on core 1", proc, worker)

	if _, err := ok(c.Mmap(1, worker, 0x400000, 16, hw.Size4K, pt.RW)); err != nil {
		return err
	}
	say("worker mapped 16 pages at 0x400000 (container used %d/%d pages)",
		k.PM.Cntr(cntr).UsedPages, k.PM.Cntr(cntr).QuotaPages)

	table := k.PM.Proc(proc).PageTable
	k.Machine.MMU.Store(table.CR3(), 0x400000, []byte("written through the real MMU walk"))
	got, _ := k.Machine.MMU.Load(table.CR3(), 0x400000, 33)
	say("MMU round trip through the worker's page table: %q", got)

	// IPC between init and the worker.
	if _, err := ok(c.NewEndpoint(0, init, 0)); err != nil {
		return err
	}
	if err := c.InstallEndpoint(worker, 0, k.PM.Thrd(init).Endpoints[0]); err != nil {
		return err
	}
	if _, err := ok(c.Recv(1, worker, 0, kernel.RecvArgs{PageVA: 0x9000, EdptSlot: -1})); err != nil {
		return err
	}
	if _, err := ok(c.Mmap(0, init, 0x100000, 1, hw.Size4K, pt.RW)); err != nil {
		return err
	}
	initTable := k.PM.Proc(k.PM.Thrd(init).OwningProc).PageTable
	k.Machine.MMU.Store(initTable.CR3(), 0x100000, []byte("shared page payload"))
	if _, err := ok(c.Send(0, init, 0, kernel.SendArgs{Regs: [4]uint64{42}, SendPage: true, PageVA: 0x100000})); err != nil {
		return err
	}
	got, _ = k.Machine.MMU.Load(table.CR3(), 0x9000, 19)
	say("IPC page transfer: worker reads %q at its 0x9000", got)

	free := k.Alloc.FreeCount4K()
	if _, err := ok(c.KillContainer(0, init, cntr)); err != nil {
		return err
	}
	say("killed the container: %d pages harvested back to the free list",
		k.Alloc.FreeCount4K()-free)

	if err := verify.TotalWF(k); err != nil {
		return err
	}
	say("final state: %d checked transitions, all specifications and invariants held", c.Transitions)
	say("cycles consumed: core0=%d core1=%d (simulated %0.f µs at 2.2 GHz)",
		k.Machine.Core(0).Clock.Cycles(), k.Machine.Core(1).Clock.Cycles(),
		float64(k.Machine.TotalCycles())/hw.ClockHz*1e6)

	if err := driverDemo(say); err != nil {
		return err
	}
	return writeObs(stdout, tracer, registry, *traceOut, *metricsOut, *profileOut)
}

// driverDemo runs both user-level drivers on fresh kernels under a 10%
// fault plan and prints their counters: faults are absorbed by bounded
// retry (NVMe) and descriptor validation (NIC), never by panicking.
func driverDemo(say func(string, ...any)) error {
	say("")
	say("driver robustness: both drivers under a seeded 10%% fault plan")

	senv, err := drivers.NewStorageEnv(drivers.CfgDriverLinked, 2048, 16)
	if err != nil {
		return err
	}
	inj, err := faults.NewInjector(1, faults.Plan{Rules: []faults.Rule{
		{Kind: faults.NvmeCmdError, Rate: 0.10},
	}}, senv.K.Machine.TotalCycles)
	if err != nil {
		return err
	}
	senv.Dev.SetInjector(inj)
	const ios, batch = 256, 8
	lost := 0
	for done := 0; done < ios; done += batch {
		if err := senv.Drv.SubmitBatch(nvme.OpWrite, uint64(done%1024), batch); err != nil {
			return err
		}
		for remaining := batch; remaining > 0; {
			n, err := senv.Drv.PollCompletions(remaining)
			remaining -= n
			switch {
			case err == nil:
			case errors.Is(err, drivers.ErrCmdFailed):
				lost++
				remaining--
			case errors.Is(err, drivers.ErrCmdTimeout):
			default:
				return err
			}
		}
	}
	say("nvme driver: %s (injected errors: %d, lost after bounded retry: %d)",
		senv.Drv.Stats(), inj.Injected[faults.NvmeCmdError], lost)

	nenv, err := drivers.NewNetEnv(drivers.CfgDriverLinked, nic.NewGenerator(1, 16, 64))
	if err != nil {
		return err
	}
	ninj, err := faults.NewInjector(1, faults.Plan{Rules: []faults.Rule{
		{Kind: faults.NicDescCorrupt, Rate: 0.10},
	}}, nenv.K.Machine.TotalCycles)
	if err != nil {
		return err
	}
	nenv.Dev.SetInjector(ninj)
	if _, err := nenv.RunRx(512, 32, func(*hw.Clock, []byte) bool { return false }); err != nil {
		return err
	}
	say("nic driver:  %s (injected corruptions: %d)",
		nenv.Drv.Stats(), ninj.Injected[faults.NicDescCorrupt])
	return nil
}

// writeObs exports the demo kernel's trace/metrics/profile to the
// flag-named files (nil sink or empty path skips that export) and says
// so on stdout.
func writeObs(stdout io.Writer, t *obs.Tracer, m *obs.Registry, tracePath, metricsPath, profilePath string) error {
	if t != nil && tracePath != "" {
		if err := writeFile(tracePath, func(f io.Writer) error { return obs.WriteTrace(f, t) }); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote trace (%d events) to %s\n", t.Len(), tracePath)
	}
	if m != nil && metricsPath != "" {
		if err := writeFile(metricsPath, m.WriteText); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote metrics to %s\n", metricsPath)
	}
	if t != nil && profilePath != "" {
		p, err := profile.WriteFiles(profilePath, t)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, p.Describe(profilePath))
	}
	return nil
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
