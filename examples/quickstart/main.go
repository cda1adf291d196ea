// Quickstart: boot the simulated Atmosphere kernel, create a container
// with a process and a thread, map memory, exchange an IPC message, and
// tear everything down — the minimal tour of the public kernel API.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"atmosphere/internal/hw"
	"atmosphere/internal/kernel"
	"atmosphere/internal/pm"
	"atmosphere/internal/pt"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the whole tour, narrated to w.
func run(w io.Writer) error {
	// Boot a machine: 16 MiB of simulated RAM, 2 cores.
	k, init, err := kernel.Boot(hw.Config{Frames: 4096, Cores: 2, TLBSlots: 256})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "booted; init thread %#x in the root container\n", init)

	// Create an isolated container with a 100-page reservation.
	r := k.SysNewContainer(0, init, 100, []int{0, 1})
	if err := check(r, "new_container"); err != nil {
		return err
	}
	cntr := pm.Ptr(r.Vals[0])

	// Populate it: one process, one thread on core 1.
	r = k.SysNewProcessIn(0, init, cntr)
	if err := check(r, "new_proc_in"); err != nil {
		return err
	}
	proc := pm.Ptr(r.Vals[0])
	r = k.SysNewThreadIn(0, init, proc, 1)
	if err := check(r, "new_thread_in"); err != nil {
		return err
	}
	worker := pm.Ptr(r.Vals[0])
	fmt.Fprintf(w, "container %#x: process %#x, worker thread %#x\n", cntr, proc, worker)

	// The worker maps 4 pages and writes through the real MMU.
	if err := check(k.SysMmap(1, worker, 0x400000, 4, hw.Size4K, pt.RW), "mmap"); err != nil {
		return err
	}
	table := k.PM.Proc(proc).PageTable
	k.Machine.MMU.Store(table.CR3(), 0x400000, []byte("hello, atmosphere"))
	data, _ := k.Machine.MMU.Load(table.CR3(), 0x400000, 17)
	fmt.Fprintf(w, "worker wrote and read back: %q\n", data)

	// IPC: init sends scalars + a shared page to the worker.
	r = k.SysNewEndpoint(0, init, 0)
	if err := check(r, "new_endpoint"); err != nil {
		return err
	}
	ep := pm.Ptr(r.Vals[0])
	k.PM.Thrd(worker).Endpoints[0] = ep // boot-time channel setup by the parent
	k.PM.EndpointIncRef(ep, 1)

	if r := k.SysRecv(1, worker, 0, kernel.RecvArgs{PageVA: 0x800000, EdptSlot: -1}); r.Errno != kernel.EWOULDBLOCK {
		return fmt.Errorf("recv: %v", r.Errno)
	}
	if err := check(k.SysMmap(0, init, 0x100000, 1, hw.Size4K, pt.RW), "mmap(init)"); err != nil {
		return err
	}
	initTable := k.PM.Proc(k.PM.Thrd(init).OwningProc).PageTable
	k.Machine.MMU.Store(initTable.CR3(), 0x100000, []byte("shared!"))
	r = k.SysSend(0, init, 0, kernel.SendArgs{Regs: [4]uint64{1, 2, 3, 4}, SendPage: true, PageVA: 0x100000})
	if err := check(r, "send"); err != nil {
		return err
	}
	shared, _ := k.Machine.MMU.Load(table.CR3(), 0x800000, 7)
	fmt.Fprintf(w, "worker received regs %v and shared page %q\n",
		k.PM.Thrd(worker).IPC.Msg.Regs, shared)

	// Revocation: kill the container; its quota and pages return.
	free := k.Alloc.FreeCount4K()
	if err := check(k.SysKillContainer(0, init, cntr), "kill_container"); err != nil {
		return err
	}
	fmt.Fprintf(w, "container killed; %d pages harvested\n", k.Alloc.FreeCount4K()-free)
	fmt.Fprintf(w, "total simulated cycles: %d\n", k.Machine.TotalCycles())
	return nil
}

func check(r kernel.Ret, what string) error {
	if r.Errno != kernel.OK {
		return fmt.Errorf("%s failed: %v", what, r.Errno)
	}
	return nil
}
