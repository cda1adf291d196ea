// Interrupts: the user-level-driver interrupt model (§3) — a driver
// process binds the NIC's interrupt line to one of its endpoints,
// sleeps in irq_wait, and is woken by the kernel's interrupt dispatch
// whenever the device delivers packets, processing them in batches.
// Interrupts arriving while the driver is busy coalesce into a pending
// count instead of being lost.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"atmosphere/internal/drivers"
	"atmosphere/internal/kernel"
	"atmosphere/internal/netproto"
	"atmosphere/internal/nic"
	"atmosphere/internal/pm"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run drives eight interrupt rounds and narrates each to w.
func run(w io.Writer) error {
	gen := nic.NewGenerator(11, 32, 60)
	env, err := drivers.NewNetEnv(drivers.CfgDriverLinked, gen)
	if err != nil {
		return err
	}
	k := env.K
	const nicIRQ = 32

	// Bind the device's interrupt to an endpoint in the driver's
	// descriptor table.
	if r := k.SysNewEndpoint(0, env.DrvTid, 5); r.Errno != kernel.OK {
		return fmt.Errorf("endpoint: %v", r.Errno)
	}
	if r := k.SysIrqRegister(0, env.DrvTid, nicIRQ, 5); r.Errno != kernel.OK {
		return fmt.Errorf("irq_register: %v", r.Errno)
	}
	env.Dev.OnRxInterrupt = func() { k.RaiseIRQ(0, nicIRQ) }
	// A sibling keeps the core busy while the driver sleeps.
	if r := k.SysNewThread(0, env.DrvTid, 0); r.Errno != kernel.OK {
		return fmt.Errorf("sibling: %v", r.Errno)
	}

	received, wakeups, coalesced := 0, 0, uint64(0)
	for round := 0; round < 8; round++ {
		r := k.SysIrqWait(0, env.DrvTid, nicIRQ)
		switch r.Errno {
		case kernel.EWOULDBLOCK:
			// Asleep. Traffic arrives in two bursts before the driver
			// gets to run — the second burst coalesces.
			if _, err := env.Dev.DeliverRX(8); err != nil {
				return err
			}
			if _, err := env.Dev.DeliverRX(8); err != nil {
				return err
			}
			wakeups++
			msg := k.PM.Thrd(env.DrvTid).IPC.Msg
			coalesced += msg.Regs[1]
			fmt.Fprintf(w, "round %d: woken by irq %d (%d interrupt(s) coalesced)\n",
				round, msg.Regs[0], msg.Regs[1])
		case kernel.OK:
			wakeups++
			coalesced += r.Vals[1]
			fmt.Fprintf(w, "round %d: consumed %d pending interrupt(s) without sleeping\n",
				round, r.Vals[1])
		default:
			return fmt.Errorf("irq_wait: %v", r.Errno)
		}
		n := env.Drv.RxBurst(32)
		for _, f := range env.Drv.Frames[:n] {
			if _, err := netproto.ParseUDP(f); err != nil {
				return fmt.Errorf("bad frame: %v", err)
			}
		}
		received += n
	}
	fmt.Fprintf(w, "\nreceived %d packets across %d wakeups (%d raw interrupts)\n",
		received, wakeups, coalesced)
	fmt.Fprintf(w, "driver thread %#x never polled an idle device: every wakeup had work\n",
		pm.Ptr(env.DrvTid))
	if env.Dev.Faults != 0 {
		return fmt.Errorf("%d DMA faults", env.Dev.Faults)
	}
	return nil
}
