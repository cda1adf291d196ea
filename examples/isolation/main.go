// Isolation: the paper's running example (§4.3) — two mutually
// distrusting containers A and B, completely isolated by the kernel,
// each talking to a verified shared service V over dedicated endpoints.
// The example exchanges requests through V, then kills A mid-transaction
// and shows that V releases everything it received and B is unaffected.
package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log"
	"os"

	"atmosphere/internal/hw"
	"atmosphere/internal/kernel"
	"atmosphere/internal/ni"
	"atmosphere/internal/pt"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run plays the A/B/V scenario and narrates it to w.
func run(w io.Writer) error {
	s, err := ni.Build(2, true)
	if err != nil {
		return err
	}
	v := ni.NewService(s)
	k := s.K
	a, b := s.Clients[0], s.Clients[1]
	const slotAV = 0 // client i's channel to V is descriptor slot i
	fmt.Fprintf(w, "A=%#x B=%#x V=%#x (cores 1, 2, 3; dedicated endpoints A-V and B-V)\n", a.Cntr, b.Cntr, s.V.Cntr)

	// A asks V to increment a number through a shared page.
	if err := v.Step(); err != nil { // V waits on A's channel
		return err
	}
	if r := k.SysMmap(a.Core, a.Thread, 0x40000, 1, hw.Size4K, pt.RW); r.Errno != kernel.OK {
		return fmt.Errorf("A mmap: %v", r.Errno)
	}
	tableA := k.PM.Proc(a.Proc).PageTable
	var req [8]byte
	binary.LittleEndian.PutUint64(req[:], 41)
	k.Machine.MMU.Store(tableA.CR3(), 0x40000, req[:])
	if r := k.SysCall(a.Core, a.Thread, slotAV, kernel.SendArgs{Regs: [4]uint64{7}, SendPage: true, PageVA: 0x40000}); r.Errno != kernel.EWOULDBLOCK {
		return fmt.Errorf("A call: %v", r.Errno)
	}
	if err := v.Step(); err != nil { // V handles, replies, releases
		return err
	}
	resp, _ := k.Machine.MMU.Load(tableA.CR3(), 0x40008, 8)
	fmt.Fprintf(w, "A sent 41, V wrote back %d into the shared page; reply regs %v\n",
		binary.LittleEndian.Uint64(resp), k.PM.Thrd(a.Thread).IPC.Msg.Regs[:2])

	// Isolation invariants hold throughout.
	if err := s.CheckIsolation(); err != nil {
		return err
	}
	fmt.Fprintln(w, "memory_iso and endpoint_iso: OK (A and B share nothing)")

	// B's observable state is untouched by the entire A<->V exchange.
	obsB := ni.Observe(k, b.Cntr)

	// A dies mid-transaction: it calls V with a page, then is killed
	// before V handles the request. V first waits on B's channel, then
	// on A's again.
	for i := 0; i < 2; i++ {
		if err := v.Step(); err != nil {
			return err
		}
	}
	if r := k.SysMmap(a.Core, a.Thread, 0x50000, 1, hw.Size4K, pt.RW); r.Errno != kernel.OK {
		return fmt.Errorf("A mmap2: %v", r.Errno)
	}
	if r := k.SysCall(a.Core, a.Thread, slotAV, kernel.SendArgs{SendPage: true, PageVA: 0x50000}); r.Errno != kernel.EWOULDBLOCK {
		return fmt.Errorf("A call2: %v", r.Errno)
	}
	if r := k.SysKillContainer(0, s.Init, a.Cntr); r.Errno != kernel.OK {
		return fmt.Errorf("kill A: %v", r.Errno)
	}
	fmt.Fprintln(w, "killed container A mid-transaction")
	if err := v.Step(); err != nil { // V handles the orphaned request and releases the page
		return err
	}
	if err := v.CheckCorrectness(); err != nil {
		return err
	}
	fmt.Fprintf(w, "V released the dead client's page (released=%d) and returned to baseline\n", v.Released)

	if after := ni.Observe(k, b.Cntr); after != obsB {
		return errors.New("B's observable state changed — non-interference violated")
	}
	fmt.Fprintln(w, "B's observable state is bit-identical through all of A's activity and death")
	return nil
}
