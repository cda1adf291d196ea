package mck

import (
	"fmt"

	"atmosphere/internal/hw"
	"atmosphere/internal/kernel"
	"atmosphere/internal/pm"
	"atmosphere/internal/pt"
	"atmosphere/internal/shmring"
	"atmosphere/internal/spec"
	"atmosphere/internal/verify"
)

// bop is one derived batch submission: an opcode plus the four argument
// words batchDispatch decodes.
type bop struct {
	op   uint8
	args [4]uint64
}

// batchVABase keeps derived batch mappings in a small window at the
// bottom of the generator's mmap region, so grants, maps, and unmaps
// within one batch (and across batches of the same run) collide often.
const (
	batchVAPages  = 32
	batchRecvBias = batchVAPages // recv landing window sits above the grant window
)

// deriveBops expands a KBatch op's packed seed into a deterministic
// submission sequence, written over buf's elements and returned, so a
// run reuses one buffer for all its batches. The derivation is a pure
// function of the seed — a replayed program re-derives the identical
// batch — and is weighted toward the IPC ops whose batched
// interleavings (grants mid-drain, blocking stops, buffered pops) are
// the interesting surface.
func deriveBops(seed uint64, buf []bop) []bop {
	r := hw.NewRand(seed)
	n := 1 + r.Intn(8)
	bops := buf[:0]
	grantVA := func() uint64 {
		if r.Intn(2) == 0 {
			return 0 // scalars only
		}
		va := uint64(mmapBase) + uint64(r.Intn(batchVAPages))*hw.PageSize4K
		if r.Intn(8) == 0 {
			va += uint64(r.Intn(int(hw.PageSize4K))) // sub-page probe
		}
		return va
	}
	slot := func() uint64 {
		if r.Intn(2) == 0 {
			return 0 // the shared rendezvous endpoint
		}
		return uint64(r.Intn(pm.MaxEndpoints + 2))
	}
	for i := 0; i < n; i++ {
		var b bop
		switch r.Intn(10) {
		case 0:
			b = bop{op: kernel.BopNop}
		case 1, 2:
			b = bop{op: kernel.BopMmap, args: [4]uint64{
				uint64(mmapBase) + uint64(r.Intn(batchVAPages))*hw.PageSize4K,
				uint64(1 + r.Intn(3))}}
		case 3:
			b = bop{op: kernel.BopMunmap, args: [4]uint64{
				uint64(mmapBase) + uint64(r.Intn(batchVAPages))*hw.PageSize4K,
				uint64(1 + r.Intn(3))}}
		case 4, 5:
			b = bop{op: kernel.BopSendAsync, args: [4]uint64{
				slot(), r.Uint64() & 0xffff, r.Uint64() & 0xffff, grantVA()}}
		case 6:
			b = bop{op: kernel.BopSend, args: [4]uint64{
				slot(), r.Uint64() & 0xffff, r.Uint64() & 0xffff, grantVA()}}
		case 7:
			b = bop{op: kernel.BopCall, args: [4]uint64{
				slot(), r.Uint64() & 0xffff, r.Uint64() & 0xffff, grantVA()}}
		case 8:
			b = bop{op: kernel.BopRecv, args: [4]uint64{
				slot(),
				uint64(mmapBase) + uint64(batchRecvBias+r.Intn(batchVAPages))*hw.PageSize4K,
				uint64(r.Intn(pm.MaxEndpoints + 2))}}
		case 9:
			b = bop{op: kernel.BopYield}
		}
		bops = append(bops, b)
	}
	return bops
}

// runBatch drives one KBatch op differentially: it encodes the derived
// submission sequence bops into scratch rings and rings them through the
// Checker's doorbell (SysBatchRings, the kernel-internal entry the model
// checker is documented to drive), which replays exactly the drained
// prefix — as reported by the posted CQEs — through the spec interpreter
// before comparing the kernel against Ψ′: Ψ after the batch must equal
// spec.Interp over the flattened op sequence, with each op's errno
// pinned by its CQE. The rings live in rings, two frames the run reuses
// for every batch: both are zeroed first, so each batch starts from the
// same empty rings.
func runBatch(c *verify.Checker, rings *hw.PhysMem, bops []bop, rc call) (kernel.Ret, error) {
	rings.ZeroPage(0)
	rings.ZeroPage(hw.PageSize4K)
	clk := &c.K.Machine.Core(rc.core).Clock
	sq := shmring.New(rings, clk, 0, shmring.SlotsPerPage())
	cq := shmring.New(rings, clk, hw.PageSize4K, shmring.SlotsPerPage())
	for i, b := range bops {
		if err := shmring.EncodeSQE(sq, b.op, 0, uint16(i), b.args[:]...); err != nil {
			return kernel.Ret{}, fmt.Errorf("batch encode %d: %v", i, err)
		}
	}
	return c.BatchRings(rc.core, rc.tid, sq, cq, 0, func(ip *spec.Interp, ret kernel.Ret) error {
		drained := int(ret.Vals[0])
		if drained > len(bops) {
			return fmt.Errorf("batch drained %d of %d submissions", drained, len(bops))
		}
		for i := 0; i < drained; i++ {
			cqe, err := shmring.PopCQE(cq)
			if err != nil {
				return fmt.Errorf("batch completion %d: %v", i, err)
			}
			if cqe.Token != uint16(i) || cqe.Op != bops[i].op {
				return fmt.Errorf("batch completion %d: token %d op %d, want %d/%d",
					i, cqe.Token, cqe.Op, i, bops[i].op)
			}
			bret := kernel.Ret{Errno: kernel.Errno(cqe.Errno), Vals: [4]uint64{cqe.Val}}
			if err := applyBop(ip, rc.core, rc.tid, bops[i], bret); err != nil {
				return fmt.Errorf("batch op %d (%d): %w", i, bops[i].op, err)
			}
		}
		if _, err := shmring.PopCQE(cq); err != shmring.ErrEmpty {
			return fmt.Errorf("batch posted more completions than Vals[0]=%d", drained)
		}
		return nil
	})
}

// applyBop applies one drained submission's specification, mirroring
// batchDispatch's argument decoding exactly: a send-family op grants
// the page at its fourth word unless that word is zero.
func applyBop(ip *spec.Interp, core int, tid pm.Ptr, b bop, ret kernel.Ret) error {
	send := kernel.SendArgs{GrantPage: b.args[3] != 0, PageVA: hw.VirtAddr(b.args[3])}
	switch b.op {
	case kernel.BopNop:
		if ret.Errno != kernel.OK {
			return fmt.Errorf("nop: errno %v", ret.Errno)
		}
		return nil
	case kernel.BopMmap:
		return ip.Mmap(core, tid, hw.VirtAddr(b.args[0]), int(b.args[1]), hw.Size4K, pt.RW, ret)
	case kernel.BopMunmap:
		return ip.Munmap(core, tid, hw.VirtAddr(b.args[0]), int(b.args[1]), hw.Size4K, ret)
	case kernel.BopSend:
		return ip.Send(core, tid, int(b.args[0]), send, ret)
	case kernel.BopSendAsync:
		return ip.SendAsync(core, tid, int(b.args[0]), send, ret)
	case kernel.BopCall:
		return ip.Call(core, tid, int(b.args[0]), send, ret)
	case kernel.BopRecv:
		return ip.Recv(core, tid, int(b.args[0]),
			kernel.RecvArgs{PageVA: hw.VirtAddr(b.args[1]), EdptSlot: int(b.args[2]) - 1}, ret)
	case kernel.BopYield:
		return ip.Yield(core, tid, ret)
	}
	return fmt.Errorf("unhandled bop %d", b.op)
}
