package mck

import (
	"fmt"

	"atmosphere/internal/hw"
	"atmosphere/internal/kernel"
	"atmosphere/internal/pm"
	"atmosphere/internal/shmring"
	"atmosphere/internal/spec"
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
// submission sequence bops into scratch rings, rings SysBatchRings
// directly (the kernel-internal doorbell the model checker is documented
// to drive), then replays exactly the drained prefix — as reported by
// the posted CQEs — through the spec interpreter. This is the batch
// oracle: Abstract(kernel) after the batch must equal spec.Interp over
// the flattened op sequence, with each op's errno pinned by its CQE. The
// rings live in rings, two frames the run reuses for every batch: both
// are zeroed first, so each batch starts from the same empty rings.
func runBatch(k *kernel.Kernel, ip *spec.Interp, rings *hw.PhysMem, bops []bop, c call) (kernel.Ret, error) {
	rings.ZeroPage(0)
	rings.ZeroPage(hw.PageSize4K)
	clk := &k.Machine.Core(c.core).Clock
	sq := shmring.New(rings, clk, 0, shmring.SlotsPerPage())
	cq := shmring.New(rings, clk, hw.PageSize4K, shmring.SlotsPerPage())
	for i, b := range bops {
		if err := shmring.EncodeSQE(sq, b.op, 0, uint16(i), b.args[:]...); err != nil {
			return kernel.Ret{}, fmt.Errorf("batch encode %d: %v", i, err)
		}
	}
	ret := k.SysBatchRings(c.core, c.tid, sq, cq, 0)
	drained := int(ret.Vals[0])
	if drained > len(bops) {
		return ret, fmt.Errorf("batch drained %d of %d submissions", drained, len(bops))
	}
	for i := 0; i < drained; i++ {
		cqe, err := shmring.PopCQE(cq)
		if err != nil {
			return ret, fmt.Errorf("batch completion %d: %v", i, err)
		}
		if cqe.Token != uint16(i) || cqe.Op != bops[i].op {
			return ret, fmt.Errorf("batch completion %d: token %d op %d, want %d/%d",
				i, cqe.Token, cqe.Op, i, bops[i].op)
		}
		bret := kernel.Ret{Errno: kernel.Errno(cqe.Errno), Vals: [4]uint64{cqe.Val}}
		if err := applyBop(ip, c.tid, bops[i], bret); err != nil {
			return ret, fmt.Errorf("batch op %d (%d): %w", i, bops[i].op, err)
		}
	}
	if _, err := shmring.PopCQE(cq); err != shmring.ErrEmpty {
		return ret, fmt.Errorf("batch posted more completions than Vals[0]=%d", drained)
	}
	return ret, nil
}

// applyBop applies one drained submission's specification, mirroring
// batchDispatch's argument decoding exactly.
func applyBop(ip *spec.Interp, tid pm.Ptr, b bop, ret kernel.Ret) error {
	switch b.op {
	case kernel.BopNop:
		if ret.Errno != kernel.OK {
			return fmt.Errorf("nop: errno %v", ret.Errno)
		}
		return nil
	case kernel.BopMmap:
		return ip.Mmap(tid, hw.VirtAddr(b.args[0]), int(b.args[1]), ret)
	case kernel.BopMunmap:
		return ip.Munmap(tid, hw.VirtAddr(b.args[0]), int(b.args[1]), ret)
	case kernel.BopSend:
		return ip.Send(tid, int(b.args[0]), false, 0, hw.VirtAddr(b.args[3]), ret)
	case kernel.BopSendAsync:
		return ip.SendAsync(tid, int(b.args[0]), hw.VirtAddr(b.args[3]), ret)
	case kernel.BopCall:
		return ip.Call(tid, int(b.args[0]), false, 0, hw.VirtAddr(b.args[3]), ret)
	case kernel.BopRecv:
		return ip.Recv(tid, int(b.args[0]), int(b.args[2])-1, hw.VirtAddr(b.args[1]), ret)
	case kernel.BopYield:
		return ip.Yield(tid, ret)
	}
	return fmt.Errorf("unhandled bop %d", b.op)
}
