package kernel

import (
	"atmosphere/internal/hw"
	"atmosphere/internal/pm"
	"atmosphere/internal/pt"
	"atmosphere/internal/shmring"
)

// Syscall batching (ROADMAP item 3): io_uring-style submission and
// completion rings. A thread encodes N syscalls as SQE frames into a
// submission ring, rings one doorbell (SysBatch), and the kernel pays
// the entry/dispatch/exit trampoline ONCE for the whole batch. Each
// drained op still resolves and acquires its own lock plan (shard.go)
// — batching amortizes the crossing, not the serialization — and posts
// its result as one CQE. While a core drains a batch, its flag in
// Kernel.batchCore makes the funnel price each inner op at
// CostBatchDispatch + CostBigLock with no exit cost.
//
// A drain stops early, leaving the remaining frames queued for the
// next doorbell, when:
//   - the submission ring is empty (a stale doorbell is not an error)
//     or ends in a truncated frame (the producer is mid-encode);
//   - the completion ring is full (backpressure: an op never runs if
//     its completion cannot post);
//   - an op blocked, killed, or froze the caller (a blocked thread
//     cannot execute user code, so it cannot drain its own ring);
//   - max ops were drained.
//
// A malformed header aborts the batch with EINVAL after consuming the
// bad header. In every case Vals[0] reports how many ops completed.

// Batch opcodes (SQE.Op).
const (
	// BopNop dispatches and completes without touching kernel state —
	// the pure measure of amortized per-op crossing cost.
	BopNop = iota
	// BopMmap: args[0]=va, args[1]=count. Maps count fresh 4 KiB RW
	// pages at va (the batched hot path; superpages take the slow path).
	BopMmap
	// BopMunmap: args[0]=va, args[1]=count (4 KiB granularity).
	BopMunmap
	// BopSend: args[0]=slot, args[1..2]=regs 0..1, args[3]=grant va
	// (0 = scalars only; nonzero grants the page mapped there),
	// args[4..5]=regs 2..3 — the full native 4-register payload. May
	// block the caller, stopping the drain.
	BopSend
	// BopSendAsync: same coding as BopSend; never blocks (EAGAIN on a
	// full endpoint buffer).
	BopSendAsync
	// BopCall: same coding as BopSend; requires a parked server and
	// blocks the caller for the reply, stopping the drain.
	BopCall
	// BopRecv: args[0]=slot, args[1]=recv va for an incoming page,
	// args[2]=edpt slot + 1 (0 = first free). Blocks when nothing is
	// buffered or queued, stopping the drain.
	BopRecv
	// BopYield rotates the caller's core.
	BopYield
)

// maxBatch caps one doorbell's drain; the remaining frames stay queued.
const maxBatch = 4096

// SysBatch is the doorbell: sqVA and cqVA name the submission and
// completion ring pages in the caller's address space. The rings are
// ordinary shmring pages, so producer state (head/tail) lives in shared
// memory and partial batches survive across doorbells.
func (k *Kernel) SysBatch(core int, tid pm.Ptr, sqVA, cqVA hw.VirtAddr, max int) Ret {
	cclk := &k.Machine.Core(core).Clock
	sqPhys, sok := k.ringPage(tid, sqVA)
	cqPhys, cok := k.ringPage(tid, cqVA)
	if !sok || !cok || sqPhys == cqPhys {
		cclk.Charge(hw.CostSyscallEntry + hw.CostSyscallDispatch + hw.CostSyscallExit)
		return k.postBatch(tid, fail(EINVAL))
	}
	sq := shmring.New(k.Machine.Mem, cclk, sqPhys, shmring.SlotsPerPage())
	cq := shmring.New(k.Machine.Mem, cclk, cqPhys, shmring.SlotsPerPage())
	return k.SysBatchRings(core, tid, sq, cq, max)
}

// ringPage resolves one ring page: a page-aligned va mapped in the
// caller's address space at 4 KiB granularity.
func (k *Kernel) ringPage(tid pm.Ptr, va hw.VirtAddr) (hw.PhysAddr, bool) {
	k.big.Lock()
	defer k.big.Unlock()
	t, okk := k.PM.TryThrd(tid)
	if !okk || va&hw.VirtAddr(hw.PageSize4K-1) != 0 {
		return 0, false
	}
	e, covered := k.PM.Proc(t.OwningProc).PageTable.Lookup(va)
	if !covered || e.Size != hw.Size4K {
		return 0, false
	}
	return e.Phys, true
}

// SysBatchRings drains up to max submissions from sq, posting one CQE
// per op to cq. It is the kernel-internal entry SysBatch delegates to;
// the model checker drives it directly over scratch rings. Vals[0] is
// the number of ops drained.
func (k *Kernel) SysBatchRings(core int, tid pm.Ptr, sq, cq *shmring.Ring, max int) Ret {
	cclk := &k.Machine.Core(core).Clock
	// The whole batch pays the trampoline once.
	cclk.Charge(hw.CostSyscallEntry + hw.CostSyscallDispatch + hw.CostBigLock)
	if !k.batchBegin(core, tid) {
		cclk.Charge(hw.CostSyscallExit)
		return k.postBatch(tid, fail(EINVAL))
	}
	if max <= 0 || max > maxBatch {
		max = maxBatch
	}
	drained := 0
	status := OK
	for drained < max {
		if !k.batchCallerRunnable(tid) {
			break // the previous op blocked/killed/froze the caller
		}
		if cq.Cap()-cq.Len() < 1 {
			break // completion backpressure
		}
		sqe, derr := shmring.DecodeSQE(sq)
		if derr != nil {
			if derr == shmring.ErrMalformed {
				status = EINVAL
			}
			break // empty, truncated, or malformed: stop draining
		}
		ret := k.batchDispatch(core, tid, sqe)
		cqe := shmring.CQE{Op: sqe.Op, Errno: uint8(ret.Errno), Token: sqe.Token, Val: ret.Vals[0]}
		if err := shmring.PushCQE(cq, cqe); err != nil {
			panic(err) // free space checked above
		}
		drained++
	}
	cclk.Charge(hw.CostSyscallExit)
	return k.batchEnd(core, tid, Ret{Errno: status, Vals: [4]uint64{uint64(drained)}})
}

// batchDispatch decodes one submission into the corresponding syscall.
// Each op goes through the normal funnel (with the trampoline
// suppressed by the batch flag), so lock plans, contention charging,
// observability, and the verifier's PostSyscall hook all see it as an
// ordinary syscall.
func (k *Kernel) batchDispatch(core int, tid pm.Ptr, s shmring.SQE) Ret {
	switch s.Op {
	case BopNop:
		k.Machine.Core(core).Clock.Charge(hw.CostBatchDispatch)
		return ok()
	case BopMmap:
		return k.SysMmap(core, tid, hw.VirtAddr(s.Args[0]), int(s.Args[1]), hw.Size4K, pt.RW)
	case BopMunmap:
		return k.SysMunmap(core, tid, hw.VirtAddr(s.Args[0]), int(s.Args[1]), hw.Size4K)
	case BopSend, BopSendAsync, BopCall:
		args := SendArgs{Regs: [4]uint64{s.Args[1], s.Args[2], s.Args[4], s.Args[5]}}
		if va := hw.VirtAddr(s.Args[3]); va != 0 {
			args.GrantPage = true
			args.PageVA = va
		}
		slot := int(s.Args[0])
		switch s.Op {
		case BopSend:
			return k.SysSend(core, tid, slot, args)
		case BopSendAsync:
			return k.SysSendAsync(core, tid, slot, args)
		default:
			return k.SysCall(core, tid, slot, args)
		}
	case BopRecv:
		return k.SysRecv(core, tid, int(s.Args[0]),
			RecvArgs{PageVA: hw.VirtAddr(s.Args[1]), EdptSlot: int(s.Args[2]) - 1})
	case BopYield:
		return k.SysYield(core, tid)
	default:
		return fail(EINVAL)
	}
}

// batchBegin validates the caller and raises the core's batch flag. The
// batch wrapper is not a funnel entry, so it resolves no caller; each
// drained op sets its own attribution.
func (k *Kernel) batchBegin(core int, tid pm.Ptr) bool {
	k.big.Lock()
	defer k.big.Unlock()
	if core < 0 || core >= len(k.batchCore) || k.batchCore[core] {
		return false
	}
	if _, okk := k.runnable(tid); !okk {
		return false
	}
	k.batchCore[core] = true
	return true
}

// batchCallerRunnable reports whether the caller can still drain its
// ring: alive, not blocked by a previous op, not frozen by a kill.
func (k *Kernel) batchCallerRunnable(tid pm.Ptr) bool {
	k.big.Lock()
	defer k.big.Unlock()
	_, okk := k.runnable(tid)
	return okk
}

// batchEnd lowers the core's batch flag and posts the batch result.
func (k *Kernel) batchEnd(core int, tid pm.Ptr, ret Ret) Ret {
	k.big.Lock()
	defer k.big.Unlock()
	k.batchCore[core] = false
	return k.post("batch", tid, ret)
}

// postBatch posts a batch result without a raised flag (refused entry).
func (k *Kernel) postBatch(tid pm.Ptr, ret Ret) Ret {
	k.big.Lock()
	defer k.big.Unlock()
	return k.post("batch", tid, ret)
}
