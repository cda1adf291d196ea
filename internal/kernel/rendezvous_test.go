package kernel

import (
	"testing"

	"atmosphere/internal/pm"
)

// TestRendezvousShapes pins every endpoint rendezvous shape: the
// invoking call's errno and Vals, the cycles it charges the invoking
// core, and both threads' states afterwards. a (init) invokes every
// measured call; b is its partner. Both live on core 0 of ipcPair's
// kernel, so a wake lands on the invoking core's run queue and
// call/reply switch directly.
func TestRendezvousShapes(t *testing.T) {
	regs := [4]uint64{1, 2, 3, 4}
	send := SendArgs{Regs: regs}
	recv := RecvArgs{EdptSlot: -1}
	// serving parks a in recv and lets b call it: a runs holding b's
	// request, b waits for the reply.
	serving := func(t *testing.T, k *Kernel, a, b pm.Ptr) {
		k.SysRecv(0, a, 0, recv)
		k.SysCall(0, b, 0, SendArgs{Regs: [4]uint64{9}})
	}
	bound := func(t *testing.T, k *Kernel, a, b pm.Ptr) {
		mustOK(t, k.SysIrqRegister(0, a, 9, 0))
	}
	const (
		running  = pm.ThreadRunning
		runnable = pm.ThreadRunnable
		sendWait = pm.ThreadBlockedSend
		recvWait = pm.ThreadBlockedRecv
	)
	cases := []struct {
		name   string
		prep   func(t *testing.T, k *Kernel, a, b pm.Ptr)
		do     func(k *Kernel, a pm.Ptr) Ret
		errno  Errno
		vals   [4]uint64
		cycles uint64
		a, b   pm.ThreadState
	}{
		{name: "send/parked receiver",
			prep:  func(t *testing.T, k *Kernel, a, b pm.Ptr) { k.SysRecv(0, b, 0, recv) },
			do:    func(k *Kernel, a pm.Ptr) Ret { return k.SysSend(0, a, 0, send) },
			errno: OK, cycles: 572, a: running, b: runnable},
		{name: "send/blocks",
			do:    func(k *Kernel, a pm.Ptr) Ret { return k.SysSend(0, a, 0, send) },
			errno: EWOULDBLOCK, cycles: 632, a: sendWait, b: running},
		{name: "send_async/parked receiver",
			prep:  func(t *testing.T, k *Kernel, a, b pm.Ptr) { k.SysRecv(0, b, 0, recv) },
			do:    func(k *Kernel, a pm.Ptr) Ret { return k.SysSendAsync(0, a, 0, send) },
			errno: OK, cycles: 572, a: running, b: runnable},
		{name: "send_async/buffered",
			do:    func(k *Kernel, a pm.Ptr) Ret { return k.SysSendAsync(0, a, 0, send) },
			errno: OK, cycles: 494, a: running, b: runnable},
		{name: "send_async/buffer full",
			prep: func(t *testing.T, k *Kernel, a, b pm.Ptr) {
				for i := 0; i < pm.MaxEndpointBuffer; i++ {
					mustOK(t, k.SysSendAsync(0, a, 0, send))
				}
			},
			do:    func(k *Kernel, a pm.Ptr) Ret { return k.SysSendAsync(0, a, 0, send) },
			errno: EAGAIN, cycles: 414, a: running, b: runnable},
		{name: "recv/buffered",
			prep:  func(t *testing.T, k *Kernel, a, b pm.Ptr) { mustOK(t, k.SysSendAsync(0, b, 0, send)) },
			do:    func(k *Kernel, a pm.Ptr) Ret { return k.SysRecv(0, a, 0, recv) },
			errno: OK, cycles: 644, vals: regs, a: running, b: runnable},
		{name: "recv/queued sender",
			prep:  func(t *testing.T, k *Kernel, a, b pm.Ptr) { k.SysSend(0, b, 0, send) },
			do:    func(k *Kernel, a pm.Ptr) Ret { return k.SysRecv(0, a, 0, recv) },
			errno: OK, cycles: 572, vals: regs, a: running, b: runnable},
		{name: "recv/blocks",
			do:    func(k *Kernel, a pm.Ptr) Ret { return k.SysRecv(0, a, 0, recv) },
			errno: EWOULDBLOCK, cycles: 632, a: recvWait, b: running},
		{name: "call",
			prep:  func(t *testing.T, k *Kernel, a, b pm.Ptr) { k.SysRecv(0, b, 0, recv) },
			do:    func(k *Kernel, a pm.Ptr) Ret { return k.SysCall(0, a, 0, send) },
			errno: EWOULDBLOCK, cycles: 530, a: recvWait, b: running},
		{name: "reply",
			prep:  serving,
			do:    func(k *Kernel, a pm.Ptr) Ret { return k.SysReply(0, a, 0, send) },
			errno: OK, cycles: 530, a: runnable, b: running},
		{name: "reply_recv/blocks",
			prep:  serving,
			do:    func(k *Kernel, a pm.Ptr) Ret { return k.SysReplyRecv(0, a, 0, send, recv) },
			errno: EWOULDBLOCK, cycles: 530, a: recvWait, b: running},
		{name: "reply_recv/queued sender",
			prep:  func(t *testing.T, k *Kernel, a, b pm.Ptr) { k.SysSend(0, b, 0, send) },
			do:    func(k *Kernel, a pm.Ptr) Ret { return k.SysReplyRecv(0, a, 0, SendArgs{}, recv) },
			errno: OK, cycles: 272, vals: regs, a: running, b: runnable},
		{name: "reply_recv/buffered",
			prep:  func(t *testing.T, k *Kernel, a, b pm.Ptr) { mustOK(t, k.SysSendAsync(0, b, 0, send)) },
			do:    func(k *Kernel, a pm.Ptr) Ret { return k.SysReplyRecv(0, a, 0, SendArgs{}, recv) },
			errno: OK, cycles: 344, vals: regs, a: running, b: runnable},
		{name: "irq_wait/blocks",
			prep:  bound,
			do:    func(k *Kernel, a pm.Ptr) Ret { return k.SysIrqWait(0, a, 9) },
			errno: EWOULDBLOCK, cycles: 632, a: recvWait, b: running},
		// RaiseIRQ returns nothing; its row's Vals are the message the
		// woken handler holds.
		{name: "RaiseIRQ/wakes handler",
			prep: func(t *testing.T, k *Kernel, a, b pm.Ptr) {
				bound(t, k, a, b)
				k.SysIrqWait(0, a, 9)
			},
			do: func(k *Kernel, a pm.Ptr) Ret {
				k.RaiseIRQ(0, 9)
				return ok(k.PM.Thrd(a).IPC.Msg.Regs[:]...)
			},
			errno: OK, cycles: 608, vals: [4]uint64{9, 1}, a: runnable, b: running},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			k, a, b := ipcPair(t)
			if c.prep != nil {
				c.prep(t, k, a, b)
			}
			clk := &k.Machine.Core(0).Clock
			before := clk.Cycles()
			r := c.do(k, a)
			if got := clk.Cycles() - before; got != c.cycles {
				t.Errorf("core 0 charged %d cycles, want %d", got, c.cycles)
			}
			if r.Errno != c.errno || r.Vals != c.vals {
				t.Errorf("ret = %v %v, want %v %v", r.Errno, r.Vals, c.errno, c.vals)
			}
			if s := k.PM.Thrd(a).State; s != c.a {
				t.Errorf("a is %v, want %v", s, c.a)
			}
			if s := k.PM.Thrd(b).State; s != c.b {
				t.Errorf("b is %v, want %v", s, c.b)
			}
		})
	}
}
