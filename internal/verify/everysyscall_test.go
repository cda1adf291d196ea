package verify

import (
	"testing"

	"atmosphere/internal/hw"
	"atmosphere/internal/iommu"
	"atmosphere/internal/kernel"
	"atmosphere/internal/pm"
	"atmosphere/internal/pt"
)

// TestCheckedEverySyscall drives random traces through every Checker
// method, with arguments drawn from small ranges so that calls collide:
// superpages over table nodes, shares and grants at every size, IPC on
// shared endpoints, interrupt lines, DMA mappings and devices, and kills
// cut into installments. Each step must land where its spec step puts
// Ψ′, and TotalWF must hold throughout.
func TestCheckedEverySyscall(t *testing.T) {
	for seed := uint64(1); seed <= 24; seed++ {
		c, init, err := NewChecker(hw.Config{Frames: 8192, Cores: 2, TLBSlots: 64})
		if err != nil {
			t.Fatal(err)
		}
		r := hw.NewRand(seed)
		threads, procs, cntrs, eps := []pm.Ptr{init}, []pm.Ptr{c.K.PM.Thrd(init).OwningProc}, []pm.Ptr{}, []pm.Ptr{}
		pick := func(s []pm.Ptr) pm.Ptr {
			if len(s) == 0 {
				return 0
			}
			return s[r.Intn(len(s))]
		}
		va := func() hw.VirtAddr {
			switch r.Intn(4) {
			case 0:
				return hw.VirtAddr(r.Intn(2)) << 30 // 1 GiB aligned
			case 1:
				return 1<<30 + hw.VirtAddr(r.Intn(4))<<21 // 2 MiB aligned
			}
			return 1<<30 + hw.VirtAddr(r.Intn(24))<<12 + hw.VirtAddr(r.Intn(9)/8)*0x10 // 4 KiB, sometimes misaligned
		}
		// aligned is mostly a va aligned to sz, so maps and unmaps of
		// each size land.
		aligned := func(sz hw.PageSize) hw.VirtAddr {
			if r.Intn(4) == 0 {
				return va()
			}
			switch sz {
			case hw.Size1G:
				return hw.VirtAddr(r.Intn(3)) << 30
			case hw.Size2M:
				return 1<<30 + hw.VirtAddr(r.Intn(4))<<21
			}
			return 1<<30 + hw.VirtAddr(r.Intn(24))<<12
		}
		size := func() hw.PageSize {
			return [...]hw.PageSize{hw.Size4K, hw.Size4K, hw.Size4K, hw.Size2M, hw.Size1G}[r.Intn(5)]
		}
		send := func() kernel.SendArgs {
			a := kernel.SendArgs{Regs: [4]uint64{r.Uint64()}}
			switch r.Intn(4) {
			case 0:
				a.SendPage, a.PageVA = true, va()
			case 1:
				a.GrantPage, a.PageVA = true, va()
			case 2:
				a.SendEdpt, a.EdptSlot = true, r.Intn(pm.MaxEndpoints+1)-1
			}
			return a
		}
		recv := func() kernel.RecvArgs {
			return kernel.RecvArgs{PageVA: va(), EdptSlot: r.Intn(pm.MaxEndpoints+1) - 1}
		}
		for step := 0; step < 400; step++ {
			// Mostly a thread that can run, on its own core; now and then
			// any thread, on any core, to probe the refusals.
			var runnable []pm.Ptr
			for _, th := range threads {
				if t, ok := c.K.PM.TryThrd(th); ok && t.State != pm.ThreadBlockedSend && t.State != pm.ThreadBlockedRecv {
					runnable = append(runnable, th)
				}
			}
			tid, core := pick(runnable), r.Intn(2)
			if th, ok := c.K.PM.TryThrd(tid); ok && r.Intn(8) > 0 {
				core = th.Core
			} else {
				tid = pick(threads)
			}
			// Mostly a slot holding an endpoint.
			slot := r.Intn(4)
			if th, ok := c.K.PM.TryThrd(tid); ok && r.Intn(4) > 0 {
				for i, e := range th.Endpoints[:4] {
					if e != pm.NoEndpoint && r.Intn(2) == 0 {
						slot = i
					}
				}
			}
			var ret kernel.Ret
			var err error
			switch r.Intn(28) {
			case 0, 1:
				sz := size()
				ret, err = c.Mmap(core, tid, aligned(sz), r.Intn(4)+r.Intn(2), sz, [...]pt.Perm{pt.RW, pt.RX}[r.Intn(2)])
			case 2:
				sz := size()
				ret, err = c.Munmap(core, tid, aligned(sz), 1+r.Intn(2), sz)
			case 3:
				ret, err = c.NewContainer(core, tid, uint64(r.Intn(300)), []int{r.Intn(3)})
				if err == nil && ret.Errno == kernel.OK {
					cntrs = append(cntrs, pm.Ptr(ret.Vals[0]))
				}
			case 4:
				ret, err = c.NewProcess(core, tid)
				if err == nil && ret.Errno == kernel.OK {
					procs = append(procs, pm.Ptr(ret.Vals[0]))
				}
			case 5:
				ret, err = c.NewProcessIn(core, tid, pick(cntrs))
				if err == nil && ret.Errno == kernel.OK {
					procs = append(procs, pm.Ptr(ret.Vals[0]))
				}
			case 6:
				ret, err = c.NewThread(core, tid, r.Intn(3))
				if err == nil && ret.Errno == kernel.OK {
					threads = append(threads, pm.Ptr(ret.Vals[0]))
				}
			case 7:
				ret, err = c.NewThreadIn(core, tid, pick(procs), r.Intn(2))
				if err == nil && ret.Errno == kernel.OK {
					threads = append(threads, pm.Ptr(ret.Vals[0]))
				}
			case 8:
				ret, err = c.NewEndpoint(core, tid, slot)
				if err == nil && ret.Errno == kernel.OK {
					eps = append(eps, pm.Ptr(ret.Vals[0]))
				}
			case 9:
				err = c.InstallEndpoint(tid, slot, pick(eps))
			case 10:
				ret, err = c.CloseEndpoint(core, tid, slot)
			case 11:
				ret, err = c.Send(core, tid, slot, send())
			case 12:
				ret, err = c.SendAsync(core, tid, slot, send())
			case 13:
				ret, err = c.Recv(core, tid, slot, recv())
			case 14:
				ret, err = c.Call(core, tid, slot, send())
			case 15:
				ret, err = c.Reply(core, tid, slot, send())
			case 16:
				ret, err = c.ReplyRecv(core, tid, slot, send(), recv())
			case 17:
				if tid != init && r.Intn(4) == 0 {
					ret, err = c.ExitThread(core, tid)
				}
			case 18:
				ret, err = c.KillProcess(core, tid, pick(procs))
			case 19:
				ret, err = c.KillContainer(core, tid, pick(cntrs))
			case 20:
				ret, err = c.KillContainerBounded(core, tid, pick(cntrs), r.Intn(4))
			case 21:
				ret, err = c.IrqRegister(core, tid, r.Intn(3), slot)
			case 22:
				ret, err = c.IrqUnregister(core, tid, r.Intn(3))
			case 23:
				ret, err = c.IrqWait(core, tid, r.Intn(3))
			case 24:
				err = c.RaiseIRQ(core, r.Intn(3))
			case 25:
				ret, err = c.IommuCreateDomain(core, tid)
			case 26:
				if r.Intn(2) == 0 {
					ret, err = c.IommuMap(core, tid, va())
				} else {
					ret, err = c.IommuUnmap(core, tid, va())
				}
			case 27:
				if r.Intn(2) == 0 {
					ret, err = c.IommuAttach(core, tid, iommu.DeviceID(r.Intn(3)))
				} else {
					ret, err = c.Yield(core, tid)
				}
			}
			if err != nil {
				t.Fatalf("seed %d step %d: %v (ret %v)", seed, step, err, ret.Errno)
			}

		}
	}
}
