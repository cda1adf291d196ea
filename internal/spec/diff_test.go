package spec

import (
	"fmt"
	"testing"

	"atmosphere/internal/hw"
	"atmosphere/internal/iommu"
	"atmosphere/internal/kernel"
	"atmosphere/internal/pm"
	"atmosphere/internal/pt"
)

// diffKernel is a warm kernel with something in every field Diff
// compares: a child container, a second process with a running thread
// and one blocked receiving, an endpoint with a buffered message and one
// with a queue, four mappings in init's process and one in the second's,
// and an IOMMU domain with one DMA mapping in each process.
type diffKernel struct {
	k                *kernel.Kernel
	root, child      Ptr // containers
	proc0, proc1     Ptr // init's process and its child
	init, run, recv  Ptr // threads: init, and proc1's runnable and blocked ones
	buffered, queued Ptr // endpoints
	dom0, dom1       iommu.DomainID
	frame, dmaFrame  hw.PhysAddr // the frames init maps at 0x401000 and dom1 pins at 0x800000
}

func bootDiffKernel(t *testing.T) diffKernel {
	t.Helper()
	k, init := boot(t)
	must := func(r kernel.Ret, want kernel.Errno) Ptr {
		t.Helper()
		if r.Errno != want {
			t.Fatalf("setup syscall returned %v, want %v", r.Errno, want)
		}
		if len(r.Vals) == 0 {
			return 0
		}
		return Ptr(r.Vals[0])
	}
	d := diffKernel{k: k, root: k.PM.RootContainer, init: init, proc0: k.PM.Thrd(init).OwningProc}
	d.child = must(k.SysNewContainer(0, init, 20, []int{0}), kernel.OK)
	d.proc1 = must(k.SysNewProcess(0, init), kernel.OK)
	d.run = must(k.SysNewThreadIn(0, init, d.proc1, 0), kernel.OK)
	d.recv = must(k.SysNewThreadIn(0, init, d.proc1, 1), kernel.OK)
	d.buffered = must(k.SysNewEndpoint(0, init, 1), kernel.OK)
	must(k.SysSendAsync(0, init, 1, kernel.SendArgs{}), kernel.OK)
	d.queued = must(k.SysNewEndpoint(0, init, 2), kernel.OK)
	k.PM.Thrd(d.recv).Endpoints[0] = d.queued
	k.PM.EndpointIncRef(d.queued, 1)
	must(k.SysRecv(1, d.recv, 0, kernel.RecvArgs{EdptSlot: -1}), kernel.EWOULDBLOCK)
	must(k.SysMmap(0, init, 0x400000, 4, hw.Size4K, pt.RW), kernel.OK)
	d.dom0 = iommu.DomainID(must(k.SysIommuCreateDomain(0, init), kernel.OK))
	must(k.SysIommuMap(0, init, 0x400000), kernel.OK)
	must(k.SysMmap(0, d.run, 0x800000, 1, hw.Size4K, pt.RW), kernel.OK)
	d.dom1 = iommu.DomainID(must(k.SysIommuCreateDomain(0, d.run), kernel.OK))
	must(k.SysIommuMap(0, d.run, 0x800000), kernel.OK)
	e, _ := k.PM.Proc(d.proc0).PageTable.Mapping(0x401000)
	d.frame = e.Phys
	e, _ = k.IOMMU.Domains()[d.dom1].Table.Mapping(0x800000)
	d.dmaFrame = e.Phys
	return d
}

// Diff reports every field it compares, an object missing on either
// side, and an address or DMA space that differs in a VA, a size, a
// permission or a frame, each with its own message. Where several keys diverge it
// reports the lowest, whatever order it ranges a map in, so each case
// is diffed repeatedly.
func TestDiffReportsEachField(t *testing.T) {
	d := bootDiffKernel(t)
	const fake = Ptr(0xdead000)
	e4K := pt.MapEntry{Size: hw.Size4K, Perm: pt.RW}
	type space = map[hw.VirtAddr]pt.MapEntry
	cntr := func(p Ptr, f func(*Container)) func(*State) {
		return func(s *State) { c := s.Containers[p]; f(&c); s.Containers[p] = c }
	}
	proc := func(p Ptr, f func(*Proc)) func(*State) {
		return func(s *State) { pr := s.Procs[p]; f(&pr); s.Procs[p] = pr }
	}
	thrd := func(p Ptr, f func(*Thread)) func(*State) {
		return func(s *State) { th := s.Threads[p]; f(&th); s.Threads[p] = th }
	}
	edpt := func(p Ptr, f func(*Endpoint)) func(*State) {
		return func(s *State) { e := s.Endpoints[p]; f(&e); s.Endpoints[p] = e }
	}
	root, child := d.root, d.child
	p0, p1 := d.proc0, d.proc1
	run, recv := d.run, d.recv
	buf, q := d.buffered, d.queued
	for _, tc := range []struct {
		name  string
		plant func(*State)
		want  string
	}{
		{"agreeing", func(*State) {}, ""},
		{"running folds to runnable", thrd(run, func(th *Thread) { th.State = pm.ThreadRunning }), ""},
		{"root container", func(s *State) { s.RootContainer = child },
			fmt.Sprintf("root container: kernel %#x, spec %#x", root, child)},

		{"container parent", cntr(child, func(c *Container) { c.Parent = fake }),
			fmt.Sprintf("container %#x: parent kernel=%#x spec=%#x", child, root, fake)},
		{"container depth", cntr(child, func(c *Container) { c.Depth = 2 }),
			fmt.Sprintf("container %#x: depth kernel=1 spec=2", child)},
		{"container quota", cntr(child, func(c *Container) { c.QuotaPages = 21 }),
			fmt.Sprintf("container %#x: quota_pages kernel=20 spec=21", child)},
		{"container used pages", cntr(child, func(c *Container) { c.UsedPages = 8 }),
			fmt.Sprintf("container %#x: used_pages kernel=1 spec=8", child)},
		{"container children", cntr(root, func(c *Container) { c.Children = nil }),
			fmt.Sprintf("container %#x: children kernel=[%d] spec=[]", root, child)},
		{"container path", cntr(child, func(c *Container) { c.Path = []Ptr{fake} }),
			fmt.Sprintf("container %#x: path kernel=[%d] spec=[%d]", child, root, fake)},
		{"container subtree", cntr(root, func(c *Container) { c.Subtree = map[Ptr]bool{fake: true} }),
			fmt.Sprintf("container %#x: subtree kernel=[%d] spec=[%d]", root, child, fake)},
		{"container cpus", cntr(child, func(c *Container) { c.CPUs = []int{0, 1} }),
			fmt.Sprintf("container %#x: cpus kernel=[0] spec=[0 1]", child)},
		{"container procs", cntr(child, func(c *Container) { c.Procs = map[Ptr]bool{p1: true} }),
			fmt.Sprintf("container %#x: procs kernel=[] spec=[%d]", child, p1)},
		{"container owned threads", cntr(child, func(c *Container) { c.OwnedThreads = map[Ptr]bool{run: true} }),
			fmt.Sprintf("container %#x: owned_threads kernel=[] spec=[%d]", child, run)},
		{"lowest diverging container", func(s *State) {
			cntr(root, func(c *Container) { c.Depth = 5 })(s)
			cntr(child, func(c *Container) { c.Depth = 5 })(s)
		}, fmt.Sprintf("container %#x: depth kernel=%d spec=5", min(root, child), d.k.PM.CntrPerms[min(root, child)].Depth)},
		{"container missing in kernel", func(s *State) { s.Containers[fake] = Container{} },
			fmt.Sprintf("container %#x: missing in kernel", fake)},
		{"container absent in spec", func(s *State) { delete(s.Containers, child) },
			fmt.Sprintf("container %#x: present in kernel, absent in spec", child)},

		{"proc owner", proc(p1, func(p *Proc) { p.Owner = child }),
			fmt.Sprintf("proc %#x: owner kernel=%#x spec=%#x", p1, root, child)},
		{"proc parent", proc(p1, func(p *Proc) { p.Parent = 0 }),
			fmt.Sprintf("proc %#x: parent kernel=%#x spec=0x0", p1, p0)},
		{"proc children", proc(p0, func(p *Proc) { p.Children = append(p.Children, fake) }),
			fmt.Sprintf("proc %#x: children kernel=[%d] spec=[%d %d]", p0, p1, p1, fake)},
		{"proc threads", proc(p1, func(p *Proc) { p.Threads = []Ptr{recv, run} }),
			fmt.Sprintf("proc %#x: threads kernel=[%d %d] spec=[%d %d]", p1, run, recv, recv, run)},
		{"proc iommu domain", proc(p1, func(p *Proc) { p.IOMMUDomain = d.dom0 }),
			fmt.Sprintf("proc %#x: iommu_domain kernel=%d spec=%d", p1, d.dom1, d.dom0)},
		{"proc missing in kernel", func(s *State) { s.Procs[fake] = Proc{} },
			fmt.Sprintf("proc %#x: missing in kernel", fake)},
		{"proc absent in spec", func(s *State) { delete(s.Procs, p1) },
			fmt.Sprintf("proc %#x: present in kernel, absent in spec", p1)},

		{"thread owning proc", thrd(run, func(th *Thread) { th.OwningProc = p0 }),
			fmt.Sprintf("thread %#x: owning_proc kernel=%#x spec=%#x", run, p1, p0)},
		{"thread owning container", thrd(run, func(th *Thread) { th.OwningCntr = child }),
			fmt.Sprintf("thread %#x: owning_cntr kernel=%#x spec=%#x", run, root, child)},
		{"thread state", thrd(recv, func(th *Thread) { th.State = pm.ThreadRunnable }),
			fmt.Sprintf("thread %#x: state kernel=blocked-recv spec=runnable", recv)},
		{"thread core", thrd(recv, func(th *Thread) { th.Core = 0 }),
			fmt.Sprintf("thread %#x: core kernel=1 spec=0", recv)},
		{"thread endpoints", thrd(recv, func(th *Thread) { th.Endpoints[0] = 0 }),
			fmt.Sprintf("thread %#x: endpoints kernel=%v spec=%v", recv,
				[pm.MaxEndpoints]Ptr{q}, [pm.MaxEndpoints]Ptr{})},
		{"thread waiting on", thrd(recv, func(th *Thread) { th.WaitingOn = buf }),
			fmt.Sprintf("thread %#x: waiting_on kernel=%#x spec=%#x", recv, q, buf)},
		{"thread missing in kernel", func(s *State) { s.Threads[fake] = Thread{} },
			fmt.Sprintf("thread %#x: missing in kernel", fake)},
		{"thread absent in spec", func(s *State) { delete(s.Threads, recv) },
			fmt.Sprintf("thread %#x: present in kernel, absent in spec", recv)},

		{"endpoint queue", edpt(q, func(e *Endpoint) { e.Queue = nil }),
			fmt.Sprintf("endpoint %#x: queue kernel=[%d] spec=[]", q, recv)},
		{"endpoint queued recv", edpt(q, func(e *Endpoint) { e.QueuedRecv = false }),
			fmt.Sprintf("endpoint %#x: queued_recv kernel=true spec=false", q)},
		{"endpoint refcount", edpt(buf, func(e *Endpoint) { e.RefCount = 2 }),
			fmt.Sprintf("endpoint %#x: refcount kernel=1 spec=2", buf)},
		{"endpoint owner", edpt(buf, func(e *Endpoint) { e.OwnerCntr = child }),
			fmt.Sprintf("endpoint %#x: owner_cntr kernel=%#x spec=%#x", buf, root, child)},
		{"endpoint buffered", edpt(buf, func(e *Endpoint) { e.Buffered = []BufMsg{{HasPage: true}} }),
			fmt.Sprintf("endpoint %#x: buffered kernel=[{false 4KiB {false false false}}] spec=[{true 4KiB {false false false}}]", buf)},
		{"endpoint missing in kernel", func(s *State) { s.Endpoints[fake] = Endpoint{} },
			fmt.Sprintf("endpoint %#x: missing in kernel", fake)},
		{"endpoint absent in spec", func(s *State) { delete(s.Endpoints, q) },
			fmt.Sprintf("endpoint %#x: present in kernel, absent in spec", q)},

		{"address space missing in kernel", func(s *State) { s.AddressSpaces[fake] = space{} },
			fmt.Sprintf("address space %#x: missing in kernel", fake)},
		{"address space absent in spec", func(s *State) { delete(s.AddressSpaces, p1) },
			fmt.Sprintf("address space %#x: present in kernel, absent in spec", p1)},
		{"spec-only VA", func(s *State) { s.AddressSpaces[p0][0x900000] = e4K },
			fmt.Sprintf("address space %#x: va 0x900000 mapped in spec, not in kernel", p0)},
		{"kernel-only VA", func(s *State) { delete(s.AddressSpaces[p0], 0x402000) },
			fmt.Sprintf("address space %#x: va 0x402000 mapped in kernel, not in spec", p0)},
		{"kernel-only VAs", func(s *State) {
			delete(s.AddressSpaces[p0], 0x403000)
			delete(s.AddressSpaces[p0], 0x401000)
		}, fmt.Sprintf("address space %#x: va 0x401000 mapped in kernel, not in spec", p0)},
		{"size mismatch", func(s *State) { s.AddressSpaces[p0][0x401000] = pt.MapEntry{Size: hw.Size2M, Perm: pt.RW} },
			fmt.Sprintf("address space %#x: va 0x401000 kernel=(4KiB,{true true false}) spec=(2MiB,{true true false})", p0)},
		{"perm mismatch", func(s *State) { s.AddressSpaces[p1][0x800000] = pt.MapEntry{Size: hw.Size4K, Perm: pt.RX} },
			fmt.Sprintf("address space %#x: va 0x800000 kernel=(4KiB,{true true false}) spec=(4KiB,{false true true})", p1)},
		{"frame mismatch", func(s *State) {
			e := s.AddressSpaces[p0][0x401000]
			e.Phys ^= 1 << 20
			s.AddressSpaces[p0][0x401000] = e
		}, fmt.Sprintf("address space %#x: va 0x401000 frame kernel=%#x spec=%#x", p0,
			uint64(d.frame), uint64(d.frame^1<<20))},
		{"equal-count swap", func(s *State) {
			delete(s.AddressSpaces[p0], 0x403000)
			s.AddressSpaces[p0][0x900000] = e4K
		}, fmt.Sprintf("address space %#x: va 0x900000 mapped in spec, not in kernel", p0)},

		{"DMA space missing in kernel", func(s *State) { s.DMASpaces[99] = space{} },
			"dma space 99: missing in kernel"},
		{"DMA space absent in spec", func(s *State) { delete(s.DMASpaces, d.dom1) },
			fmt.Sprintf("dma space %d: present in kernel, absent in spec", d.dom1)},
		{"kernel-only DMA domains", func(s *State) {
			delete(s.DMASpaces, d.dom1)
			delete(s.DMASpaces, d.dom0)
		}, fmt.Sprintf("dma space %d: present in kernel, absent in spec", min(d.dom0, d.dom1))},
		{"DMA frame mismatch", func(s *State) {
			e := s.DMASpaces[d.dom1][0x800000]
			e.Phys ^= 1 << 20
			s.DMASpaces[d.dom1][0x800000] = e
		}, fmt.Sprintf("dma space %d: va 0x800000 frame kernel=%#x spec=%#x", d.dom1,
			uint64(d.dmaFrame), uint64(d.dmaFrame^1<<20))},
		{"DMA space diverging", func(s *State) { delete(s.DMASpaces[d.dom1], 0x800000) },
			fmt.Sprintf("dma space %d: va 0x800000 mapped in kernel, not in spec", d.dom1)},
		{"diverging DMA domains", func(s *State) {
			s.DMASpaces[d.dom1][0x1000] = e4K
			s.DMASpaces[d.dom0][0x1000] = e4K
		}, fmt.Sprintf("dma space %d: va 0x1000 mapped in spec, not in kernel", min(d.dom0, d.dom1))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ip := NewInterp(d.k)
			tc.plant(&ip.St)
			for i := 0; i < 20; i++ {
				err := ip.Diff()
				if got := fmt.Sprint(err); err == nil && tc.want != "" || err != nil && got != tc.want {
					t.Fatalf("call %d: Diff = %v, want %q", i, err, tc.want)
				}
			}
		})
	}
}
