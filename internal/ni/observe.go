package ni

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"atmosphere/internal/hw"
	"atmosphere/internal/kernel"
	"atmosphere/internal/pm"
)

// Observable state (§4.3): "the observable state of a container subtree
// C_B includes its memory quotas, address spaces, schedulers, endpoints,
// state of the processes, etc." Observe renders a domain's subtree into
// a canonical string; step consistency is string equality.
//
// Mapped page *contents* are included (as hashes): if a syscall from A
// could change bytes that B can read, SC must fail. Pages shared with V
// are the deliberate communication channel and are attributed to V, so
// they are excluded from a client's view exactly when V holds them.

// Observe builds the observable view of the container subtree rooted at
// cntr.
func Observe(k *kernel.Kernel, cntr pm.Ptr) string {
	var b strings.Builder
	cs := make([]pm.Ptr, 0, 8)
	for c := range k.PM.SubtreeOf(cntr) {
		cs = append(cs, c)
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i] < cs[j] })
	for _, c := range cs {
		cc := k.PM.Cntr(c)
		fmt.Fprintf(&b, "container %#x parent=%#x depth=%d quota=%d used=%d cpus=%v\n",
			c, cc.Parent, cc.Depth, cc.QuotaPages, cc.UsedPages, cc.CPUs)
		procs := make([]pm.Ptr, 0, len(cc.Procs))
		for p := range cc.Procs {
			procs = append(procs, p)
		}
		sort.Slice(procs, func(i, j int) bool { return procs[i] < procs[j] })
		for _, p := range procs {
			proc := k.PM.Proc(p)
			fmt.Fprintf(&b, " proc %#x parent=%#x iommu=%d\n", p, proc.Parent, proc.IOMMUDomain)
			space := proc.PageTable.AddressSpace()
			vas := make([]hw.VirtAddr, 0, len(space))
			for va := range space {
				vas = append(vas, va)
			}
			sort.Slice(vas, func(i, j int) bool { return vas[i] < vas[j] })
			for _, va := range vas {
				e := space[va]
				fmt.Fprintf(&b, "  map %#x -> %#x %v w=%v x=%v content=%x\n",
					va, e.Phys, e.Size, e.Perm.Write, e.Perm.Exec,
					pageHash(k, e.Phys, e.Size))
			}
			for _, th := range proc.Threads {
				t := k.PM.Thrd(th)
				fmt.Fprintf(&b, "  thread %#x state=%v core=%d wait=%#x regs=%v err=%v eps=",
					th, t.State, t.Core, t.IPC.WaitingOn, t.IPC.Msg.Regs, t.IPC.Err != nil)
				for i, e := range t.Endpoints {
					if e != pm.NoEndpoint {
						fmt.Fprintf(&b, "%d:%#x,", i, e)
					}
				}
				b.WriteByte('\n')
			}
		}
	}
	// Endpoints owned by the subtree: queue shapes are observable (a
	// thread can probe whether its send blocks).
	eps := make([]pm.Ptr, 0)
	sub := k.PM.SubtreeOf(cntr)
	for e, ep := range k.PM.EdptPerms {
		if _, owned := sub[ep.OwnerCntr]; owned {
			eps = append(eps, e)
		}
	}
	sort.Slice(eps, func(i, j int) bool { return eps[i] < eps[j] })
	for _, e := range eps {
		ep := k.PM.Edpt(e)
		fmt.Fprintf(&b, "endpoint %#x refs=%d recv=%v queue=%v\n",
			e, ep.RefCount, ep.QueuedRecv, ep.Queue)
	}
	return b.String()
}

// pageHash hashes a mapped page's contents, one frame at a time.
func pageHash(k *kernel.Kernel, phys hw.PhysAddr, size hw.PageSize) uint64 {
	h := fnv.New64a()
	n := size.Bytes()
	if n > hw.PageSize4K*4 {
		n = hw.PageSize4K * 4 // hash a superpage prefix; enough to catch writes
	}
	for off := uint64(0); off < n; off += hw.PageSize4K {
		h.Write(k.Machine.Mem.Read(phys+hw.PhysAddr(off), hw.PageSize4K))
	}
	return h.Sum64()
}

// ViewEqual compares two observable views and reports the first
// difference.
func ViewEqual(before, after string) (bool, string) {
	if before == after {
		return true, ""
	}
	bl, al := strings.Split(before, "\n"), strings.Split(after, "\n")
	for i := 0; i < len(bl) && i < len(al); i++ {
		if bl[i] != al[i] {
			return false, fmt.Sprintf("line %d:\n  before: %s\n  after:  %s", i, bl[i], al[i])
		}
	}
	return false, fmt.Sprintf("length %d vs %d lines", len(bl), len(al))
}
