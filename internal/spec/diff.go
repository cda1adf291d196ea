package spec

import (
	"cmp"
	"fmt"

	"atmosphere/internal/hw"
	"atmosphere/internal/iommu"
	"atmosphere/internal/pm"
	"atmosphere/internal/pt"
)

// The differential check every spec step ends with.

// normState folds the scheduler's Runnable/Running distinction, which is
// below the specification's abstraction line (PickNext is not specified).
func normState(s pm.ThreadState) pm.ThreadState {
	if s == pm.ThreadRunning {
		return pm.ThreadRunnable
	}
	return s
}

// Diff compares the concrete kernel against the interpreter's Ψ′ and
// reports the first field-level divergence in a deterministic order:
// object kind by kind, lowest key first. It reads the kernel in place,
// through the same abstraction function as LoadObjects, one object at a
// time. The allocator and the Runnable/Running distinction are outside
// the comparison — they are below the specification; the frames of
// address and DMA spaces are inside it.
func (ip *Interp) Diff() error {
	p, s := ip.k.PM, &ip.St
	if p.RootContainer != s.RootContainer {
		return fmt.Errorf("root container: kernel %#x, spec %#x", p.RootContainer, s.RootContainer)
	}
	if err := lowest(s.Containers, func(ptr Ptr, sc Container) error {
		c, ok := p.CntrPerms[ptr]
		if !ok {
			return fmt.Errorf("container %#x: missing in kernel", ptr)
		}
		return diffContainer(ptr, c, sc)
	}); err != nil {
		return err
	}
	if err := kernelOnly(p.CntrPerms, s.Containers, "container %#x: present in kernel, absent in spec"); err != nil {
		return err
	}
	if err := lowest(s.Procs, func(ptr Ptr, sp Proc) error {
		pr, ok := p.ProcPerms[ptr]
		if !ok {
			return fmt.Errorf("proc %#x: missing in kernel", ptr)
		}
		loadProc(&ip.kp, pr)
		return diffProc(ptr, ip.kp, sp)
	}); err != nil {
		return err
	}
	if err := kernelOnly(p.ProcPerms, s.Procs, "proc %#x: present in kernel, absent in spec"); err != nil {
		return err
	}
	if err := lowest(s.Threads, func(ptr Ptr, st Thread) error {
		t, ok := p.ThrdPerms[ptr]
		if !ok {
			return fmt.Errorf("thread %#x: missing in kernel", ptr)
		}
		return diffThread(ptr, loadThread(t), st)
	}); err != nil {
		return err
	}
	if err := kernelOnly(p.ThrdPerms, s.Threads, "thread %#x: present in kernel, absent in spec"); err != nil {
		return err
	}
	if err := lowest(s.Endpoints, func(ptr Ptr, se Endpoint) error {
		e, ok := p.EdptPerms[ptr]
		if !ok {
			return fmt.Errorf("endpoint %#x: missing in kernel", ptr)
		}
		loadEndpoint(&ip.ke, e)
		return diffEndpoint(ptr, ip.ke, se)
	}); err != nil {
		return err
	}
	if err := kernelOnly(p.EdptPerms, s.Endpoints, "endpoint %#x: present in kernel, absent in spec"); err != nil {
		return err
	}
	if err := lowest(s.AddressSpaces, func(ptr Ptr, sas map[hw.VirtAddr]pt.MapEntry) error {
		pr, ok := p.ProcPerms[ptr]
		if !ok {
			return fmt.Errorf("address space %#x: missing in kernel", ptr)
		}
		if err := diffSpace(pr.PageTable, sas); err != nil {
			return fmt.Errorf("address space %#x: %w", ptr, err)
		}
		return nil
	}); err != nil {
		return err
	}
	if err := kernelOnly(p.ProcPerms, s.AddressSpaces, "address space %#x: present in kernel, absent in spec"); err != nil {
		return err
	}
	domains := ip.k.IOMMU.Domains()
	if err := lowest(s.DMASpaces, func(id iommu.DomainID, sd map[hw.VirtAddr]pt.MapEntry) error {
		d, ok := domains[id]
		if !ok {
			return fmt.Errorf("dma space %d: missing in kernel", id)
		}
		if err := diffSpace(d.Table, sd); err != nil {
			return fmt.Errorf("dma space %d: %w", id, err)
		}
		return nil
	}); err != nil {
		return err
	}
	return kernelOnly(domains, s.DMASpaces, "dma space %d: present in kernel, absent in spec")
}

// The field checks of Diff, one per object kind: each reports the first
// field of the kernel's abstract object k that differs from the spec's s.

// diffContainer reads the kernel container in place: its sets are
// compared with the spec's without being loaded, and sorted only to
// format a divergence.
func diffContainer(p Ptr, k *pm.Container, s Container) error {
	switch {
	case k.Parent != s.Parent:
		return fmt.Errorf("container %#x: parent kernel=%#x spec=%#x", p, k.Parent, s.Parent)
	case k.Depth != s.Depth:
		return fmt.Errorf("container %#x: depth kernel=%d spec=%d", p, k.Depth, s.Depth)
	case k.QuotaPages != s.QuotaPages:
		return fmt.Errorf("container %#x: quota_pages kernel=%d spec=%d", p, k.QuotaPages, s.QuotaPages)
	case k.UsedPages != s.UsedPages:
		return fmt.Errorf("container %#x: used_pages kernel=%d spec=%d", p, k.UsedPages, s.UsedPages)
	case !ptrsEqual(k.Children, s.Children):
		return fmt.Errorf("container %#x: children kernel=%v spec=%v", p, k.Children, s.Children)
	case !ptrsEqual(k.Path, s.Path):
		return fmt.Errorf("container %#x: path kernel=%v spec=%v", p, k.Path, s.Path)
	case !setsEqual(k.Subtree, s.Subtree):
		return fmt.Errorf("container %#x: subtree kernel=%v spec=%v", p, SortedPtrs(k.Subtree), SortedPtrs(s.Subtree))
	case !intsEqual(k.CPUs, s.CPUs):
		return fmt.Errorf("container %#x: cpus kernel=%v spec=%v", p, k.CPUs, s.CPUs)
	case !setsEqual(k.Procs, s.Procs):
		return fmt.Errorf("container %#x: procs kernel=%v spec=%v", p, SortedPtrs(k.Procs), SortedPtrs(s.Procs))
	case !setsEqual(k.OwnedThreads, s.OwnedThreads):
		return fmt.Errorf("container %#x: owned_threads kernel=%v spec=%v", p, SortedPtrs(k.OwnedThreads), SortedPtrs(s.OwnedThreads))
	}
	return nil
}

func diffProc(p Ptr, k, s Proc) error {
	switch {
	case k.Owner != s.Owner:
		return fmt.Errorf("proc %#x: owner kernel=%#x spec=%#x", p, k.Owner, s.Owner)
	case k.Parent != s.Parent:
		return fmt.Errorf("proc %#x: parent kernel=%#x spec=%#x", p, k.Parent, s.Parent)
	case !ptrsEqual(k.Children, s.Children):
		return fmt.Errorf("proc %#x: children kernel=%v spec=%v", p, k.Children, s.Children)
	case !ptrsEqual(k.Threads, s.Threads):
		return fmt.Errorf("proc %#x: threads kernel=%v spec=%v", p, k.Threads, s.Threads)
	case k.IOMMUDomain != s.IOMMUDomain:
		return fmt.Errorf("proc %#x: iommu_domain kernel=%d spec=%d", p, k.IOMMUDomain, s.IOMMUDomain)
	}
	return nil
}

func diffThread(p Ptr, k, s Thread) error {
	switch {
	case k.OwningProc != s.OwningProc:
		return fmt.Errorf("thread %#x: owning_proc kernel=%#x spec=%#x", p, k.OwningProc, s.OwningProc)
	case k.OwningCntr != s.OwningCntr:
		return fmt.Errorf("thread %#x: owning_cntr kernel=%#x spec=%#x", p, k.OwningCntr, s.OwningCntr)
	case normState(k.State) != normState(s.State):
		return fmt.Errorf("thread %#x: state kernel=%v spec=%v", p, k.State, s.State)
	case k.Core != s.Core:
		return fmt.Errorf("thread %#x: core kernel=%d spec=%d", p, k.Core, s.Core)
	case k.Endpoints != s.Endpoints:
		return fmt.Errorf("thread %#x: endpoints kernel=%v spec=%v", p, k.Endpoints, s.Endpoints)
	case k.WaitingOn != s.WaitingOn:
		return fmt.Errorf("thread %#x: waiting_on kernel=%#x spec=%#x", p, k.WaitingOn, s.WaitingOn)
	}
	return nil
}

func diffEndpoint(p Ptr, k, s Endpoint) error {
	switch {
	case !ptrsEqual(k.Queue, s.Queue):
		return fmt.Errorf("endpoint %#x: queue kernel=%v spec=%v", p, k.Queue, s.Queue)
	case k.QueuedRecv != s.QueuedRecv:
		return fmt.Errorf("endpoint %#x: queued_recv kernel=%v spec=%v", p, k.QueuedRecv, s.QueuedRecv)
	case k.RefCount != s.RefCount:
		return fmt.Errorf("endpoint %#x: refcount kernel=%d spec=%d", p, k.RefCount, s.RefCount)
	case k.OwnerCntr != s.OwnerCntr:
		return fmt.Errorf("endpoint %#x: owner_cntr kernel=%#x spec=%#x", p, k.OwnerCntr, s.OwnerCntr)
	case !bufsEqual(k.Buffered, s.Buffered):
		return fmt.Errorf("endpoint %#x: buffered kernel=%v spec=%v", p, k.Buffered, s.Buffered)
	}
	return nil
}

// lowest returns the error check reports for the lowest key of m it
// fails on: ranging a map in any order, it reports what a loop over
// sorted keys would report first, without sorting.
func lowest[K cmp.Ordered, V any](m map[K]V, check func(K, V) error) error {
	var low K
	var lowErr error
	for key, v := range m {
		if lowErr != nil && key > low {
			continue
		}
		if err := check(key, v); err != nil {
			low, lowErr = key, err
		}
	}
	return lowErr
}

// kernelOnly reports the lowest key of k that s lacks, formatted into
// format. Diff calls it once every key of s has been found in k, so k
// holds another key only if it holds more keys.
func kernelOnly[K cmp.Ordered, V, W any](k map[K]V, s map[K]W, format string) error {
	if len(k) == len(s) {
		return nil
	}
	return lowest(k, func(key K, _ V) error {
		if _, ok := s[key]; !ok {
			return fmt.Errorf(format, key)
		}
		return nil
	})
}

// diffSpace compares a kernel table's abstract map against a spec
// address space, reading the table in place, and reports the lowest
// diverging VA: a spec VA first, then a kernel-only one.
func diffSpace(t *pt.PageTable, sas map[hw.VirtAddr]pt.MapEntry) error {
	if err := lowest(sas, func(va hw.VirtAddr, se pt.MapEntry) error {
		ke, ok := t.Mapping(va)
		if !ok {
			return fmt.Errorf("va %#x mapped in spec, not in kernel", uint64(va))
		}
		if ke.Size != se.Size || ke.Perm != se.Perm {
			return fmt.Errorf("va %#x kernel=(%v,%v) spec=(%v,%v)",
				uint64(va), ke.Size, ke.Perm, se.Size, se.Perm)
		}
		if ke.Phys != se.Phys {
			return fmt.Errorf("va %#x frame kernel=%#x spec=%#x", uint64(va), uint64(ke.Phys), uint64(se.Phys))
		}
		return nil
	}); err != nil {
		return err
	}
	// The kernel maps every spec VA, so it maps another only if it
	// holds more mappings; only then is its address space built.
	if t.MappedCount() == len(sas) {
		return nil
	}
	return kernelOnly(t.AddressSpace(), sas, "va %#x mapped in kernel, not in spec")
}
