package ni

import (
	"fmt"

	"atmosphere/internal/hw"
	"atmosphere/internal/kernel"
	"atmosphere/internal/pm"
)

// The §4.3 isolation invariants, executably. They quantify over the flat
// domain sets P_A/P_B (processes) and T_A/T_B (threads), built directly
// from the subtree ghost state as the paper describes.

// MemoryIso is memory_iso: no physical page is mapped by an address
// space in P_A and also by one in P_B. A terminated domain maps nothing
// and is vacuously isolated.
func MemoryIso(k *kernel.Kernel, a, b pm.Ptr) error {
	if _, okA := k.PM.TryCntr(a); !okA {
		return nil
	}
	if _, okB := k.PM.TryCntr(b); !okB {
		return nil
	}
	pagesA := domainPages(k, a)
	for proc := range k.PM.ProcsOf(b) {
		for va, e := range k.PM.Proc(proc).PageTable.AddressSpace() {
			if _, shared := pagesA[e.Phys]; shared {
				return fmt.Errorf("memory_iso violated: page %#x mapped by both domains (B's %#x at va %#x)",
					e.Phys, proc, va)
			}
		}
	}
	return nil
}

func domainPages(k *kernel.Kernel, cntr pm.Ptr) map[hw.PhysAddr]pm.Ptr {
	out := make(map[hw.PhysAddr]pm.Ptr)
	for proc := range k.PM.ProcsOf(cntr) {
		for _, e := range k.PM.Proc(proc).PageTable.AddressSpace() {
			out[e.Phys] = proc
		}
	}
	return out
}

// EndpointIso is endpoint_iso: no endpoint descriptor is held by a
// thread in T_A and also by one in T_B. A terminated domain holds no
// descriptors and is vacuously isolated.
func EndpointIso(k *kernel.Kernel, a, b pm.Ptr) error {
	if _, okA := k.PM.TryCntr(a); !okA {
		return nil
	}
	if _, okB := k.PM.TryCntr(b); !okB {
		return nil
	}
	held := make(map[pm.Ptr]pm.Ptr) // endpoint -> A-thread holding it
	for th := range k.PM.ThreadsOf(a) {
		for _, e := range k.PM.Thrd(th).Endpoints {
			if e != pm.NoEndpoint {
				held[e] = th
			}
		}
	}
	for th := range k.PM.ThreadsOf(b) {
		for _, e := range k.PM.Thrd(th).Endpoints {
			if e == pm.NoEndpoint {
				continue
			}
			if at, shared := held[e]; shared {
				return fmt.Errorf("endpoint_iso violated: endpoint %#x held by A's %#x and B's %#x",
					e, at, th)
			}
		}
	}
	return nil
}

// CheckIsolation runs both invariants for every client pair.
func (s *Scenario) CheckIsolation() error {
	for i, a := range s.Clients {
		for j := i + 1; j < len(s.Clients); j++ {
			b := s.Clients[j]
			if err := MemoryIso(s.K, a.Cntr, b.Cntr); err != nil {
				return fmt.Errorf("%s/%s: %w", clientName(i), clientName(j), err)
			}
			if err := EndpointIso(s.K, a.Cntr, b.Cntr); err != nil {
				return fmt.Errorf("%s/%s: %w", clientName(i), clientName(j), err)
			}
		}
	}
	return nil
}
