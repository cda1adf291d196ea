// Netstack: the user-level ixgbe driver plus the Maglev load balancer
// (§6.5.1, §6.6) — packets DMA through the IOMMU into a driver process,
// cross a kernel-established shared-memory ring to the Maglev process
// on another core, get a backend chosen by consistent hashing, and go
// back out the TX path.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"atmosphere/internal/apps"
	"atmosphere/internal/drivers"
	"atmosphere/internal/hw"
	"atmosphere/internal/netproto"
	"atmosphere/internal/nic"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run forwards the traffic and reports the distribution to w.
func run(w io.Writer) error {
	// The load balancer: 8 backends, Maglev permutation table.
	var names []string
	var addrs []netproto.IPv4
	for i := 0; i < 8; i++ {
		names = append(names, fmt.Sprintf("backend-%d", i))
		addrs = append(addrs, netproto.IPv4{172, 16, 0, byte(i + 1)})
	}
	maglev, err := apps.NewMaglev(names, addrs, apps.DefaultTableSize)
	if err != nil {
		return err
	}
	counts := maglev.TableCounts()
	fmt.Fprintf(w, "maglev table populated: %d entries across %d backends (min %d, max %d per backend)\n",
		apps.DefaultTableSize, len(names), minOf(counts), maxOf(counts))

	// atmo-c2: driver on core 1, Maglev on core 2, shared rings between.
	gen := nic.NewGenerator(2026, 1024, 60) // 1024 flows of 64B UDP
	env, err := drivers.NewNetEnv(drivers.CfgC2, gen)
	if err != nil {
		return err
	}
	// Count what leaves on the wire per backend.
	txPerBackend := map[netproto.IPv4]int{}
	env.Dev.TxSink = func(frame []byte) {
		if p, err := netproto.ParseUDP(frame); err == nil {
			txPerBackend[p.DstIP]++
		}
	}
	rates, err := env.RunRx(8192, 32, maglev.Forward)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "forwarded %d packets at %.2f Mpps (paper's atmo-c2 Maglev: 13.3 Mpps)\n",
		maglev.Forwarded, rates.Mpps)
	fmt.Fprintf(w, "driver core spent %d cycles, app core %d cycles\n", rates.DrvCycles, rates.AppCycles)

	fmt.Fprintln(w, "per-backend distribution on the wire:")
	for i, a := range addrs {
		fmt.Fprintf(w, "  %s (%s): %d packets\n", names[i], a, txPerBackend[a])
	}
	if env.Dev.Faults != 0 {
		return fmt.Errorf("%d DMA faults — IOMMU containment failed", env.Dev.Faults)
	}
	fmt.Fprintln(w, "zero DMA faults: every device access translated through the IOMMU domain")
	return nil
}

func minOf(xs []int) int {
	m := xs[0]
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

func maxOf(xs []int) int {
	m := xs[0]
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

var _ = hw.ClockHz // keep the cycle model import explicit for readers
