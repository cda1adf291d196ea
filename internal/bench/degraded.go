package bench

import (
	"errors"
	"fmt"

	"atmosphere/internal/drivers"
	"atmosphere/internal/faults"
	"atmosphere/internal/hw"
	"atmosphere/internal/kernel"
	"atmosphere/internal/nvme"
)

// degradedIOs is the per-rate IO budget for the degraded-mode sweep.
const degradedIOs = 1024

// DegradedNvmeThroughput measures sustained 4 KiB sequential write
// throughput of the linked NVMe driver as the injected fault rate rises:
// command errors (retried with backoff) plus completion stalls. At low
// rates the device envelope hides the recovery work entirely; past the
// crossover the retry/backoff cycles saturate the core and throughput
// degrades CPU-bound — but it degrades, every loss is a counted
// bounded-retry exhaustion, and nothing hangs or panics.
func DegradedNvmeThroughput(s Sinks) (Result, error) {
	res := Result{
		ID:    "degraded",
		Title: "NVMe write throughput under fault injection (4KiB sequential)",
	}
	rates := []float64{0, 0.05, 0.10, 0.20, 0.40}
	var base float64
	for _, rate := range rates {
		iops, stats, lost, err := degradedRun(rate, s.Attach)
		if err != nil {
			return res, err
		}
		if rate == 0 {
			base = iops
		}
		res.Rows = append(res.Rows, Row{
			Name:  fmt.Sprintf("write fault-rate=%.2f", rate),
			Value: iops,
			Unit:  "IOPS",
		})
		if rate > 0 {
			res.Notes = append(res.Notes, fmt.Sprintf(
				"rate %.2f: %.0f%% of fault-free, lost %d/%d, %s",
				rate, 100*iops/base, lost, degradedIOs, stats.String()))
		}
	}
	res.Notes = append(res.Notes,
		"IOPS folds the device envelope (232K derated writes): low fault rates stay device-bound",
		"retry policy: up to 5 attempts, exponential backoff from 2000 cycles",
		"stalls at half the error rate, 150K-cycle release; same seed reproduces the series bit-for-bit")
	return res, nil
}

// degradedRun drives the write workload at one fault rate and returns
// the CPU-side IOPS, the driver counters, and the commands lost to
// retry exhaustion.
func degradedRun(rate float64, attach func(*kernel.Kernel)) (float64, drivers.DriverStats, int, error) {
	env, err := drivers.NewStorageEnv(drivers.CfgDriverLinked, 4096, 64)
	if err != nil {
		return 0, drivers.DriverStats{}, 0, err
	}
	attach(env.K)
	if rate > 0 {
		inj, err := faults.NewInjector(8021, faults.Plan{Rules: []faults.Rule{
			{Kind: faults.NvmeCmdError, Rate: rate},
			{Kind: faults.NvmeStall, Rate: rate / 2, Param: 150_000},
		}}, env.K.Machine.TotalCycles)
		if err != nil {
			return 0, drivers.DriverStats{}, 0, err
		}
		env.Dev.SetInjector(inj)
	}

	clk := &env.K.Machine.Core(env.DrvCore).Clock
	start := clk.Cycles()
	const batch = 32
	lost, lba := 0, uint64(0)
	for done := 0; done < degradedIOs; done += batch {
		if err := env.Drv.SubmitBatch(nvme.OpWrite, lba, batch); err != nil {
			return 0, drivers.DriverStats{}, 0, err
		}
		remaining := batch
		for remaining > 0 {
			n, err := env.Drv.PollCompletions(remaining)
			remaining -= n
			switch {
			case err == nil:
			case errors.Is(err, drivers.ErrCmdFailed):
				lost++
				remaining--
			case errors.Is(err, drivers.ErrCmdTimeout):
				// Stalled completion: keep polling, time advances.
			default:
				return 0, drivers.DriverStats{}, 0, err
			}
		}
		lba = (lba + batch) % 1024
	}
	stats := env.Drv.Stats()
	cycles := clk.Cycles() - start
	if cycles == 0 {
		return 0, stats, lost, fmt.Errorf("bench: no cycles charged")
	}
	iops := float64(stats.Completed) * hw.ClockHz / float64(cycles)
	if devMax := nvme.WriteMaxIOPS * drivers.AtmoWriteEfficiency; iops > devMax {
		iops = devMax
	}
	return iops, stats, lost, nil
}
