package perf

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"syscall"
)

// hostSnap is one reading of the process's host cost: CPU seconds
// (user+sys, every thread, the garbage collector's included), bytes
// allocated since start, and the peak resident set so far.
type hostSnap struct {
	cpu       float64
	alloc     uint64
	maxRSSMiB float64
}

func readHost() (hostSnap, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return hostSnap{}, fmt.Errorf("perf: getrusage: %w", err)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return hostSnap{
		cpu:       seconds(ru.Utime) + seconds(ru.Stime),
		alloc:     ms.TotalAlloc,
		maxRSSMiB: float64(ru.Maxrss) / 1024, // Linux reports KiB
	}, nil
}

func seconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// freshCPU returns the host CPU seconds f takes on a fresh heap:
// debug.FreeOSMemory first collects garbage and returns all free memory
// to the OS, so whatever f allocates comes from freshly faulted pages.
// Without it, whether Go hands out pages it must clear itself or fresh
// ones the OS clears depends on the background scavenger's timing, and
// the same set-up's CPU time splits into modes up to 4× apart.
func freshCPU(f func()) (float64, error) {
	debug.FreeOSMemory()
	h0, err := readHost()
	if err != nil {
		return 0, err
	}
	f()
	h1, err := readHost()
	if err != nil {
		return 0, err
	}
	return h1.cpu - h0.cpu, nil
}

// refCalibrationCPU is what calibrate costs on a fresh heap, in CPU
// seconds, on the reference machine (a quiet 2-vCPU container).
// setup_s is set-up CPU time scaled by refCalibrationCPU over the
// calibration time measured beside it: neighbours on a shared host
// swing raw set-up time by a quarter within minutes, and the loop slows
// down with it.
const refCalibrationCPU = 0.012

// calSink keeps calibrate's work observable.
var calSink uint64

// calibrate is a fixed mix of what set-up does: it allocates and touches
// a 16 MiB buffer (set-up is mostly faulting in and zeroing the
// simulated machine's memory), then hashes and inserts into a map.
func calibrate() {
	buf := make([]byte, 16<<20)
	for i := 0; i < len(buf); i += 4096 {
		buf[i] = byte(i >> 12)
	}
	m := make(map[uint64]uint64, 1024)
	h := fnv.New64a()
	var x uint64
	for i := 0; i < 20000; i++ {
		x = mix64(x + uint64(i))
		m[x&4095] += x
		h.Write(buf[i&1023 : i&1023+64])
	}
	calSink += h.Sum64() + uint64(len(m)) + uint64(buf[4096])
}

// quantile is the ceil-rank q-quantile of sorted, the same rank rule
// obs.Histogram uses: the smallest sample with at least q of all
// samples at or below it.
func quantile(sorted []uint64, q float64) uint64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// sortedQuantile sorts xs in place and returns its q-quantile.
func sortedQuantile(xs []uint64, q float64) uint64 {
	slices.Sort(xs)
	return quantile(xs, q)
}

// latencyMetrics sorts samples in place and reports the e2e latency
// quantiles and the sample count.
func latencyMetrics(m map[string]float64, samples []uint64) {
	m["latency_p50_cycles"] = float64(sortedQuantile(samples, 0.50))
	m["latency_p99_cycles"] = float64(quantile(samples, 0.99))
	m["latency_p999_cycles"] = float64(quantile(samples, 0.999))
	m["latency_samples"] = float64(len(samples))
}

// median of xs (the mean of the middle two for an even count); xs is
// reordered.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// ratio is a/b, 0 when b is 0 (a layer the workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
