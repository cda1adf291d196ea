package perf

import (
	"fmt"

	"atmosphere/internal/hw"
	"atmosphere/internal/kernel"
	"atmosphere/internal/mck"
	"atmosphere/internal/obs/account"
	"atmosphere/internal/obs/contend"
	"atmosphere/internal/pm"
)

var checked = &workload{
	name: "checked",
	why: "the oracles that dominate the test suite, on its own corpus plus one seeded program: spec, verify " +
		"and mck do the work and simulated cycles barely matter",
	length: 400, // steps per differential program
	setup:  setupChecked,
}

// The corpus is the one the test suite runs through the oracles —
// TestRunDiffSeeds' programs 1..12 (invariants every 64 steps) through
// the differential oracle, TestRunCheckedSeeds' programs 1..4 through
// the per-step checker — plus one program generated from the benchmark
// seed through both. Random programs differ wildly in length and op mix
// (many kill their last thread early), so a corpus of a few seeded
// programs would swing every figure from seed to seed; the fixed part
// holds the figures steady and the seeded part keeps them a function
// of the seed.
const (
	checkedDiffPrograms    = 12
	checkedCheckedPrograms = 4
	checkedWFEvery         = 64
)

// checkedRun is one program through one oracle.
type checkedRun struct {
	prog mck.Program
	diff bool
	wf   int
}

func setupChecked(seed uint64, steps int, tr *tracing) (phase, error) {
	var runs []checkedRun
	for s := uint64(1); s <= checkedDiffPrograms; s++ {
		runs = append(runs, checkedRun{mck.Generate(s, steps), true, checkedWFEvery})
	}
	for s := uint64(1); s <= checkedCheckedPrograms; s++ {
		runs = append(runs, checkedRun{mck.Generate(s, steps*5/8), false, 0})
	}
	seeded := mck.Generate(mix64(seed), max(1, steps/8))
	runs = append(runs, checkedRun{seeded, true, 0}, checkedRun{seeded, false, 0})
	return func() (*outcome, error) {
		o := newOutcome()
		var diffSteps, checkedSteps, okSteps, syscalls uint64
		var wall, total uint64
		var diffCPU, checkedCPU float64
		var diffAlloc, checkedAlloc uint64
		var lat []uint64
		for i, r := range runs {
			h0, err := readHost()
			if err != nil {
				return nil, err
			}
			if !r.diff {
				st, err := mck.RunChecked(r.prog, mck.Options{})
				h1, herr := readHost()
				if herr != nil {
					return nil, herr
				}
				checkedSteps += uint64(st.Steps)
				checkedCPU += h1.cpu - h0.cpu
				checkedAlloc += h1.alloc - h0.alloc
				if err != nil {
					o.failed++
				}
				continue
			}
			// The hook sees the differential run's kernel before its
			// first syscall. Contention is off in mck, so the cycles
			// between two consecutive syscall completions are exactly
			// the later syscall's cost: the per-op latency.
			var k *kernel.Kernel
			var marks []uint64
			hook := func(kk *kernel.Kernel) {
				k = kk
				if tr != nil {
					// A fresh observatory and ledger per program: each holds
					// its kernel, and the registry aggregates across them.
					tr.cont, tr.ledger = contend.New(), account.NewLedger()
					tr.attach(kk)
				}
				kk.PostSyscall = func(string, pm.Ptr, kernel.Ret) {
					marks = append(marks, kk.Machine.TotalCycles())
				}
			}
			res, st, err := mck.RunDiff(r.prog, mck.Options{Hook: hook, WFEvery: r.wf})
			if err != nil {
				return nil, fmt.Errorf("run %d: %w", i, err)
			}
			h1, err := readHost()
			if err != nil {
				return nil, err
			}
			diffSteps += uint64(st.Steps)
			okSteps += uint64(st.Errnos[kernel.OK.String()])
			diffCPU += h1.cpu - h0.cpu
			diffAlloc += h1.alloc - h0.alloc
			if res != nil {
				o.failed++
			}
			marks = append(marks, k.Machine.TotalCycles())
			for j := 1; j < len(marks); j++ {
				lat = append(lat, marks[j]-marks[j-1])
			}
			syscalls += uint64(len(marks) - 1)
			wall += k.Machine.MaxCycles()
			total += k.Machine.TotalCycles()
			if tr != nil {
				if err := tr.ledger.Audit(); err != nil {
					return nil, fmt.Errorf("run %d: ledger audit: %w", i, err)
				}
			}
		}
		o.ops = diffSteps + checkedSteps
		ops := float64(syscalls)
		o.sim["throughput_mops"] = ratio(ops*hw.ClockHz, float64(wall)) / 1e6
		o.sim["cycles_per_op"] = ratio(float64(total), ops)
		latencyMetrics(o.sim, lat)
		o.sim["mck.ok_step_ratio"] = ratio(float64(okSteps), float64(diffSteps))
		o.host["mck.diff_us_per_step"] = ratio(1e6*diffCPU, float64(diffSteps))
		o.host["mck.checked_us_per_step"] = ratio(1e6*checkedCPU, float64(checkedSteps))
		o.host["mck.diff_alloc_bytes_per_step"] = ratio(float64(diffAlloc), float64(diffSteps))
		o.host["mck.checked_alloc_bytes_per_step"] = ratio(float64(checkedAlloc), float64(checkedSteps))
		if tr != nil {
			if d := tr.tracer.Dropped(); d != 0 {
				return nil, fmt.Errorf("exported tracer window dropped %d events", d)
			}
			o.trace["trace.direct_switches_per_op"] = ratio(float64(tr.reg.Counter("sched.direct_switch").Value()), ops)
			o.trace["trace.ctx_switches_per_op"] = ratio(float64(tr.reg.Counter("sched.ctx_switch").Value()), ops)
			o.trace["trace.runq_delay_p99_cycles"] = float64(tr.runqDelays().Quantile(0.99))
			if err := tr.exportKernel(); err != nil {
				return nil, err
			}
		}
		return o, nil
	}, nil
}
