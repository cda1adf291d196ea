package verify

import (
	"fmt"

	"atmosphere/internal/kernel"
	"atmosphere/internal/obs"
	"atmosphere/internal/pm"
)

// StepWatcher checks the full well-formedness suite after every kernel
// transition by riding the kernel's PostSyscall hook. Where Checker
// wraps each syscall explicitly (spec + WF per call site), the watcher
// covers transitions the harness does not issue itself — the syscalls a
// driver environment makes internally, the bounded-kill rounds of a
// supervisor recovery — which is exactly what a faulty trace exercises:
// every step of the trace, including mid-recovery states, must satisfy
// TotalWF (page-closure leak freedom included, via MemoryWF/QuotaWF).
type StepWatcher struct {
	K *kernel.Kernel

	Steps      uint64 // transitions observed, each one checked
	Violations []error

	prev func(name string, caller pm.Ptr, ret kernel.Ret)
}

// Watch installs a step watcher on the kernel, chaining any existing
// PostSyscall hook. When the kernel carries a metrics registry, the
// watcher's counters are published as "verify.*" gauges and the cycle
// gap between checked transitions as a histogram.
func Watch(k *kernel.Kernel) *StepWatcher {
	w := &StepWatcher{K: k, prev: k.PostSyscall}
	var gap *obs.Histogram
	var lastChecked uint64
	if m := k.Metrics(); m != nil {
		m.Gauge("verify.steps", func() uint64 { return w.Steps })
		m.Gauge("verify.checked", func() uint64 { return w.Steps })
		m.Gauge("verify.violations", func() uint64 { return uint64(len(w.Violations)) })
		gap = m.Histogram("verify.step.cycles", nil)
		lastChecked = k.Machine.TotalCycles()
	}
	k.PostSyscall = func(name string, caller pm.Ptr, ret kernel.Ret) {
		if w.prev != nil {
			w.prev(name, caller, ret)
		}
		w.Steps++
		if gap != nil {
			now := k.Machine.TotalCycles()
			gap.Observe(now - lastChecked)
			lastChecked = now
		}
		if err := TotalWF(k); err != nil {
			w.Violations = append(w.Violations,
				fmt.Errorf("step %d after %s: %w", w.Steps, name, err))
		}
	}
	return w
}

// Err returns the first violation, or nil.
func (w *StepWatcher) Err() error {
	if len(w.Violations) == 0 {
		return nil
	}
	return w.Violations[0]
}
