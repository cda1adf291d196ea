package bench

import (
	"atmosphere/internal/kernel"
	"atmosphere/internal/obs"
	"atmosphere/internal/obs/account"
	"atmosphere/internal/obs/contend"
)

// Observability taps for the benchmark kernels. Each experiment boots
// its own kernel, so cmd/atmo-bench installs the sinks once with SetObs
// and every instrumented experiment wires them in at boot. Attaching
// observability never charges a cycle (TestProbesAreFree holds every
// series to that), so the measured numbers are identical with and without it.
var (
	benchTracer  *obs.Tracer
	benchMetrics *obs.Registry
	benchLedger  *account.Ledger
	benchContend *contend.Observatory
)

// SetObs installs the tracer/registry every subsequent experiment
// attaches to its kernel (nil/nil disables).
func SetObs(t *obs.Tracer, m *obs.Registry) {
	benchTracer = t
	benchMetrics = m
}

// SetLedger installs a page-ownership ledger every subsequent
// experiment binds to its kernel's allocator (nil disables). Rebinding
// the same ledger per boot resets it, so after a run it reflects the
// last experiment's kernel — enough for the closure audit and the
// attribution rows, which is what -profile consumers want.
func SetLedger(l *account.Ledger) { benchLedger = l }

// SetContention installs a contention observatory every subsequent
// experiment attaches to its kernel (nil disables). Unlike the ledger
// the observatory accumulates across boots — repeated experiments
// register their big locks as distinct frontiers, so an `atmo-trace`
// session over several workloads reports all of them.
func SetContention(o *contend.Observatory) { benchContend = o }

// attachObs wires the installed sinks into a freshly booted kernel.
func attachObs(k *kernel.Kernel) {
	if benchTracer != nil || benchMetrics != nil {
		k.AttachObs(benchTracer, benchMetrics)
	}
	if benchLedger != nil {
		k.AttachLedger(benchLedger)
	}
	if benchContend != nil {
		k.AttachContention(benchContend)
	}
}
