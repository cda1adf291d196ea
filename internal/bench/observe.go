package bench

import (
	"atmosphere/internal/kernel"
	"atmosphere/internal/obs"
	"atmosphere/internal/obs/account"
	"atmosphere/internal/obs/contend"
)

// Sinks are the observers a run attaches to the kernels it boots: the
// cycle-accurate tracer, the metrics registry, the page-ownership
// ledger and the contention observatory. The zero value attaches
// nothing. Attaching never charges a cycle (TestProbesAreFree holds
// every series to that), so the measured numbers are identical with and
// without sinks. The cluster's kernels take only the tracer and the
// registry, through cluster.Config.
type Sinks struct {
	Tracer  *obs.Tracer
	Metrics *obs.Registry
	Ledger  *account.Ledger
	Contend *contend.Observatory
}

// Attach wires the sinks into a freshly booted kernel; it is the attach
// hook every kernel-level runner takes. A ledger rebinds per boot, so
// after a run of several kernels it reflects the last one — enough for
// the closure audit and the attribution rows. An observatory
// accumulates across boots: each kernel registers its own frontiers
// (big/kernel, big/kernel#1, ...).
func (s Sinks) Attach(k *kernel.Kernel) {
	if s.Tracer != nil || s.Metrics != nil {
		k.AttachObs(s.Tracer, s.Metrics)
	}
	if s.Ledger != nil {
		k.AttachLedger(s.Ledger)
	}
	if s.Contend != nil {
		k.AttachContention(s.Contend)
	}
}
