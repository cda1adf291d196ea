package mck

import (
	"atmosphere/internal/kernel"
	"atmosphere/internal/obs/contend"
)

// WithLockOrder returns a copy of opt whose boot hook additionally
// attaches a fresh contention observatory to each booted kernel and
// arms the runtime lock-order checker against the kernel's declared
// ordering (contend.KernelOrder), and with it the run-queue coverage
// and post-release checks. The returned function reports the first
// violation any of those kernels observed (nil if none) — fuzz targets
// and atmo-fuzz call it after the run and fail with the checker's
// two-site inversion report or a footprint check's one-line report.
func (opt Options) WithLockOrder() (Options, func() error) {
	var observed []*contend.Observatory
	prev := opt.Hook
	opt.Hook = func(k *kernel.Kernel) {
		if prev != nil {
			prev(k)
		}
		o := contend.New()
		k.AttachContention(o)
		k.ArmLockOrder()
		observed = append(observed, o)
	}
	return opt, func() error {
		for _, o := range observed {
			if err := o.Violation(); err != nil {
				return err
			}
		}
		return nil
	}
}
