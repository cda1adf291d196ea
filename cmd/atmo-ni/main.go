// Command atmo-ni runs the isolation and non-interference checker on
// the paper's A/B/V configuration (§4.3): arbitrary syscalls are fuzzed
// from the two isolated containers while the unwinding conditions —
// step consistency, output consistency, and the isolation invariants —
// are validated at every transition.
//
// Usage:
//
//	atmo-ni                     # default: 2000 steps, seed 1
//	atmo-ni -steps 5000 -seed 7
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"atmosphere/internal/ni"
	"atmosphere/internal/verify"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "atmo-ni:", err)
		os.Exit(1)
	}
}

// run is the whole command: it parses args, fuzzes A/B/V, replays the
// seed and narrates every check to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	steps := fs.Int("steps", 2000, "fuzzed transitions")
	seed := fs.Uint64("seed", 1, "deterministic seed")
	fs.Parse(args)

	fmt.Fprintf(stdout, "building A/B/V scenario, fuzzing %d transitions (seed %d)...\n", *steps, *seed)
	s, err := ni.Build(2, true)
	if err != nil {
		return err
	}
	f := ni.NewFuzzer(s, *seed)
	if err := f.Run(*steps); err != nil {
		return fmt.Errorf("checker failure: %w", err)
	}
	if len(f.SCViolations) > 0 {
		return fmt.Errorf("STEP CONSISTENCY VIOLATED (%d):\n  %s",
			len(f.SCViolations), strings.Join(f.SCViolations, "\n  "))
	}
	acted := map[string]int{}
	for _, rec := range f.Trace {
		acted[rec.Domain]++
	}
	fmt.Fprintf(stdout, "step consistency: OK across %d transitions (A:%d B:%d V:%d)\n",
		len(f.Trace), acted["A"], acted["B"], acted["V"])
	fmt.Fprintf(stdout, "isolation invariants (memory_iso, endpoint_iso): held at every step\n")
	fmt.Fprintf(stdout, "service V: handled %d requests, released %d pages, correctness held\n",
		f.V.Handled, f.V.Released)

	// Output consistency: replay and compare.
	fmt.Fprintf(stdout, "checking output consistency (replaying seed %d)...\n", *seed)
	replay, err := f.Replay()
	if err != nil {
		return err
	}
	if eq, diff := ni.TracesEqual(f.Trace, replay); !eq {
		return fmt.Errorf("OUTPUT CONSISTENCY VIOLATED: %s", diff)
	}
	fmt.Fprintln(stdout, "output consistency: OK (bit-identical replay)")
	fmt.Fprintln(stdout, "local respect: subsumed by step consistency in this configuration (§4.3)")

	if err := verify.TotalWF(f.S.K); err != nil {
		return fmt.Errorf("final state ill-formed: %w", err)
	}
	fmt.Fprintln(stdout, "final kernel state: well-formed")
	return nil
}
