package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"
)

// TestChaosMetricsReadTheSweep runs a two-seed -chaos sweep with a
// metrics dump: the dump's injected-fault gauge must read the whole
// sweep's total, the one the sweep prints, not the last seed's.
func TestChaosMetricsReadTheSweep(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.txt")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-chaos", "-seeds", "2", "-metrics", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d:\n%s%s", code, &stdout, &stderr)
	}
	number := func(re string, text []byte) uint64 {
		t.Helper()
		m := regexp.MustCompile(`(?m)` + re).FindSubmatch(text)
		if m == nil {
			t.Fatalf("no line matches %q:\n%s", re, text)
		}
		n, err := strconv.ParseUint(string(m[1]), 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	total := number(`^chaos: (\d+) faults injected$`, stdout.Bytes())
	last := number(`^seed 2: .* injected (\d+) faults`, stdout.Bytes())
	dump, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := number(`^gauge faults\.alloc-exhaust\.injected (\d+)$`, dump); got != total {
		t.Fatalf("metrics dump reads %d injected faults, the sweep printed %d (seed 2 alone: %d)", got, total, last)
	}
	if total <= last {
		t.Fatalf("the sweep injected %d faults and seed 2 alone %d: seed 1 injected none, so the test shows nothing", total, last)
	}
}
