package main

import (
	"io"
	"testing"

	"atmosphere/internal/clitest"
)

// TestRunTwiceByteIdentical fuzzes a short A/B/V run twice. Each run
// also replays its seed, so output consistency is checked within a run
// and across the two.
func TestRunTwiceByteIdentical(t *testing.T) {
	clitest.RunTwice(t, func(w io.Writer) error { return run([]string{"-steps", "300"}, w) },
		"output consistency: OK")
}
