package main

import (
	"io"
	"testing"

	"atmosphere/internal/clitest"
)

// TestRunTwiceByteIdentical runs the default demo twice. Its anchor
// pins that a boot reports its configured RAM, however few frames it
// touches.
func TestRunTwiceByteIdentical(t *testing.T) {
	clitest.RunTwice(t, func(w io.Writer) error { return run(nil, w) }, "booted: 8192 frames (32 MiB), 4 cores")
}
