package main

import (
	"testing"

	"atmosphere/internal/clitest"
)

func TestRunTwiceByteIdentical(t *testing.T) {
	clitest.RunTwice(t, run, "zero DMA faults")
}
