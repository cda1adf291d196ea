package main

import (
	"testing"

	"atmosphere/internal/clitest"
)

func TestRunTwiceByteIdentical(t *testing.T) {
	clitest.RunTwice(t, run, `worker received regs [1 2 3 4] and shared page "shared!"`)
}
