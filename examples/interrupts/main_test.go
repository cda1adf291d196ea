package main

import (
	"testing"

	"atmosphere/internal/clitest"
)

func TestRunTwiceByteIdentical(t *testing.T) {
	clitest.RunTwice(t, run, "received 64 packets across 8 wakeups")
}
