package main

import (
	"testing"

	"atmosphere/internal/clitest"
)

func TestRunTwiceByteIdentical(t *testing.T) {
	clitest.RunTwice(t, run, "hit rate: 100.0%")
}
