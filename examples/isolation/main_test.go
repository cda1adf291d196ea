package main

import (
	"testing"

	"atmosphere/internal/clitest"
)

func TestRunTwiceByteIdentical(t *testing.T) {
	clitest.RunTwice(t, run, "B's observable state is bit-identical")
}
