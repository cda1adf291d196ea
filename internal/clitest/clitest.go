// Package clitest runs the repository's narrated programs — the
// examples, atmo-sim and atmo-ni — the way their tests do: twice in one process,
// requiring the same non-empty output both times and a line that begins
// with a given anchor.
package clitest

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// RunTwice runs run twice and fails t unless both runs succeed and
// print the same non-empty bytes, one line of which begins with anchor.
func RunTwice(t testing.TB, run func(io.Writer) error, anchor string) {
	t.Helper()
	var out [2]bytes.Buffer
	for i := range out {
		if err := run(&out[i]); err != nil {
			t.Fatal(err)
		}
	}
	if out[0].Len() == 0 || !bytes.Equal(out[0].Bytes(), out[1].Bytes()) {
		t.Fatalf("two runs printed different or no output:\n%s\n---\n%s", &out[0], &out[1])
	}
	for _, line := range strings.Split(out[0].String(), "\n") {
		if strings.HasPrefix(line, anchor) {
			return
		}
	}
	t.Fatalf("no line begins %q:\n%s", anchor, &out[0])
}
