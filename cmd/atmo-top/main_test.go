package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
)

// TestRunTwiceByteIdentical runs each invocation twice through the
// command itself and requires byte-identical stdout holding every row
// the case names and none it rules out: a driver container row in the
// accounting view; the container-frontier, big-lock and mmap
// wait-attribution rows of the alloc workload's contention snapshot;
// its container class with non-zero occupancy; and kvstore's wait-free
// run-queue class, with no yield waiting on a container frontier.
func TestRunTwiceByteIdentical(t *testing.T) {
	cases := []struct {
		args    string
		present []string // patterns some stdout line must match
		absent  []string // patterns no stdout line may match
	}{
		{args: "-workload chaos -seed 7 -ops 200", present: []string{`^nvme.gen0`}},
		{args: "-workload multicore -cores 4 -ops 100 -locks", present: []string{
			`^lock container/root `, `^lock big/kernel `, `^wait container/root sys=mmap cntr=root `}},
		{args: "-workload multicore -cores 4 -ops 100 -locks -by-class", present: []string{
			`^class container locks=`, `^class container .* holdcycles=[1-9]`}},
		{args: "-workload multicore -mc kvstore -cores 16 -locks -by-class",
			present: []string{`^class runq .* waitcycles=0 `},
			absent:  []string{`^wait container/.* sys=yield `}},
	}
	for _, c := range cases {
		t.Run(c.args, func(t *testing.T) {
			var out [2]bytes.Buffer
			for i := range out {
				if err := run(strings.Fields(c.args), &out[i]); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(out[0].Bytes(), out[1].Bytes()) {
				t.Fatalf("two runs printed different output:\n%s\n---\n%s", &out[0], &out[1])
			}
			for _, p := range c.present {
				if !regexp.MustCompile(`(?m)` + p).Match(out[0].Bytes()) {
					t.Errorf("no line matches %q:\n%s", p, &out[0])
				}
			}
			for _, p := range c.absent {
				if line := regexp.MustCompile(`(?m)` + p + `.*$`).Find(out[0].Bytes()); line != nil {
					t.Errorf("line %q matches %q", line, p)
				}
			}
		})
	}
}
