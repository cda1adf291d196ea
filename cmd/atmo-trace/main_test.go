package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestRunTwiceByteIdentical runs each invocation twice through the
// command itself — the workload table with the sinks atmo-trace
// attaches — and requires byte-identical exports and identical stdout
// (trace hash line and reports included) apart from the "wrote <path>"
// lines, which name each run's own output files. The content checks
// guard against a run that is deterministic because it recorded
// nothing, and each case's trace hash is pinned: a change that moves
// one edits it here and says why.
func TestRunTwiceByteIdentical(t *testing.T) {
	profileExts := []string{".folded", ".pb.gz"}
	cases := []struct {
		args    []string
		hash    string   // the trace hash stdout must print
		stdout  []string // substrings stdout must contain
		export  []string // substrings the export must contain
		profile bool     // also pass -profile; each profile export must be non-empty
	}{
		{args: []string{"-workload", "kvstore", "-seed", "1", "-ops", "50"}, hash: "c60d9b6f57e43328", profile: true},
		{args: []string{"-workload", "kvstore", "-seed", "1", "-ops", "200"}, hash: "c25f7941a78660e7"},
		{args: []string{"-workload", "ipc"}, hash: "4a2972b83062a0fa"},
		{args: []string{"-workload", "cluster", "-merged", "-seed", "1107"}, hash: "f5ee121abe1930e6",
			stdout: []string{"distributed trace attribution"}},
		{args: []string{"-workload", "kvstore-batch", "-cores", "4"}, hash: "a25b30b7696981eb"},
		{args: []string{"-workload", "multicore", "-cores", "4", "-ops", "60", "-contention"}, hash: "58380f8e8796bcd1",
			stdout: []string{"== contention: locks =="}, export: []string{`"lock.`}},
		// At 16 cores the ipc sub-workload's lock plans touch dozens of
		// container and endpoint frontiers.
		{args: []string{"-workload", "multicore", "-cores", "16", "-ops", "40", "-contention"}, hash: "0b82dd73f11e7c2c"},
		// The only traced workload that tears containers down: the
		// supervisor's bounded kills of crashed driver containers.
		{args: []string{"-workload", "chaos", "-seed", "7", "-ops", "200"}, hash: "f1303cbef7477327"},
	}
	hashLine := regexp.MustCompile(`(?m)^\S+: \d+ events \(\d+ dropped\), trace hash ([0-9a-f]{16})$`)
	for _, c := range cases {
		name := strings.Join(c.args, " ")
		if c.profile {
			name += " -profile"
		}
		t.Run(name, func(t *testing.T) {
			var exports, stdouts [2]string
			var profiles [2][]string
			for i := range exports {
				dir := t.TempDir()
				out := filepath.Join(dir, "trace.json")
				args := append(c.args, "-o", out)
				if c.profile {
					args = append(args, "-profile", filepath.Join(dir, "trace"))
				}
				var stdout bytes.Buffer
				if err := run(args, &stdout); err != nil {
					t.Fatal(err)
				}
				b, err := os.ReadFile(out)
				if err != nil {
					t.Fatal(err)
				}
				exports[i] = string(b)
				if c.profile {
					for _, ext := range profileExts {
						b, err := os.ReadFile(filepath.Join(dir, "trace"+ext))
						if err != nil {
							t.Fatal(err)
						}
						profiles[i] = append(profiles[i], string(b))
					}
				}
				var kept []string
				for _, line := range strings.SplitAfter(stdout.String(), "\n") {
					if !strings.HasPrefix(line, "wrote ") {
						kept = append(kept, line)
					}
				}
				stdouts[i] = strings.Join(kept, "")
			}
			if exports[0] == "" {
				t.Fatal("empty export")
			}
			if exports[0] != exports[1] {
				t.Error("export is not byte-identical across same-seed runs")
			}
			for j, p := range profiles[0] {
				if p == "" {
					t.Errorf("empty %s export", profileExts[j])
				}
				if p != profiles[1][j] {
					t.Errorf("%s export is not byte-identical across same-seed runs", profileExts[j])
				}
			}
			if stdouts[0] != stdouts[1] {
				t.Errorf("stdout differs across same-seed runs:\n%s\n---\n%s", stdouts[0], stdouts[1])
			}
			if m := hashLine.FindStringSubmatch(stdouts[0]); m == nil {
				t.Errorf("stdout has no trace hash line:\n%s", stdouts[0])
			} else if m[1] != c.hash {
				t.Errorf("trace hash %s, want %s", m[1], c.hash)
			}
			for _, want := range c.stdout {
				if !strings.Contains(stdouts[0], want) {
					t.Errorf("stdout lacks %q:\n%s", want, stdouts[0])
				}
			}
			for _, want := range c.export {
				if !strings.Contains(exports[0], want) {
					t.Errorf("export lacks %q", want)
				}
			}
		})
	}
}
