package bench

import (
	"bufio"
	"fmt"
	"io"
	"regexp"
	"strconv"
	"strings"
)

// Exact comparator against the frozen reference dump
// (bench_all_reference.txt, the last re-baselined `atmo-bench` output).
// Only deterministic simulated quantities gate: cycle latencies and
// request counts (lower is better) and simulated throughputs (higher is
// better). Each is a pure function of the cycle model, so any change in
// its printed value, better or worse, is a behaviour change that must
// land with a re-baseline. Host-dependent measurements (wall-clock
// seconds/ms of the obligation suite) and static quantities (line
// counts, ratios, paper-only history) are never compared — they move
// with the build machine, not the model.

// RefRow is one measured cell of the reference dump.
type RefRow struct {
	Value float64
	Unit  string
}

// Reference maps experiment id -> case name -> reference measurement.
type Reference map[string]map[string]RefRow

var (
	refHeader = regexp.MustCompile(`^=== ([A-Za-z0-9_]+): `)
	refSplit  = regexp.MustCompile(`\s{2,}`)
)

// ParseReference reads an `atmo-bench` text dump: `=== id: title ===`
// section headers followed by aligned columns (case, measured, paper,
// unit). Column-header, note, and prose lines are skipped.
func ParseReference(r io.Reader) (Reference, error) {
	ref := make(Reference)
	var cur map[string]RefRow
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimRight(sc.Text(), " \t")
		if m := refHeader.FindStringSubmatch(line); m != nil {
			cur = make(map[string]RefRow)
			ref[m[1]] = cur
			continue
		}
		if cur == nil || line == "" || strings.HasPrefix(line, "note:") {
			continue
		}
		fields := refSplit.Split(line, -1)
		if len(fields) < 4 || fields[0] == "case" {
			continue
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			continue
		}
		unit := strings.Fields(fields[len(fields)-1])
		if len(unit) == 0 {
			continue
		}
		cur[strings.TrimSpace(fields[0])] = RefRow{Value: v, Unit: unit[0]}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("bench: reading reference: %w", err)
	}
	if len(ref) == 0 {
		return nil, fmt.Errorf("bench: reference holds no experiments")
	}
	return ref, nil
}

// Gate direction per unit. Everything else is skipped.
var (
	lowerIsBetter  = map[string]bool{"cycles": true, "reqs": true}
	higherIsBetter = map[string]bool{"Mpps": true, "IOPS": true, "Kreq/s": true, "Mreq/s": true, "Mops/s": true}
)

// CompareToReference checks results against ref and returns one line
// per gated row whose printed value differs from the reference, saying
// whether it moved in the unit's better or worse direction. Rows and
// experiments absent from the reference, unit mismatches and ungated
// units are skipped.
func CompareToReference(results []Result, ref Reference) []string {
	var diffs []string
	for _, res := range results {
		refRows, ok := ref[res.ID]
		if !ok {
			continue
		}
		for _, row := range res.Rows {
			rr, ok := refRows[row.Name]
			if !ok {
				continue
			}
			uf := strings.Fields(row.Unit)
			if len(uf) == 0 || uf[0] != rr.Unit || !lowerIsBetter[rr.Unit] && !higherIsBetter[rr.Unit] {
				continue
			}
			got, want := formatVal(row.Value), formatVal(rr.Value)
			if got == want {
				continue
			}
			dir := "worse"
			if (row.Value < rr.Value) == lowerIsBetter[rr.Unit] {
				dir = "better"
			}
			diffs = append(diffs, fmt.Sprintf("%s/%s: %s %s vs reference %s (%s)",
				res.ID, row.Name, got, rr.Unit, want, dir))
		}
	}
	return diffs
}
