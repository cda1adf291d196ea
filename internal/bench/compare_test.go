package bench

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

const refFixture = `=== table3: Latency of communication and typical system calls (cycles) ===
case                         measured           paper  unit
call/reply atmosphere            1000            1058  cycles
map a page atmosphere            2000            1984  cycles
note: measured on the simulated c220g5 cycle model

=== fig4: ixgbe forwarding ===
case              measured           paper  unit
64B linked           20.00           24.50  Mpps
host seconds          1.23               -  s

=== table2: Verification time ===
case              measured           paper  unit
proof lines           3668           20098  LoC
`

func fixtureRef(t *testing.T) Reference {
	t.Helper()
	ref, err := ParseReference(strings.NewReader(refFixture))
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

func TestParseReference(t *testing.T) {
	ref := fixtureRef(t)
	if len(ref) != 3 {
		t.Fatalf("parsed %d experiments, want 3", len(ref))
	}
	rr, ok := ref["table3"]["call/reply atmosphere"]
	if !ok || rr.Value != 1000 || rr.Unit != "cycles" {
		t.Fatalf("table3 row = %+v, ok=%v", rr, ok)
	}
	if rr := ref["fig4"]["64B linked"]; rr.Value != 20 || rr.Unit != "Mpps" {
		t.Fatalf("fig4 row = %+v", rr)
	}
	if _, ok := ref["table3"]["case"]; ok {
		t.Fatal("column header parsed as a data row")
	}
}

func TestParseReferenceRealFile(t *testing.T) {
	f, err := os.Open("../../bench_all_reference.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ref, err := ParseReference(f)
	if err != nil {
		t.Fatal(err)
	}
	rr, ok := ref["table3"]["call/reply atmosphere"]
	if !ok || rr.Unit != "cycles" || rr.Value == 0 {
		t.Fatalf("real reference missing table3 call/reply: %+v ok=%v", rr, ok)
	}
	for _, id := range []string{"fig4", "fig5", "fig6", "fig7", "ablation"} {
		if len(ref[id]) == 0 {
			t.Errorf("real reference missing experiment %s", id)
		}
	}
}

func TestCompareDirections(t *testing.T) {
	ref := fixtureRef(t)
	res := []Result{
		{ID: "table3", Rows: []Row{
			{Name: "call/reply atmosphere", Value: 1111, Unit: "cycles"}, // +11.1% latency: worse
			{Name: "map a page atmosphere", Value: 1500, Unit: "cycles"}, // faster: fine
		}},
		{ID: "fig4", Rows: []Row{
			{Name: "64B linked", Value: 17.0, Unit: "Mpps"}, // -15% throughput: worse
			{Name: "host seconds", Value: 99.0, Unit: "s"},  // host unit: skipped
		}},
		{ID: "table2", Rows: []Row{
			{Name: "proof lines", Value: 9999, Unit: "LoC"}, // static unit: skipped
		}},
		{ID: "degraded", Rows: []Row{
			{Name: "anything", Value: 1, Unit: "cycles"}, // not in reference: skipped
		}},
	}
	diffs := CompareToReference(res, ref)
	want := []string{
		"table3/call/reply atmosphere: 1111 cycles vs reference 1000 (worse)",
		"table3/map a page atmosphere: 1500 cycles vs reference 2000 (better)",
		"fig4/64B linked: 17 Mpps vs reference 20 (worse)",
	}
	if strings.Join(diffs, "\n") != strings.Join(want, "\n") {
		t.Fatalf("got:\n%s\nwant:\n%s", strings.Join(diffs, "\n"), strings.Join(want, "\n"))
	}
}

// The gate is exact: a row fails on any change in its printed value,
// however small, and passes only when it prints the same digits.
func TestCompareExact(t *testing.T) {
	ref := fixtureRef(t)
	for _, tc := range []struct {
		value float64
		want  string // "" = passes
	}{
		{1000, ""},
		{1000.2, ""}, // prints as 1000
		{1001, "1001 cycles vs reference 1000 (worse)"},
		{999, "999 cycles vs reference 1000 (better)"},
		{0, "0 cycles vs reference 1000 (better)"},
	} {
		diffs := CompareToReference([]Result{{ID: "table3", Rows: []Row{
			{Name: "call/reply atmosphere", Value: tc.value, Unit: "cycles"},
		}}}, ref)
		switch {
		case tc.want == "" && len(diffs) != 0:
			t.Errorf("%v: flagged %v", tc.value, diffs)
		case tc.want != "" && (len(diffs) != 1 || !strings.HasSuffix(diffs[0], tc.want)):
			t.Errorf("%v: got %v, want one line ending %q", tc.value, diffs, tc.want)
		}
	}
}

func TestWriteResultJSON(t *testing.T) {
	r := Result{
		ID: "table3", Title: "Latency",
		Rows:  []Row{{Name: "call/reply atmosphere", Value: 1060, Paper: 1058, Unit: "cycles"}},
		Notes: []string{"simulated"},
	}
	var a, b bytes.Buffer
	if err := WriteResultJSON(&a, r, 0xdeadbeef); err != nil {
		t.Fatal(err)
	}
	if err := WriteResultJSON(&b, r, 0xdeadbeef); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("JSON export is not byte-deterministic")
	}
	for _, want := range []string{
		`"id": "table3"`, `"case": "call/reply atmosphere"`,
		`"measured": 1060`, `"paper": 1058`, `"unit": "cycles"`,
		`"trace_hash": "00000000deadbeef"`,
	} {
		if !strings.Contains(a.String(), want) {
			t.Errorf("JSON missing %s:\n%s", want, a.String())
		}
	}
	var c bytes.Buffer
	if err := WriteResultJSON(&c, r, 0); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(c.String(), "trace_hash") {
		t.Error("trace_hash emitted without a tracer")
	}
}

// A paper-only row prints "-" where a measurement would go and carries
// no "measured" in JSON; a measured zero still prints and serializes.
func TestPaperOnlyRows(t *testing.T) {
	r := Result{ID: "table1", Title: "Proof effort", Rows: []Row{
		{Name: "seL4", Paper: 20, Unit: "ratio", PaperOnly: true},
		{Name: "here", Value: 0, Paper: 3.32, Unit: "ratio"},
	}}
	lines := strings.Split(r.String(), "\n")
	if f := strings.Fields(lines[2]); len(f) != 4 || f[1] != "-" || f[2] != "20" {
		t.Errorf("paper-only row = %q, want measured \"-\"", lines[2])
	}
	if f := strings.Fields(lines[3]); len(f) != 4 || f[1] != "0" {
		t.Errorf("measured row = %q, want measured 0", lines[3])
	}
	var b bytes.Buffer
	if err := WriteResultJSON(&b, r, 0); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(b.String(), `"measured"`); n != 1 {
		t.Errorf("JSON carries %d measured fields, want 1:\n%s", n, b.String())
	}
	ref, err := ParseReference(strings.NewReader(r.String()))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ref["table1"]["seL4"]; ok {
		t.Error("the reference parser kept a paper-only row")
	}
}

func TestCompareClusterUnits(t *testing.T) {
	// The cluster series' units are direction-aware: requests lost and
	// reconvergence cycles gate downward, throughput upward.
	ref, err := ParseReference(strings.NewReader(`=== cluster: chaos ===
case                      measured  paper  unit
chaos reconverge kill       180000      -  cycles
chaos requests lost             10      -  reqs
chaos throughput            800.00      -  Kreq/s
`))
	if err != nil {
		t.Fatal(err)
	}
	res := []Result{{ID: "cluster", Rows: []Row{
		{Name: "chaos reconverge kill", Value: 400000, Unit: "cycles"}, // slower reconvergence: worse
		{Name: "chaos requests lost", Value: 20, Unit: "reqs"},         // more lost requests: worse
		{Name: "chaos throughput", Value: 500, Unit: "Kreq/s"},         // lower throughput: worse
	}}}
	improved := []Result{{ID: "cluster", Rows: []Row{
		{Name: "chaos reconverge kill", Value: 100000, Unit: "cycles"},
		{Name: "chaos requests lost", Value: 2, Unit: "reqs"},
		{Name: "chaos throughput", Value: 900, Unit: "Kreq/s"},
	}}}
	for dir, results := range map[string][]Result{"(worse)": res, "(better)": improved} {
		diffs := CompareToReference(results, ref)
		if len(diffs) != 3 {
			t.Fatalf("got %d lines for 3 moved rows:\n%s", len(diffs), strings.Join(diffs, "\n"))
		}
		for _, d := range diffs {
			if !strings.HasSuffix(d, dir) {
				t.Errorf("row reported as %q, want %s", d, dir)
			}
		}
	}
}
