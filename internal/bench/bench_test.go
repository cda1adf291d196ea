package bench

import (
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{"table1", "table2", "table3", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "ablation", "degraded", "multicore", "batch", "cluster"}
	if len(All()) != len(want) {
		t.Fatalf("%d experiments registered, want %d", len(All()), len(want))
	}
	for _, id := range want {
		if _, ok := ByID(id); !ok {
			t.Fatalf("experiment %s missing", id)
		}
	}
	if _, ok := ByID("nonsense"); ok {
		t.Fatal("bogus id resolved")
	}
	if len(IDs()) != len(want) {
		t.Fatal("IDs() incomplete")
	}
}

func TestResultRendering(t *testing.T) {
	r := Result{
		ID: "x", Title: "demo",
		Rows: []Row{
			{Name: "a", Value: 1.5, Paper: 2.0, Unit: "Mpps"},
			{Name: "no-paper", Value: 1000000, Unit: "IOPS"},
		},
		Notes: []string{"a note"},
	}
	s := r.String()
	for _, frag := range []string{"demo", "a note", "Mpps", "1.50", "no-paper", "-"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("rendering missing %q:\n%s", frag, s)
		}
	}
}

func TestTable3ShapeMatchesPaper(t *testing.T) {
	res, err := Table3SyscallLatency(Sinks{})
	if err != nil {
		t.Fatal(err)
	}
	get := func(name string) float64 {
		for _, r := range res.Rows {
			if r.Name == name {
				return r.Value
			}
		}
		t.Fatalf("row %q missing", name)
		return 0
	}
	atmoIPC := get("call/reply atmosphere")
	sel4IPC := get("call/reply seL4")
	atmoMap := get("map a page atmosphere")
	sel4Map := get("map a page seL4")
	// Within 10% of the paper's measurements.
	within := func(got, want float64, what string) {
		if got < want*0.9 || got > want*1.1 {
			t.Fatalf("%s = %.0f, paper %.0f", what, got, want)
		}
	}
	within(atmoIPC, 1058, "atmo call/reply")
	within(sel4IPC, 1026, "seL4 call/reply")
	within(atmoMap, 1984, "atmo map")
	within(sel4Map, 2650, "seL4 map")
	// Shape: seL4 IPC slightly cheaper, Atmosphere map cheaper.
	if sel4IPC >= atmoIPC {
		t.Fatal("seL4 IPC should be slightly cheaper")
	}
	if atmoMap >= sel4Map {
		t.Fatal("Atmosphere map should be cheaper than seL4's")
	}
}

func TestFig4ShapeMatchesPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("network sweep in -short mode")
	}
	res, err := Fig4IxgbePerformance()
	if err != nil {
		t.Fatal(err)
	}
	v := map[string]float64{}
	for _, r := range res.Rows {
		v[r.Name] = r.Value
	}
	// The paper's ordering: linux << c1-b1 < c1-b32 < c2 = line rate.
	if !(v["linux (sockets)"] < v["atmo-c1-b1"] &&
		v["atmo-c1-b1"] < v["atmo-c1-b32"] &&
		v["atmo-c1-b32"] < v["atmo-c2-b32"]) {
		t.Fatalf("figure 4 ordering broken: %v", v)
	}
	if v["atmo-c2-b32"] != 14.2 || v["atmo-driver-b32"] != 14.2 {
		t.Fatalf("c2/driver should hit line rate: %v", v)
	}
}

func TestFig5ShapeMatchesPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("storage sweep in -short mode")
	}
	res, err := Fig5NvmePerformance()
	if err != nil {
		t.Fatal(err)
	}
	v := map[string]float64{}
	for _, r := range res.Rows {
		v[r.Name] = r.Value
	}
	// Paper's shapes: linux b1 latency bound ~13K; atmo read b32 at the
	// device envelope, far above linux's CPU-bound 141K; atmo writes at
	// the derated 232K on every configuration.
	if v["read linux-b1"] > 14000 || v["read linux-b1"] < 12000 {
		t.Fatalf("linux b1 = %v", v["read linux-b1"])
	}
	if v["read atmo-driver-b32"] <= v["read linux-b32"]*2 {
		t.Fatal("atmo reads should dwarf linux's CPU-bound rate")
	}
	for _, name := range []string{"write atmo-driver-b32", "write atmo-c2-b32", "write atmo-c1-b32"} {
		if v[name] < 230_000 || v[name] > 234_000 {
			t.Fatalf("%s = %v, want ~232K", name, v[name])
		}
	}
}

func TestMetricFidelityFig6(t *testing.T) {
	if testing.Short() {
		t.Skip("apps sweep in -short mode")
	}
	res, err := Fig6MaglevHttpd()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rows {
		if r.Paper == 0 {
			continue
		}
		// Every cell with a paper value lands within 25% of it.
		if r.Value < r.Paper*0.75 || r.Value > r.Paper*1.25 {
			t.Fatalf("%s = %.2f, paper %.2f (off by more than 25%%)", r.Name, r.Value, r.Paper)
		}
	}
}

func TestFig7ShapeClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("kv sweep in -short mode")
	}
	res, err := Fig7KVStore()
	if err != nil {
		t.Fatal(err)
	}
	v := map[string]float64{}
	for _, r := range res.Rows {
		v[r.Name] = r.Value
	}
	for _, size := range []string{"8B,8B", "16B,16B", "32B,32B"} {
		c2_1 := v["kv atmo-c2 1M/<"+size+">"]
		c2_8 := v["kv atmo-c2 8M/<"+size+">"]
		dp_1 := v["kv dpdk-c 1M/<"+size+">"]
		dp_8 := v["kv dpdk-c 8M/<"+size+">"]
		c1_1 := v["kv atmo-c1-b32 1M/<"+size+">"]
		// Shape: atmo-c2 tracks or beats dpdk; 8M slower than 1M.
		if c2_1 < dp_1 || c2_8 < dp_8 {
			t.Fatalf("%s: atmo-c2 below dpdk (%v/%v vs %v/%v)", size, c2_1, c2_8, dp_1, dp_8)
		}
		if c2_8 >= c2_1 || dp_8 >= dp_1 {
			t.Fatalf("%s: 8M table not slower than 1M", size)
		}
		if c1_1 > c2_1 {
			t.Fatalf("%s: c1-b32 beat c2", size)
		}
	}
}

func TestAblationDirection(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation in -short mode")
	}
	res, err := AblationFlatVsRecursive()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rows {
		if r.Name == "page-table recursive/flat ratio" && r.Value < 1.5 {
			t.Fatalf("PT recursive/flat = %.2f; flat should win clearly", r.Value)
		}
		if r.Name == "container-tree recursive/flat ratio" && r.Value < 1.2 {
			t.Fatalf("tree recursive/flat = %.2f; flat should win", r.Value)
		}
	}
}

func TestDegradedThroughputShape(t *testing.T) {
	if testing.Short() {
		t.Skip("fault sweep in -short mode")
	}
	res, err := DegradedNvmeThroughput(Sinks{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("want 5 rates, got %d", len(res.Rows))
	}
	base := res.Rows[0].Value
	worst := res.Rows[len(res.Rows)-1].Value
	if base < 230_000 {
		t.Fatalf("fault-free writes should sit at the device envelope: %v", base)
	}
	// Shape: the series never increases — fault handling is hidden by
	// the device envelope at low rates, then the retry/backoff work
	// saturates the core and throughput degrades without collapsing.
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].Value > res.Rows[i-1].Value {
			t.Fatalf("series not monotone: %v", res.Rows)
		}
	}
	if worst >= base {
		t.Fatalf("40%% fault rate did not cost anything: base=%v worst=%v", base, worst)
	}
	if worst < base/10 {
		t.Fatalf("throughput collapsed under faults: base=%v worst=%v", base, worst)
	}
}
