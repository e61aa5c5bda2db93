package sweep

import (
	"bytes"
	"context"
	"encoding/csv"
	"strings"
	"testing"
)

// TestWorkloadAxisDeterministicAcrossWorkers is the acceptance criterion of
// the dynamic-workload subsystem: a sweep over -workload scenarios produces
// byte-identical aggregated output for one worker and many.
func TestWorkloadAxisDeterministicAcrossWorkers(t *testing.T) {
	withProcs(t, 8)
	spec := Spec{
		Graphs:     []string{"torus2d:8x8"},
		Schemes:    []string{"sos", "fos"},
		Workloads:  []string{"", "burst:20:6400:0", "poisson:0.5+churn:10:50:50", "adversary:64:4"},
		Replicates: 2,
		Rounds:     60,
		Every:      10,
		BaseSeed:   3,
	}
	var outputs [][]byte
	for _, workers := range []int{1, 8} {
		res, err := Run(context.Background(), spec, Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		outputs = append(outputs, resultJSON(t, res))
	}
	if !bytes.Equal(outputs[0], outputs[1]) {
		t.Fatal("workload sweep output differs across worker counts")
	}
}

// TestWorkloadCellsActuallyInject: a churn-free and a burst cell of the
// same coordinate must diverge, and the burst cell's total_load column must
// show the injected tokens.
func TestWorkloadCellsActuallyInject(t *testing.T) {
	spec := Spec{
		Graphs:    []string{"torus2d:8x8"},
		Schemes:   []string{"sos"},
		Workloads: []string{"", "burst:20:6400:0"},
		Rounds:    40,
		Every:     20,
		BaseSeed:  3,
	}
	res, err := Run(context.Background(), spec, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 2 {
		t.Fatalf("got %d groups, want 2", len(res.Groups))
	}
	static, dynamic := res.Groups[0], res.Groups[1]
	if static.Workload != "" || dynamic.Workload != "burst:20:6400:0" {
		t.Fatalf("group workload labels: %q / %q", static.Workload, dynamic.Workload)
	}
	var totalCol *AggColumn
	for i := range dynamic.Columns {
		if dynamic.Columns[i].Name == "total_load" {
			totalCol = &dynamic.Columns[i]
		}
	}
	if totalCol == nil {
		t.Fatalf("dynamic group lacks the total_load recovery metric (have %v)",
			func() []string {
				var names []string
				for _, c := range dynamic.Columns {
					names = append(names, c.Name)
				}
				return names
			}())
	}
	last := totalCol.Mean[len(totalCol.Mean)-1]
	if last != 64*1000+6400 {
		t.Errorf("final total load %g, want %d", last, 64*1000+6400)
	}
	if !strings.Contains(dynamic.Label(), "burst:20:6400:0") {
		t.Errorf("Label %q does not name the workload", dynamic.Label())
	}
}

// TestWorkloadSpecValidatedUpfront: a malformed workload axis entry fails
// before any cell runs.
func TestWorkloadSpecValidatedUpfront(t *testing.T) {
	spec := Spec{
		Graphs:    []string{"cycle:8"},
		Schemes:   []string{"sos"},
		Workloads: []string{"tsunami:9"},
		Rounds:    10,
	}
	if _, err := Run(context.Background(), spec, Options{}); err == nil {
		t.Fatal("bad workload spec should be rejected")
	}
}

// TestWriteCSVRoundTripsSpecialFields: spec fields containing commas or
// quotes must survive a write/parse round trip instead of corrupting the
// row — the reason the CSV rows go through encoding/csv.
func TestWriteCSVRoundTripsSpecialFields(t *testing.T) {
	res := &Result{Groups: []Group{{
		Graph:       `custom:4,5`,
		Scheme:      "sos",
		Rounder:     `say "hi"`,
		Runtime:     "actor:4,stale=2",
		Speeds:      "twoclass:0.25:4",
		Workload:    "poisson:0.5+churn:10,20",
		Environment: "throttle:at=10,frac=0.25,factor=0.5",
		Scenario:    "correlated:at=10,frac=0.25,factor=0.5,load=100",
		Policy:      "adaptive:16:64,100",
		Beta:        1.5,
		Replicates:  2,
		Switches:    []int{1, 3},
		Rounds:      []int{0, 10},
		Columns: []AggColumn{{
			Name: "metric,with,commas",
			Mean: []float64{1, 2}, Std: []float64{0, 0.5},
			Min: []float64{1, 1.5}, Max: []float64{1, 2.5},
		}},
	}}}
	rows, err := csv.NewReader(bytes.NewReader(resultCSV(t, res))).ReadAll()
	if err != nil {
		t.Fatalf("written CSV does not parse back: %v", err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want header + 2", len(rows))
	}
	for _, row := range rows {
		if len(row) != len(csvHeader) {
			t.Fatalf("row has %d fields, want %d: %v", len(row), len(csvHeader), row)
		}
	}
	first := rows[1]
	if first[0] != `custom:4,5` || first[2] != `say "hi"` ||
		first[3] != "actor:4,stale=2" ||
		first[5] != "poisson:0.5+churn:10,20" ||
		first[6] != "throttle:at=10,frac=0.25,factor=0.5" ||
		first[7] != "correlated:at=10,frac=0.25,factor=0.5,load=100" ||
		first[8] != "adaptive:16:64,100" ||
		first[13] != "metric,with,commas" {
		t.Errorf("fields corrupted in round trip: %v", first)
	}
	if first[11] != "1|3" {
		t.Errorf("switch counts wrong: %v", first[11])
	}
	if first[12] != "0" || rows[2][12] != "10" {
		t.Errorf("round fields wrong: %v / %v", first[12], rows[2][12])
	}
	if first[14] != "1" || rows[2][14] != "2" {
		t.Errorf("mean fields wrong: %v / %v", first[14], rows[2][14])
	}
}

// TestEnvironmentsAxis: environment cells carry the spec label, append the
// ideal-drift/speed-sum metrics, actually reweight (speed_sum moves at the
// event round), leave the shared system operator untouched (private clone),
// and the whole sweep stays byte-identical across worker counts.
func TestEnvironmentsAxis(t *testing.T) {
	withProcs(t, 8)
	spec := Spec{
		Graphs:       []string{"torus2d:8x8"},
		Schemes:      []string{"sos"},
		Speeds:       []string{"twoclass:0.25:4"},
		Environments: []string{"", "throttle:at=20,frac=0.125,factor=0.25"},
		Replicates:   2,
		Rounds:       60,
		Every:        10,
		BaseSeed:     3,
	}
	if got := spec.NumCells(); got != 4 {
		t.Fatalf("NumCells = %d, want 2 environments x 2 replicates", got)
	}
	var outputs [][]byte
	var results []*Result
	for _, workers := range []int{1, 8} {
		res, err := Run(context.Background(), spec, Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		outputs = append(outputs, resultJSON(t, res))
		results = append(results, res)
	}
	if !bytes.Equal(outputs[0], outputs[1]) {
		t.Fatal("environment sweep output differs across worker counts")
	}
	res := results[0]
	if len(res.Groups) != 2 {
		t.Fatalf("got %d groups, want 2", len(res.Groups))
	}
	static, dynamic := res.Groups[0], res.Groups[1]
	if static.Environment != "" || dynamic.Environment != "throttle:at=20,frac=0.125,factor=0.25" {
		t.Fatalf("group environment labels: %q / %q", static.Environment, dynamic.Environment)
	}
	var sumCol *AggColumn
	for i := range dynamic.Columns {
		if dynamic.Columns[i].Name == "speed_sum" {
			sumCol = &dynamic.Columns[i]
		}
	}
	if sumCol == nil {
		t.Fatal("dynamic group lacks the speed_sum environment metric")
	}
	if first, last := sumCol.Mean[0], sumCol.Mean[len(sumCol.Mean)-1]; last >= first {
		t.Errorf("speed_sum %g -> %g; the throttle should have reduced it", first, last)
	}
	for i := range static.Columns {
		if static.Columns[i].Name == "speed_sum" {
			t.Error("static cell grew environment metrics")
		}
	}
	if !strings.Contains(dynamic.Label(), "throttle:at=20") {
		t.Errorf("Label %q does not name the environment", dynamic.Label())
	}
}

// TestEnvironmentSpecValidatedUpfront: a malformed environments axis entry
// fails before any cell runs, and a bad entry cannot silently run static.
func TestEnvironmentSpecValidatedUpfront(t *testing.T) {
	spec := Spec{
		Graphs:       []string{"cycle:8"},
		Schemes:      []string{"sos"},
		Environments: []string{"warp:x=1"},
		Rounds:       10,
	}
	if _, err := Run(context.Background(), spec, Options{}); err == nil {
		t.Fatal("bad environment spec should be rejected")
	}
}

// TestPoliciesAxis: the policies axis expands like the workloads axis, the
// groups carry the policy name and per-replicate switch counts, and an
// adaptive cell under a burst workload actually re-arms (count > 1).
func TestPoliciesAxis(t *testing.T) {
	spec := Spec{
		Graphs:     []string{"torus2d:8x8"},
		Schemes:    []string{"sos"},
		Workloads:  []string{"burst:20:6400:0"},
		Policies:   []string{"", "at:10", "adaptive:8:64:5"},
		Replicates: 2,
		Rounds:     60,
		Every:      10,
		BaseSeed:   3,
	}
	if got := spec.NumCells(); got != 6 {
		t.Fatalf("NumCells = %d, want 3 policies x 2 replicates", got)
	}
	res, err := Run(context.Background(), spec, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 3 {
		t.Fatalf("got %d groups, want 3", len(res.Groups))
	}
	byPolicy := map[string]Group{}
	for _, g := range res.Groups {
		byPolicy[g.Policy] = g
	}
	if g := byPolicy[""]; g.Switches != nil {
		t.Errorf("policy-free group reports switch counts %v", g.Switches)
	}
	if g := byPolicy["at:10"]; len(g.Switches) != 2 || g.Switches[0] != 1 || g.Switches[1] != 1 {
		t.Errorf("at:10 switch counts = %v, want [1 1]", g.Switches)
	}
	ad := byPolicy["adaptive:8:64:5"]
	if len(ad.Switches) != 2 {
		t.Fatalf("adaptive switch counts = %v, want one per replicate", ad.Switches)
	}
	for _, n := range ad.Switches {
		if n < 2 {
			t.Errorf("adaptive cell switched %d times; the burst should have re-armed it at least once", n)
		}
	}
	if !strings.Contains(ad.Label(), "adaptive:8:64:5") {
		t.Errorf("Label %q does not name the policy", ad.Label())
	}
}

// TestScenariosAxis: scenario cells carry the spec label, record the full
// coupled metric set, actually move both sides (total_load spikes on the
// correlated burst, speed_sum drops), leave the shared system operator
// untouched (private clone), and the whole sweep stays byte-identical
// across worker counts.
func TestScenariosAxis(t *testing.T) {
	withProcs(t, 8)
	spec := Spec{
		Graphs:     []string{"torus2d:8x8"},
		Schemes:    []string{"sos"},
		Speeds:     []string{"twoclass:0.25:4"},
		Scenarios:  []string{"", "correlated:at=20,frac=0.125,factor=0.25,load=32000"},
		Replicates: 2,
		Rounds:     60,
		Every:      10,
		BaseSeed:   3,
	}
	if got := spec.NumCells(); got != 4 {
		t.Fatalf("NumCells = %d, want 2 scenarios x 2 replicates", got)
	}
	var outputs [][]byte
	var results []*Result
	for _, workers := range []int{1, 8} {
		res, err := Run(context.Background(), spec, Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		outputs = append(outputs, resultJSON(t, res))
		results = append(results, res)
	}
	if !bytes.Equal(outputs[0], outputs[1]) {
		t.Fatal("scenario sweep output differs across worker counts")
	}
	res := results[0]
	if len(res.Groups) != 2 {
		t.Fatalf("got %d groups, want 2", len(res.Groups))
	}
	static, coupled := res.Groups[0], res.Groups[1]
	if static.Scenario != "" || coupled.Scenario != "correlated:at=20,frac=0.125,factor=0.25,load=32000" {
		t.Fatalf("group scenario labels: %q / %q", static.Scenario, coupled.Scenario)
	}
	col := func(g Group, name string) *AggColumn {
		for i := range g.Columns {
			if g.Columns[i].Name == name {
				return &g.Columns[i]
			}
		}
		return nil
	}
	sumCol, loadCol := col(coupled, "speed_sum"), col(coupled, "total_load")
	if sumCol == nil || loadCol == nil {
		t.Fatal("coupled group lacks the speed_sum/total_load scenario metrics")
	}
	if first, last := sumCol.Mean[0], sumCol.Mean[len(sumCol.Mean)-1]; last >= first {
		t.Errorf("speed_sum %g -> %g; the correlated throttle should have reduced it", first, last)
	}
	if first, last := loadCol.Mean[0], loadCol.Mean[len(loadCol.Mean)-1]; last != first+32000 {
		t.Errorf("total_load %g -> %g; the correlated burst should have added 32000", first, last)
	}
	if col(static, "speed_sum") != nil || col(static, "total_load") != nil {
		t.Error("static cell grew scenario metrics")
	}
	if !strings.Contains(coupled.Label(), "correlated:at=20") {
		t.Errorf("Label %q does not name the scenario", coupled.Label())
	}
}

// TestScenarioSpecValidatedUpfront: malformed scenario entries and
// environment x scenario grids fail before any cell runs.
func TestScenarioSpecValidatedUpfront(t *testing.T) {
	spec := Spec{
		Graphs:    []string{"cycle:8"},
		Schemes:   []string{"sos"},
		Scenarios: []string{"warp:x=1"},
		Rounds:    10,
	}
	if _, err := Run(context.Background(), spec, Options{}); err == nil {
		t.Fatal("bad scenario spec should be rejected")
	}
	spec.Scenarios = []string{"drain:at=5,frac=0.25"}
	spec.Environments = []string{"throttle:at=5,frac=0.25,factor=0.5"}
	if _, err := Run(context.Background(), spec, Options{}); err == nil {
		t.Fatal("environments x scenarios grid should be rejected up front")
	}
	spec.Environments = []string{""}
	if _, err := Run(context.Background(), spec, Options{}); err != nil {
		t.Fatalf("empty environment entries must still combine with scenarios: %v", err)
	}
}
