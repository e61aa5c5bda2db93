package main

import (
	"bytes"
	"flag"
	"fmt"
	"strconv"
	"strings"
	"testing"
)

func TestBuildGraphSpecs(t *testing.T) {
	tests := []struct {
		spec      string
		wantNodes int
		wantErr   bool
	}{
		{"torus2d:8x6", 48, false},
		{"torus:3x3x3", 27, false},
		{"hypercube:5", 32, false},
		{"regular:20:4", 20, false},
		{"rgg:100", 100, false},
		{"cycle:9", 9, false},
		{"path:5", 5, false},
		{"complete:6", 6, false},
		{"grid:4x3", 12, false},
		{"star:11", 11, false},
		{"torus2d:8", 0, true},
		{"hypercube:", 0, true},
		{"bogus:5", 0, true},
		{"torus2d:axb", 0, true},
		{"regular:20", 0, true},
	}
	for _, tc := range tests {
		t.Run(tc.spec, func(t *testing.T) {
			args := []string{"-graph", tc.spec, "-spectrum"}
			if tc.wantErr {
				if err := run(args); err == nil {
					t.Fatalf("-graph %q should fail", tc.spec)
				}
				return
			}
			header := string(runStdout(t, args))
			if want := fmt.Sprintf(" n=%d ", tc.wantNodes); !strings.Contains(header, want) {
				t.Errorf("-graph %q header %q does not show%s", tc.spec, header, want)
			}
		})
	}
}

func TestFlagWasSet(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	a := fs.Int("a", 1, "")
	fs.Int("b", 2, "")
	if err := fs.Parse([]string{"-a", "5"}); err != nil {
		t.Fatal(err)
	}
	if *a != 5 {
		t.Fatal("parse failed")
	}
	if !flagWasSet(fs, "a") {
		t.Error("a was set")
	}
	if flagWasSet(fs, "b") {
		t.Error("b was not set")
	}
}

func TestRunList(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunSpectrum(t *testing.T) {
	if err := run([]string{"-graph", "cycle:12", "-spectrum"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunFreeForm(t *testing.T) {
	if err := run([]string{"-graph", "torus2d:8x8", "-scheme", "sos",
		"-rounder", "randomized", "-rounds", "50", "-policy", "at:20"}); err != nil {
		t.Fatal(err)
	}
	// Continuous and cumulative variants.
	if err := run([]string{"-graph", "cycle:10", "-scheme", "fos",
		"-rounder", "continuous", "-rounds", "20"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-graph", "cycle:10", "-scheme", "sos",
		"-rounder", "cumulative", "-rounds", "20"}); err != nil {
		t.Fatal(err)
	}
	// A seed whose first stub matching the swap repair cannot finish.
	if err := run([]string{"-graph", "regular:4:2", "-seed", "3", "-scheme", "fos", "-rounds", "5"}); err != nil {
		t.Fatal(err)
	}
}

func TestBuildSpeeds(t *testing.T) {
	// The homogeneous network prints no s_max.
	if header := string(runStdout(t, []string{"-graph", "cycle:10", "-spectrum"})); strings.Contains(header, "s_max") {
		t.Errorf("empty spec should give homogeneous speeds, got header %q", header)
	}
	cases := []struct {
		spec    string
		wantMax float64
	}{
		{"twoclass:0.5:4", 4},
		{"range:6", 6},
		{"powerlaw:2.5:8", 8},
		{"single:3:5", 5},
	}
	for _, tc := range cases {
		header := string(runStdout(t, []string{"-graph", "cycle:50", "-speeds", tc.spec, "-spectrum"}))
		_, sMax, ok := strings.Cut(strings.TrimSpace(header), " s_max=")
		if !ok {
			t.Errorf("-speeds %q header %q shows no s_max", tc.spec, header)
			continue
		}
		if v, err := strconv.ParseFloat(sMax, 64); err != nil || v > tc.wantMax+1e-9 {
			t.Errorf("-speeds %q: s_max %s > %g", tc.spec, sMax, tc.wantMax)
		}
	}
	for _, bad := range []string{"twoclass", "twoclass:0.5", "bogus:1", "range:x"} {
		if err := run([]string{"-graph", "cycle:10", "-speeds", bad, "-spectrum"}); err == nil {
			t.Errorf("-speeds %q should fail", bad)
		}
	}
}

func TestRunFreeFormHeterogeneous(t *testing.T) {
	if err := run([]string{"-graph", "torus2d:8x8", "-speeds", "twoclass:0.25:3",
		"-scheme", "fos", "-rounds", "30"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunFreeFormWorkload(t *testing.T) {
	if err := run([]string{"-graph", "torus2d:8x8", "-scheme", "sos",
		"-workload", "burst:10:6400:0+poisson:0.25", "-rounds", "40"}); err != nil {
		t.Fatal(err)
	}
	// The continuous engine accepts injection too.
	if err := run([]string{"-graph", "cycle:10", "-scheme", "fos",
		"-rounder", "continuous", "-workload", "churn:5:20:20", "-rounds", "20"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{},
		{"-experiment", "nope"},
		{"-graph", "torus2d:4x4", "-scheme", "third-order"},
		{"-graph", "torus2d:4x4", "-rounder", "dice"},
		{"-graph", "martian:4"},
		{"-sweep"},
		{"-sweep", "-graph", "cycle:8", "-scheme", "third"},
		{"-sweep", "-graph", "cycle:8", "-beta", "nope"},
		{"-sweep", "-graph", "cycle:8", "-format", "xml"},
		{"-graph", "torus2d:4x4", "-workload", "tsunami:9"},
		{"-graph", "torus2d:4x4", "-workload", "burst:5:10:99"},
		{"-sweep", "-graph", "cycle:8", "-workload", "hotspot:0:5"},
		{"-graph", "cycle:8", "-scheme", "fos", "-rounds", "4", "-every", "-5"},
		{"-sweep", "-graph", "cycle:8", "-scheme", "fos", "-rounds", "4", "-every", "-5", "-format", "csv"},
		{"-experiment", "negload", "-rounds", "-5"},
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("run(%v) should fail", args)
		}
	}
}

func TestRunSweep(t *testing.T) {
	for _, format := range []string{"table", "csv", "json"} {
		args := []string{"-sweep", "-graph", "cycle:12,torus2d:4x4",
			"-scheme", "sos,fos", "-replicates", "2", "-rounds", "30",
			"-every", "10", "-format", format}
		if err := run(args); err != nil {
			t.Errorf("run(%v): %v", args, err)
		}
	}
	// Heterogeneous axis plus explicit beta and switch round.
	if err := run([]string{"-sweep", "-graph", "torus2d:6x6",
		"-speeds", "twoclass:0.25:4", "-beta", "0,1.5",
		"-policy", "at:10", "-rounds", "25", "-format", "csv"}); err != nil {
		t.Fatal(err)
	}
	// Dynamic-workload axis: static vs burst vs composed churn.
	if err := run([]string{"-sweep", "-graph", "torus2d:6x6",
		"-scheme", "sos,fos", "-workload", ";burst:10:3600:0;poisson:0.5+churn:5:20:20",
		"-rounds", "25", "-every", "5", "-format", "csv"}); err != nil {
		t.Fatal(err)
	}
}

func TestSplitListAndParseFloats(t *testing.T) {
	if got := splitList(""); got != nil {
		t.Errorf("splitList(\"\") = %v", got)
	}
	got := splitList("a, b,c")
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Errorf("splitList = %v", got)
	}
	// The workload/env/scenario/policy axes share the ';' splitter, because
	// env and scenario specs contain commas (a comma split would shred a
	// single compose(...) or key=value spec into garbage entries).
	axis := splitAxisList("burst:5:10; correlated:at=5,frac=0.5,factor=0.5,load=10;")
	if len(axis) != 3 || axis[0] != "burst:5:10" ||
		axis[1] != "correlated:at=5,frac=0.5,factor=0.5,load=10" || axis[2] != "" {
		t.Errorf("splitAxisList = %v", axis)
	}
	if got := splitAxisList(""); got != nil {
		t.Errorf("splitAxisList(empty) = %v", got)
	}
	vals, err := parseFloats("0, 1.5")
	if err != nil || len(vals) != 2 || vals[0] != 0 || vals[1] != 1.5 {
		t.Errorf("parseFloats = %v, %v", vals, err)
	}
	if _, err := parseFloats("1,x"); err == nil {
		t.Error("parseFloats should reject non-numbers")
	}
}

func TestRunFreeFormPolicy(t *testing.T) {
	// The adaptive hysteresis band with a mid-run burst: plateau switch,
	// burst re-arm.
	if err := run([]string{"-graph", "torus2d:8x8", "-scheme", "sos",
		"-workload", "burst:20:6400:0", "-policy", "adaptive:8:64:5",
		"-rounds", "60"}); err != nil {
		t.Fatal(err)
	}
	// One-way policies through the same flag.
	if err := run([]string{"-graph", "torus2d:8x8", "-scheme", "sos",
		"-policy", "local:16", "-rounds", "50"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-graph", "torus2d:8x8", "-scheme", "sos",
		"-policy", "stall:10:0.01", "-rounds", "50"}); err != nil {
		t.Fatal(err)
	}
}

func TestPolicyFlagErrors(t *testing.T) {
	cases := [][]string{
		// Malformed specs fail loudly in both modes.
		{"-graph", "torus2d:4x4", "-policy", "warp:9"},
		{"-sweep", "-graph", "cycle:8", "-policy", "adaptive:64:16", "-rounds", "10"},
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("run(%v) should fail", args)
		}
	}
	// The -switch alias is gone: an old command line must error instead of
	// running without a switch.
	err := run([]string{"-graph", "torus2d:4x4", "-switch", "5"})
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -switch") {
		t.Errorf("-switch 5: err = %v, want an unknown-flag error", err)
	}
}

func TestRunFreeFormEnvironment(t *testing.T) {
	// One-shot throttle of the fast class with the adaptive policy: the
	// speed event must flow through the whole free-form stack.
	if err := run([]string{"-graph", "torus2d:8x8", "-speeds", "twoclass:0.25:4",
		"-scheme", "sos", "-env", "throttle:at=20,frac=0.125,factor=0.25",
		"-policy", "adaptive:16:64:10", "-rounds", "60"}); err != nil {
		t.Fatal(err)
	}
	// Jitter on the continuous engine (Retarget on all engine kinds).
	if err := run([]string{"-graph", "cycle:10", "-speeds", "range:4",
		"-scheme", "fos", "-rounder", "continuous",
		"-env", "jitter:sigma=0.1,cap=2", "-rounds", "20"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-graph", "cycle:10", "-speeds", "range:4",
		"-scheme", "sos", "-rounder", "cumulative",
		"-env", "drain:at=5,frac=0.2,ramp=4,restore=12", "-rounds", "20"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunSweepEnvironmentAxis(t *testing.T) {
	// ';'-separated env list: static vs throttle vs composed drain+jitter.
	if err := run([]string{"-sweep", "-graph", "torus2d:6x6",
		"-scheme", "sos", "-speeds", "twoclass:0.25:4",
		"-env", ";throttle:at=10,frac=0.125,factor=0.25;drain:at=5,frac=0.1+jitter:sigma=0.05",
		"-rounds", "25", "-every", "5", "-format", "csv"}); err != nil {
		t.Fatal(err)
	}
}

func TestSpecErrorsPrintGrammar(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-graph", "torus2d:4x4", "-speeds", "warp:9"}, "speeds grammar"},
		{[]string{"-graph", "torus2d:4x4", "-speeds", "twoclass:0.5"}, "speeds grammar"},
		{[]string{"-graph", "torus2d:4x4", "-workload", "tsunami:9"}, "workload grammar"},
		// Specs are checked before the topology is built and λ computed,
		// so the workload error wins over the unknown graph.
		{[]string{"-graph", "martian:4", "-workload", "tsunami:9"}, "workload grammar"},
		// A node index is checked against n only when the run is built.
		{[]string{"-graph", "torus2d:4x4", "-workload", "burst:5:10:99"}, "workload grammar"},
		{[]string{"-graph", "torus2d:4x4", "-policy", "warp:9"}, "policy grammar"},
		{[]string{"-graph", "torus2d:4x4", "-env", "warp:x=1"}, "env grammar"},
		{[]string{"-graph", "torus2d:4x4", "-env", "throttle:frac=0.5"}, "env grammar"},
		{[]string{"-graph", "torus2d:4x4", "-scenario", "tsunami:at=1"}, "scenario grammar"},
		{[]string{"-graph", "torus2d:4x4", "-scenario", "drain:frac=0.5"}, "scenario grammar"},
		// Sweep-mode validation errors carry the grammar too.
		{[]string{"-sweep", "-graph", "cycle:8", "-env", "warp:x=1", "-rounds", "10"}, "env grammar"},
		{[]string{"-sweep", "-graph", "cycle:8", "-workload", "tsunami:9", "-rounds", "10"}, "workload grammar"},
		{[]string{"-sweep", "-graph", "cycle:8", "-speeds", "warp:9", "-rounds", "10"}, "speeds grammar"},
		{[]string{"-sweep", "-graph", "cycle:8", "-policy", "warp:9", "-rounds", "10"}, "policy grammar"},
		{[]string{"-sweep", "-graph", "cycle:8", "-scenario", "warp:x=1", "-rounds", "10"}, "scenario grammar"},
		{[]string{"-sweep", "-graph", "cycle:8", "-runtime", "actor:0", "-rounds", "10"}, "runtime grammar"},
		{[]string{"-graph", "torus2d:axb", "-rounds", "3"}, "graph grammar"},
		{[]string{"-sweep", "-graph", "torus2d:8", "-rounds", "3", "-format", "csv"}, "graph grammar"},
	}
	for _, tc := range cases {
		err := run(tc.args)
		if err == nil {
			t.Errorf("run(%v) should fail", tc.args)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%v) error %q does not show the %s", tc.args, err, tc.want)
		}
	}
}

// TestAvgOverflowRejected: an initial load avg·n beyond int64 fails in
// both modes instead of running on a wrapped-around token count.
func TestAvgOverflowRejected(t *testing.T) {
	const avg = "4611686018427387905" // 2^62 + 1: avg·4 wraps to 4
	for _, args := range [][]string{
		{"-graph", "cycle:4", "-avg", avg, "-scheme", "fos", "-rounds", "2"},
		{"-sweep", "-graph", "cycle:4", "-avg", avg, "-scheme", "fos", "-rounds", "2", "-format", "csv"},
	} {
		if err := run(args); err == nil || !strings.Contains(err.Error(), "overflows int64") {
			t.Errorf("run(%v): err = %v, want an int64 overflow error", args, err)
		}
	}
}

// TestInjectOverflowRejected: a workload that would take one node's load,
// or only the total load, beyond int64 fails the run with the workload and
// the round in the message, instead of printing wrapped-around loads, and
// prints nothing to stdout.
func TestInjectOverflowRejected(t *testing.T) {
	for _, tc := range []struct{ workload, want string }{
		{"burst:1:9223372036854775807",
			`workload "burst:1:9223372036854775807:0" at round 1: core: bad configuration: injecting 9223372036854775807 at node 0 overflows int64 loads`},
		{"burst:1:5000000000000000000+burst:1:5000000000000000000:1",
			`workload "burst:1:5000000000000000000:0+burst:1:5000000000000000000:1" at round 1: core: bad configuration: injection overflows the int64 total load`},
	} {
		args := []string{"-graph", "cycle:4", "-scheme", "fos", "-rounds", "3", "-every", "1", "-avg", "1000", "-workload", tc.workload}
		out, err := captureStdout(t, args)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%v): err = %v, want one containing %q", args, err, tc.want)
		}
		if len(out) != 0 {
			t.Errorf("run(%v) failed but printed %q", args, out)
		}
	}
}

func TestRunFreeFormActorRuntime(t *testing.T) {
	// Barrier actor mode with a workload and the adaptive policy: events
	// route through the message-passing runtime.
	if err := run([]string{"-graph", "torus2d:8x8", "-scheme", "sos",
		"-runtime", "actor:2", "-workload", "burst:10:3200:0",
		"-policy", "adaptive:8:64:5", "-rounds", "40"}); err != nil {
		t.Fatal(err)
	}
	// Bounded-staleness mode on a heterogeneous environment timeline.
	if err := run([]string{"-graph", "torus2d:8x8", "-speeds", "twoclass:0.25:4",
		"-scheme", "fos", "-runtime", "actor:3,stale=2",
		"-env", "throttle:at=10,frac=0.125,factor=0.25", "-rounds", "30"}); err != nil {
		t.Fatal(err)
	}
	// Malformed specs teach the grammar; non-discrete rounders are rejected.
	err := run([]string{"-graph", "cycle:8", "-runtime", "actor:0", "-rounds", "10"})
	if err == nil || !strings.Contains(err.Error(), "runtime grammar") {
		t.Fatalf("actor:0 error %v does not show the runtime grammar", err)
	}
	if err := run([]string{"-graph", "cycle:8", "-runtime", "actor:2",
		"-rounder", "continuous", "-rounds", "10"}); err == nil {
		t.Fatal("-runtime with the continuous rounder should be rejected")
	}
}

func TestRunSweepRuntimeAxis(t *testing.T) {
	// ';'-separated runtime list: shared-memory vs barrier actor vs stale.
	if err := run([]string{"-sweep", "-graph", "torus2d:6x6",
		"-scheme", "sos,fos", "-runtime", ";actor:2;actor:2,stale=1",
		"-rounds", "20", "-every", "10", "-format", "csv"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-sweep", "-graph", "cycle:8",
		"-runtime", "actor:x", "-rounds", "10", "-format", "csv"}); err == nil {
		t.Fatal("malformed sweep -runtime should be rejected")
	}
}

func TestSplitListOn(t *testing.T) {
	got := splitListOn("a,b; c,d", ";")
	if len(got) != 2 || got[0] != "a,b" || got[1] != "c,d" {
		t.Errorf("splitListOn = %v", got)
	}
}

func TestRunSweepPolicyAxis(t *testing.T) {
	if err := run([]string{"-sweep", "-graph", "torus2d:6x6",
		"-scheme", "sos", "-workload", "burst:10:3600:0",
		"-policy", ";at:10;adaptive:8:64:5",
		"-rounds", "30", "-every", "10", "-format", "csv"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunFreeFormScenario(t *testing.T) {
	// Migration-on-drain with the adaptive policy and beta re-optimization:
	// the coupled event and the re-opt must flow through the free-form stack.
	if err := run([]string{"-graph", "torus2d:8x8", "-speeds", "twoclass:0.25:4",
		"-scheme", "sos", "-scenario", "drain:at=15,frac=0.25,ramp=4",
		"-policy", "adaptive:16:64:10", "-betareopt", "0.05",
		"-rounds", "40"}); err != nil {
		t.Fatal(err)
	}
	// Correlated throttle+burst on the continuous engine.
	if err := run([]string{"-graph", "cycle:10", "-speeds", "range:4",
		"-scheme", "sos", "-rounder", "continuous",
		"-scenario", "correlated:at=5,frac=0.2,factor=0.5,load=500", "-rounds", "20"}); err != nil {
		t.Fatal(err)
	}
	// -scenario and -env together must be rejected (scenario owns speeds).
	if err := run([]string{"-graph", "torus2d:4x4", "-speeds", "twoclass:0.25:4",
		"-scenario", "drain:at=5,frac=0.25", "-env", "jitter:sigma=0.1",
		"-rounds", "10"}); err == nil {
		t.Fatal("-scenario with -env should be rejected")
	}
	// A negative re-opt threshold is a typo, not a request.
	if err := run([]string{"-graph", "torus2d:4x4", "-betareopt", "-1",
		"-rounds", "10"}); err == nil {
		t.Fatal("negative -betareopt should be rejected")
	}
	// Without -env or -scenario no speed event ever fires the re-opt.
	if err := run([]string{"-graph", "torus2d:8x8", "-scheme", "sos", "-betareopt", "0.05",
		"-rounds", "5"}); err == nil {
		t.Fatal("-betareopt without -env or -scenario should be rejected")
	}
}

func TestRunSweepScenarioAxis(t *testing.T) {
	// ';'-separated scenario list: none vs drain vs correlated+cascade.
	if err := run([]string{"-sweep", "-graph", "torus2d:6x6",
		"-scheme", "sos", "-speeds", "twoclass:0.25:4",
		"-scenario", ";drain:at=10,frac=0.125,ramp=4;correlated:at=10,frac=0.25,factor=0.5,load=900+cascade:at=15,waves=2,gap=5,frac=0.1,factor=0.5",
		"-rounds", "25", "-every", "5", "-format", "csv"}); err != nil {
		t.Fatal(err)
	}
	// The table format over the same grid.
	if err := run([]string{"-sweep", "-graph", "torus2d:6x6",
		"-scheme", "sos", "-speeds", "twoclass:0.25:4",
		"-scenario", ";drain:at=10,frac=0.125,ramp=4",
		"-rounds", "25", "-every", "5", "-format", "table"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-sweep", "-graph", "cycle:8",
		"-rounds", "10", "-format", "yaml"}); err == nil {
		t.Fatal("-format yaml should be rejected")
	}
	// The JSON format through the CLI.
	if err := run([]string{"-sweep", "-graph", "cycle:8",
		"-scheme", "sos", "-rounds", "10", "-every", "5", "-format", "json"}); err != nil {
		t.Fatal(err)
	}
	// -betareopt has no sweep axis; silently running every cell with a
	// stale beta would be exactly the wrong numbers.
	if err := run([]string{"-sweep", "-graph", "cycle:8",
		"-betareopt", "0.1", "-rounds", "10", "-format", "csv"}); err == nil {
		t.Fatal("-betareopt in -sweep mode should be rejected")
	}
}

// TestSweepFailureKeepsCompletedGroups: a csv sweep whose second group
// overflows at round 1 exits with the overflow error, and its stdout is
// exactly the first group's output, whole, at every worker count.
func TestSweepFailureKeepsCompletedGroups(t *testing.T) {
	const burst = "burst:1:9223372036854775807"
	for _, workers := range []string{"1", "2"} {
		args := func(workload string) []string {
			return []string{"-sweep", "-graph", "torus2d:8x8", "-scheme", "sos", "-rounds", "200",
				"-every", "1", "-workers", workers, "-workload", workload, "-format", "csv"}
		}
		want := runStdout(t, args(""))
		got, err := captureStdout(t, args(";"+burst))
		if err == nil || !strings.Contains(err.Error(), "overflows int64 loads") {
			t.Fatalf("workers=%s: err = %v, want the injection overflow", workers, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("workers=%s: failed sweep printed %d bytes, want the %d bytes of its first group",
				workers, len(got), len(want))
		}
	}
}

// TestSweepUnknownFormatFailsFirst: an unknown -format fails before any
// cell runs, so the injection overflow the grid would hit is never
// reached and nothing is printed.
func TestSweepUnknownFormatFailsFirst(t *testing.T) {
	out, err := captureStdout(t, []string{"-sweep", "-graph", "cycle:4", "-scheme", "fos", "-rounds", "3",
		"-workload", "burst:1:9223372036854775807", "-format", "yaml"})
	if err == nil || !strings.Contains(err.Error(), `unknown -format "yaml"`) {
		t.Errorf("err = %v, want the unknown -format error", err)
	}
	if len(out) != 0 {
		t.Errorf("printed %q before failing", out)
	}
}

// TestSweepTableBannerReplicates: the table banner prints the replicate
// count each group ran, so -replicates 0 (the default, 1) prints 1, and a
// negative count is rejected instead of running one replicate.
func TestSweepTableBannerReplicates(t *testing.T) {
	args := []string{"-sweep", "-graph", "cycle:8", "-scheme", "sos,fos", "-rounds", "10", "-replicates"}
	out := runStdout(t, append(args, "0"))
	if want := "sweep: 2 cells (2 groups x 1 replicates), 10 rounds\n"; !strings.HasPrefix(string(out), want) {
		t.Errorf("-replicates 0 banner: %q, want prefix %q", out, want)
	}
	out, err := captureStdout(t, append(args, "-3"))
	if err == nil || !strings.Contains(err.Error(), "Replicates >= 0") {
		t.Errorf("-replicates -3: err = %v, want a negative-replicates error", err)
	}
	if len(out) != 0 {
		t.Errorf("-replicates -3 printed %q", out)
	}
}
