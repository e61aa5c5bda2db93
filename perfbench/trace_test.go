package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"diffusionlb/internal/core"
)

// small returns a copy of the named workload shrunk to a test-sized graph,
// keeping its composition and the kinds of events it fires.
func small(t *testing.T, name string) *workloadDef {
	t.Helper()
	w, err := lookupWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	c := *w
	switch name {
	case "torus-static":
		c.graph, c.rounds, c.every = "torus2d:16x16", 20, 5
	case "regular-reopt":
		c.graph, c.rounds = "regular:256:8", 120
		c.env = "throttle:at=30,frac=0.25,factor=0.25,until=70"
	case "torus-dynamic":
		c.graph, c.rounds = "torus2d:16x16", 120
		c.scenario = "cascade:at=10,waves=3,gap=25,frac=0.05,factor=0.25,load=2000,dur=15"
		c.workload = "hotspot:10:500+poisson:0.05"
	case "regular-actor":
		c.graph, c.rounds, c.every = "regular:512:8", 20, 5
	}
	return &c
}

// optional lists every optional interface the Runner, its invariant
// checker and the metrics look for on a process.
var optional = []struct {
	name string
	has  func(any) bool
}{
	{"core.Injector", func(v any) bool { _, ok := v.(core.Injector); return ok }},
	{"core.Retargeter", func(v any) bool { _, ok := v.(core.Retargeter); return ok }},
	{"core.BetaSetter", func(v any) bool { _, ok := v.(core.BetaSetter); return ok }},
	{"core.Sharded", func(v any) bool { _, ok := v.(core.Sharded); return ok }},
	{"core.InFlightReporter", func(v any) bool { _, ok := v.(core.InFlightReporter); return ok }},
	{"core.NonNegativeGuarantor", func(v any) bool { _, ok := v.(core.NonNegativeGuarantor); return ok }},
	{"Injected()", func(v any) bool { _, ok := v.(interface{ Injected() (int64, int64) }); return ok }},
	{"Traffic()", func(v any) bool { _, ok := v.(interface{ Traffic() (int64, int64) }); return ok }},
}

func TestTracedEngineKeepsOptionalInterfaces(t *testing.T) {
	for _, name := range []string{"torus-dynamic", "regular-actor"} {
		t.Run(name, func(t *testing.T) {
			w := small(t, name)
			in, err := w.setup(1, nil)
			if err != nil {
				t.Fatal(err)
			}
			wrapped := traceEngine(in.proc, newTracer(0), w.layer())
			for _, o := range optional {
				if got, want := o.has(wrapped), o.has(in.proc); got != want {
					t.Errorf("%s: wrapper has it = %v, target has it = %v", o.name, got, want)
				}
			}
			// Dropping or re-deriving the layout would move Reweight off the
			// engine's sharded path.
			if got := wrapped.(core.Sharded).ShardLayout(); got != in.proc.ShardLayout() {
				t.Errorf("ShardLayout not forwarded")
			}
		})
	}
	// The actor target is the one with an in-flight term; make sure the
	// test exercises both wrapper shapes.
	w := small(t, "regular-actor")
	in, err := w.setup(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := in.proc.(core.InFlightReporter); !ok {
		t.Fatal("actor runtime no longer reports in-flight load; the test covers one wrapper shape only")
	}
}

func TestTracedSeamWrappersKeepNames(t *testing.T) {
	w := small(t, "torus-dynamic")
	in, err := w.setup(1, newTracer(64))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := w.setup(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, p := in.runner, plain.runner
	if r.Workload.Name() != p.Workload.Name() || r.Adaptive.Name() != p.Adaptive.Name() {
		t.Errorf("workload/policy names changed: %q/%q vs %q/%q",
			r.Workload.Name(), r.Adaptive.Name(), p.Workload.Name(), p.Adaptive.Name())
	}
	for i := range p.Metrics {
		if r.Metrics[i].Name() != p.Metrics[i].Name() {
			t.Errorf("metric %d: %q vs %q", i, r.Metrics[i].Name(), p.Metrics[i].Name())
		}
	}
}

// TestTracedRunBitIdentical runs each workload, shrunk, with and without
// tracing and requires the same sim.Result and final loads bit for bit.
func TestTracedRunBitIdentical(t *testing.T) {
	for _, def := range workloads {
		t.Run(def.name, func(t *testing.T) {
			w := small(t, def.name)
			plain := w.runJob(7, false)
			traced := w.runJob(7, true)
			for _, jr := range []*jobResult{plain, traced} {
				if jr.err != nil {
					t.Fatalf("traced=%v: %v", jr.traced, jr.err)
				}
			}
			if !reflect.DeepEqual(plain.res, traced.res) {
				t.Errorf("sim.Result differs with tracing")
			}
			if plain.digest != traced.digest {
				t.Errorf("digest %016x untraced vs %016x traced", plain.digest, traced.digest)
			}
			if !reflect.DeepEqual(plain.inst.proc.Loads().Int, traced.inst.proc.Loads().Int) {
				t.Errorf("final loads differ with tracing")
			}
			if len(plain.roundNs) != w.rounds || len(plain.roundCPUNs) != w.rounds {
				t.Errorf("untraced job timed %d/%d rounds, want %d", len(plain.roundNs), len(plain.roundCPUNs), w.rounds)
			}
			checkSeamsFired(t, w, traced)
		})
	}
}

// checkSeamsFired makes sure the shrunk run still crosses the seams its
// full-size workload is there to exercise.
func checkSeamsFired(t *testing.T, w *workloadDef, jr *jobResult) {
	t.Helper()
	count := map[string]int{}
	for _, s := range jr.spans {
		count[s.name]++
	}
	want := []string{w.layer() + ".Step", "sim.round", "graph.FromSpec", "metrics.InitialLoad"}
	if w.betaReopt > 0 {
		want = append(want, "core.Retarget", "core.SetBeta", "spectral.SecondEigenvalue")
	}
	if w.scenario != "" {
		want = append(want, "core.Inject", "workload.Deltas", "core.AdaptivePolicy.Decide")
	}
	for _, name := range want {
		if count[name] == 0 {
			t.Errorf("no %s span", name)
		}
	}
	if got := count["sim.round"]; got != w.rounds {
		t.Errorf("%d round spans, want %d", got, w.rounds)
	}
	if got := len(jr.roundNs); got != w.rounds {
		t.Errorf("%d round times, want %d", got, w.rounds)
	}
	if w.betaReopt > 0 && len(jr.res.BetaEvents) == 0 {
		t.Errorf("no beta re-optimisation fired")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json in step with the metrics
// and workloads the program prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var cfg struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &cfg); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range cfg.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, program has %v", names, want)
	}
	for _, c := range []struct {
		got  []metric
		want []metricDef
	}{{cfg.EndToEnd, endToEnd}, {cfg.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%d metrics listed, program prints %d", len(c.got), len(c.want))
			continue
		}
		for i, m := range c.got {
			if m.Name != c.want[i].name || m.Unit != c.want[i].unit {
				t.Errorf("metric %d: %s %s, program prints %s %s", i, m.Name, m.Unit, c.want[i].name, c.want[i].unit)
			}
		}
	}
}

func TestUnstolenKeepsLeastStolen(t *testing.T) {
	ms := time.Millisecond
	ts := []timing{
		{wall: 100 * ms, steal: 0},
		{wall: 100 * ms, steal: 30 * int64(ms)},
		{wall: 100 * ms, steal: 10 * int64(ms)},
		{wall: 100 * ms, steal: 4 * int64(ms)},
	}
	if got := unstolen(ts, 2); !reflect.DeepEqual(got, []int{0, 3}) {
		t.Errorf("unstolen(k=2) = %v, want the two within the share [0 3]", got)
	}
	if got := unstolen(ts, 3); !reflect.DeepEqual(got, []int{0, 3, 2}) {
		t.Errorf("unstolen(k=3) = %v, want the three least stolen [0 3 2]", got)
	}
}
