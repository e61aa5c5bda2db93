package sim

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"diffusionlb/internal/core"
	"diffusionlb/internal/envdyn"
	"diffusionlb/internal/graph"
	"diffusionlb/internal/hetero"
	"diffusionlb/internal/invariants"
	"diffusionlb/internal/metrics"
	"diffusionlb/internal/scenario"
	"diffusionlb/internal/spectral"
	"diffusionlb/internal/telemetry"
	"diffusionlb/internal/workload"
)

// TestRunnerDynamicsDigests pins, bit for bit, everything Runner.Run returns
// and emits when every stage of a round is active at once: a continuous
// lockstep reference on the same operator (with a DeviationFrom column), a
// speed timeline, β re-optimization with a cooldown, a burst+poisson
// workload, an adaptive policy and a live RunProbe. One case takes its
// speed timeline from an Environment (a throttle composed with a drain),
// the other from a Scenario (a drain with restore plus a correlated
// throttle+burst), whose load half is injected before the workload.
//
// Each digest is FNV-64a over the series, the switch, speed, scenario and β
// histories, the stale-β count, the final loads of the process and the
// reference, every trace event in emission order (kind, round, A, B and
// value bits; not Seq or Wall) and the final run gauges.
func TestRunnerDynamicsDigests(t *testing.T) {
	cases := []struct {
		name, env, scn string
		want           string
	}{
		{"environment", "throttle:at=15,frac=0.125,factor=0.25+drain:at=20,frac=0.25,ramp=4", "", "6ecc42734ad2b860"},
		{"scenario", "", "drain:at=15,frac=0.25,ramp=4,restore=45+correlated:at=30,frac=0.125,factor=0.5,load=6000", "44b1378379a5b023"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, res := runDynamicsFixture(t, tc.env, tc.scn)
			if got != tc.want {
				t.Errorf("digest = %s, want %s (switches %v, speed %v, scenario %v, beta %v, stale %d)",
					got, tc.want, res.Switches, res.SpeedEvents, res.ScenarioEvents, res.BetaEvents, res.StaleBetaRounds)
			}
		})
	}
}

// runDynamicsFixture runs the digest fixture with the given environment or
// scenario spec and returns the run's digest and result.
func runDynamicsFixture(t *testing.T, envSpec, scnSpec string) (string, *Result) {
	t.Helper()
	const seed, rounds = 11, 80
	g, err := graph.Torus2D(12, 12)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumNodes()
	sp, err := hetero.SpeedsFromSpec("twoclass:0.25:4", n, seed)
	if err != nil {
		t.Fatal(err)
	}
	op, err := spectral.NewOperator(g, sp, nil)
	if err != nil {
		t.Fatal(err)
	}
	lam, _, err := op.SecondEigenvalue(spectral.PowerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	beta, err := spectral.BetaOpt(lam)
	if err != nil {
		t.Fatal(err)
	}
	x0, err := metrics.PointLoad(n, int64(n)*500, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Op: op, Kind: core.SOS, Beta: beta, Workers: 2}
	proc, err := core.NewDiscrete(cfg, core.RandomizedRounder{}, seed, x0)
	if err != nil {
		t.Fatal(err)
	}
	xf := make([]float64, n)
	for i, v := range x0 {
		xf[i] = float64(v)
	}
	ref, err := core.NewContinuous(cfg, xf)
	if err != nil {
		t.Fatal(err)
	}
	wl, err := workload.FromSpec("burst:20:20000+poisson:0.5", n, seed)
	if err != nil {
		t.Fatal(err)
	}
	env, err := envdyn.FromSpec(envSpec, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	scn, err := scenario.FromSpec(scnSpec, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	policy, err := core.PolicyFromSpec("adaptive:16:64:10")
	if err != nil {
		t.Fatal(err)
	}
	reg, tr := telemetry.NewRegistry(), telemetry.NewTrace(4096)
	r := &Runner{
		Proc:        proc,
		Lockstep:    []core.Process{ref},
		Metrics:     append(append(DefaultMetrics(), ScenarioMetrics()...), DeviationFrom(ref, "dev")),
		Every:       1,
		Adaptive:    policy,
		Workload:    wl,
		BetaReopt:   &BetaReopt{Threshold: 0.05, Cooldown: 12},
		Environment: env,
		Scenario:    scn,
		Telemetry:   telemetry.NewRunProbe(reg, tr),
	}
	res, err := r.Run(rounds)
	if err != nil {
		t.Fatal(err)
	}

	h := fnv.New64a()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	f64 := func(v float64) { word(math.Float64bits(v)) }
	str := func(s string) {
		h.Write([]byte(s))
		h.Write([]byte{0})
	}
	s := res.Series
	for _, name := range s.Names() {
		str(name)
	}
	for i := 0; i < s.Len(); i++ {
		word(uint64(s.Round(i)))
		for _, v := range s.Row(i) {
			f64(v)
		}
	}
	word(uint64(res.SwitchRound))
	word(uint64(len(res.Switches)))
	for _, ev := range res.Switches {
		word(uint64(ev.Round))
		word(uint64(ev.From))
		word(uint64(ev.To))
	}
	word(uint64(len(res.SpeedEvents)))
	for _, ev := range res.SpeedEvents {
		word(uint64(ev.Round))
		word(uint64(ev.Nodes))
		f64(ev.Sum)
	}
	word(uint64(len(res.ScenarioEvents)))
	for _, ev := range res.ScenarioEvents {
		word(uint64(ev.Round))
		word(uint64(ev.Nodes))
		word(uint64(ev.Moved))
		f64(ev.Sum)
	}
	word(uint64(len(res.BetaEvents)))
	for _, ev := range res.BetaEvents {
		word(uint64(ev.Round))
		f64(ev.Lambda)
		f64(ev.Beta)
		f64(ev.Sum)
	}
	word(uint64(res.StaleBetaRounds))
	word(uint64(res.Rounds))
	for _, x := range proc.LoadsInt() {
		word(uint64(x))
	}
	for _, x := range ref.LoadsFloat() {
		f64(x)
	}
	events := tr.Events()
	word(uint64(len(events)))
	for _, e := range events {
		word(uint64(e.Kind))
		word(uint64(e.Round))
		word(uint64(e.A))
		word(uint64(e.B))
		f64(e.Value)
	}
	for _, gv := range telemetry.TakeSnapshot(reg, nil).Gauges {
		str(gv.Name)
		f64(gv.Value)
	}
	return fmt.Sprintf("%016x", h.Sum64()), res
}

// TestTelemetryGaugesAllocFree: the per-round gauges read the same
// discrepancy and potential functions as the metrics without boxing a
// Metric or a closure, so a round with a live RunProbe allocates nothing.
func TestTelemetryGaugesAllocFree(t *testing.T) {
	if invariants.Enabled {
		t.Skip("the invariant checker formats a context string every round")
	}
	g, err := graph.Torus2D(16, 16)
	if err != nil {
		t.Fatal(err)
	}
	op, err := spectral.NewOperator(g, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	x0, err := metrics.PointLoad(g.NumNodes(), 100000, 0)
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(rounds int) float64 {
		return testing.AllocsPerRun(3, func() {
			proc, err := core.NewDiscrete(core.Config{Op: op, Kind: core.SOS, Beta: 1.5}, nil, 1, x0)
			if err != nil {
				t.Fatal(err)
			}
			probe := telemetry.NewRunProbe(telemetry.NewRegistry(), telemetry.NewTrace(64))
			if _, err := (&Runner{Proc: proc, Every: rounds, Telemetry: probe}).Run(rounds); err != nil {
				t.Fatal(err)
			}
		})
	}
	if short, long := allocs(20), allocs(120); long != short {
		t.Errorf("a run allocates %v times over 20 rounds and %v over 120; the gauges must not allocate", short, long)
	}
}

// TestRunnerInjectionAllocFree: a run with a workload and a scenario
// allocates per round only for its Series rows — drawing and injecting the
// deltas and sampling the metrics allocate nothing — so a run of 120 rounds
// and one of 20 differ in allocations exactly as a Series of 121 rows and
// one of 21 do.
func TestRunnerInjectionAllocFree(t *testing.T) {
	if invariants.Enabled {
		t.Skip("the invariant checker formats a context string every round")
	}
	g, err := graph.Torus2D(16, 16)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumNodes()
	x0, err := metrics.PointLoad(n, 100000, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	run := func(rounds int) float64 {
		return testing.AllocsPerRun(3, func() {
			op, err := spectral.NewOperator(g, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			proc, err := core.NewDiscrete(core.Config{Op: op, Kind: core.SOS, Beta: 1.5}, nil, 1, x0)
			if err != nil {
				t.Fatal(err)
			}
			wl, err := workload.FromSpec("poisson:0.5", n, 3)
			if err != nil {
				t.Fatal(err)
			}
			// The scenario fires in round 5 only, so both run lengths record
			// the same events.
			sc, err := scenario.FromSpec("correlated:at=5,frac=0.125,factor=0.25,load=2000", n, 4)
			if err != nil {
				t.Fatal(err)
			}
			r := &Runner{Proc: proc, Workload: wl, Scenario: sc, Metrics: MetricsFor(op.Speeds(), wl, nil, sc)}
			res, err := r.Run(rounds)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.ScenarioEvents) != 1 {
				t.Fatalf("%d scenario events, want 1", len(res.ScenarioEvents))
			}
			names = res.Series.Names()
		})
	}
	rows := func(rounds int) float64 {
		return testing.AllocsPerRun(3, func() {
			s := NewSeries(names...)
			row := make([]float64, len(names))
			for round := 0; round <= rounds; round++ {
				if err := s.Append(round, row...); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
	short, long := run(20), run(120)
	if got, want := long-short, rows(120)-rows(20); got != want {
		t.Errorf("a run allocates %v times over 20 rounds and %v over 120 (+%v); its Series rows account for +%v",
			short, long, got, want)
	}
}
