package core

import (
	"math"
	"testing"

	"diffusionlb/internal/graph"
	"diffusionlb/internal/metrics"
	"diffusionlb/internal/spectral"
)

// TestDeviationShapeSOSvsFOS checks the Theorem 4 vs Theorem 9 shape: on a
// slow-mixing graph the randomized SOS process deviates more from its
// continuous counterpart than randomized FOS does (the SOS bound carries
// (1−λ)^{-3/4} vs (1−λ)^{-1/2}), while both stay modest in absolute terms.
func TestDeviationShapeSOSvsFOS(t *testing.T) {
	op := torusOp(t, 20, 20)
	beta := betaFor(t, op)
	n := 400
	x0, err := metrics.PointLoad(n, int64(n)*1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	x0f := make([]float64, n)
	for i, v := range x0 {
		x0f[i] = float64(v)
	}
	maxDev := func(kind Kind) float64 {
		cfg := Config{Op: op, Kind: kind, Beta: beta}
		// Average the worst deviation over several seeds to damp noise.
		var acc float64
		const seeds = 5
		for s := uint64(1); s <= seeds; s++ {
			disc, err := NewDiscrete(cfg, RandomizedRounder{}, s, x0)
			if err != nil {
				t.Fatal(err)
			}
			cont, err := NewContinuous(cfg, x0f)
			if err != nil {
				t.Fatal(err)
			}
			var worst float64
			for round := 0; round < 400; round++ {
				disc.Step()
				cont.Step()
				dev, err := metrics.DeviationInf(disc.LoadsInt(), cont.LoadsFloat())
				if err != nil {
					t.Fatal(err)
				}
				if dev > worst {
					worst = dev
				}
			}
			acc += worst
		}
		return acc / seeds
	}
	fosDev := maxDev(FOS)
	sosDev := maxDev(SOS)
	t.Logf("mean worst deviation: FOS=%.2f SOS=%.2f", fosDev, sosDev)
	if sosDev < fosDev {
		t.Errorf("expected SOS deviation (%.2f) >= FOS deviation (%.2f) on the torus", sosDev, fosDev)
	}
	if sosDev > 200 {
		t.Errorf("SOS deviation %.2f implausibly large for a 20x20 torus", sosDev)
	}
}

// TestDiscreteStateless verifies the paper's statelessness claim
// (Section II, Result I): the flows of round t are a function of only
// (x_D(t), y_D(t−1)) and the rounding randomness — so a second process
// whose state is forced to match at round r produces identical flows from
// round r on.
func TestDiscreteStateless(t *testing.T) {
	op := torusOp(t, 6, 6)
	x0, err := metrics.PointLoad(36, 36*500, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Op: op, Kind: SOS, Beta: 1.8}
	p1, err := NewDiscrete(cfg, RandomizedRounder{}, 99, x0)
	if err != nil {
		t.Fatal(err)
	}
	const r = 17
	Run(p1, r)
	// Second process from identical intermediate state: same loads, same
	// previous flows, same seed/round counter is emulated by replaying the
	// whole prefix (the engine draws rounding streams keyed by round).
	p2, err := NewDiscrete(cfg, RandomizedRounder{}, 99, x0)
	if err != nil {
		t.Fatal(err)
	}
	Run(p2, r)
	for round := r; round < r+20; round++ {
		p1.Step()
		p2.Step()
		f1, f2 := p1.Flows(), p2.Flows()
		for a := range f1 {
			if f1[a] != f2[a] {
				t.Fatalf("round %d: flows diverged at arc %d", round, a)
			}
		}
	}
}

// TestDiscreteSeedSensitivity: different seeds give different randomized
// trajectories but identical totals and similar convergence.
func TestDiscreteSeedSensitivity(t *testing.T) {
	op := torusOp(t, 10, 10)
	x0, err := metrics.PointLoad(100, 100*1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Op: op, Kind: SOS, Beta: 1.8}
	run := func(seed uint64) []int64 {
		p, err := NewDiscrete(cfg, RandomizedRounder{}, seed, x0)
		if err != nil {
			t.Fatal(err)
		}
		Run(p, 100)
		out := make([]int64, len(p.LoadsInt()))
		copy(out, p.LoadsInt())
		return out
	}
	a, b := run(1), run(2)
	same := true
	var totA, totB int64
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
		totA += a[i]
		totB += b[i]
	}
	if same {
		t.Error("different seeds produced identical randomized trajectories")
	}
	if totA != totB || totA != 100*1000*100/1000*10 { // 100 nodes * 1000 avg
		// recompute plainly:
		if totA != int64(100)*1000 {
			t.Errorf("totals: %d vs %d", totA, totB)
		}
	}
}

// TestObservation3GammaAlpha exercises the α = 1/(γd) family on a regular
// graph (Observation 3 setting): the process balances and conserves.
func TestObservation3GammaAlpha(t *testing.T) {
	g, err := graph.Hypercube(6)
	if err != nil {
		t.Fatal(err)
	}
	op, err := spectral.NewOperator(g, nil, spectral.GammaDegreeAlpha{Gamma: 2})
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumNodes()
	x0, err := metrics.PointLoad(n, int64(n)*200, 0)
	if err != nil {
		t.Fatal(err)
	}
	proc, err := NewDiscrete(Config{Op: op, Kind: FOS}, RandomizedRounder{}, 3, x0)
	if err != nil {
		t.Fatal(err)
	}
	want := proc.TotalLoad()
	rounds, ok := RunUntil(proc, 2000, ConvergedWithin(10))
	if !ok {
		t.Fatalf("gamma-alpha FOS did not converge; discrepancy %g",
			metrics.Discrepancy(proc.LoadsInt()))
	}
	if proc.TotalLoad() != want {
		t.Error("conservation violated")
	}
	t.Logf("hypercube with alpha=1/(2d): converged in %d rounds", rounds)
}

// TestContinuousParallelMatchesSequential: the float engine is also
// bit-identical across worker counts (per-node update order is fixed).
func TestContinuousParallelMatchesSequential(t *testing.T) {
	g, err := graph.Torus2D(40, 40)
	if err != nil {
		t.Fatal(err)
	}
	op, err := spectral.NewOperator(g, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	x0 := make([]float64, 1600)
	x0[0] = 1600 * 1000
	run := func(workers int) []float64 {
		p, err := NewContinuous(Config{Op: op, Kind: SOS, Beta: 1.9, Workers: workers}, x0)
		if err != nil {
			t.Fatal(err)
		}
		Run(p, 80)
		out := make([]float64, len(p.LoadsFloat()))
		copy(out, p.LoadsFloat())
		return out
	}
	seq := run(1)
	par := run(8)
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("continuous engine differs at node %d: %g vs %g (must be bit-identical)",
				i, seq[i], par[i])
		}
	}
}

// TestFloorRounderNeverNegative: always-round-down cannot overdraw a node
// that starts non-negative with FOS (flows sum below the node's share).
func TestFloorRounderNeverNegative(t *testing.T) {
	op := torusOp(t, 8, 8)
	x0, err := metrics.UniformRandomLoad(64, 64*50, 7)
	if err != nil {
		t.Fatal(err)
	}
	proc, err := NewDiscrete(Config{Op: op, Kind: FOS}, FloorRounder{}, 1, x0)
	if err != nil {
		t.Fatal(err)
	}
	Run(proc, 300)
	minT, ok := proc.MinTransientInt()
	if !ok {
		t.Fatal("no rounds ran")
	}
	if minT < 0 {
		t.Errorf("floor-rounded FOS went transiently negative: %d", minT)
	}
}

// TestCumulativeSOSDeviationBeatsStateless: the [2]-style scheme tracks the
// continuous process more tightly than the stateless randomized scheme on
// the same graph/seed — the O(d) vs Υ·√(d log n) separation, in shape.
func TestCumulativeSOSDeviationBeatsStateless(t *testing.T) {
	op := torusOp(t, 16, 16)
	beta := betaFor(t, op)
	n := 256
	x0, err := metrics.PointLoad(n, int64(n)*1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	x0f := make([]float64, n)
	for i, v := range x0 {
		x0f[i] = float64(v)
	}
	cfg := Config{Op: op, Kind: SOS, Beta: beta}

	cum, err := NewCumulativeDiscrete(cfg, x0)
	if err != nil {
		t.Fatal(err)
	}
	var cumWorst float64
	for round := 0; round < 300; round++ {
		cum.Step()
		dev, err := metrics.DeviationInf(cum.LoadsInt(), cum.Reference().LoadsFloat())
		if err != nil {
			t.Fatal(err)
		}
		if dev > cumWorst {
			cumWorst = dev
		}
	}

	disc, err := NewDiscrete(cfg, RandomizedRounder{}, 1, x0)
	if err != nil {
		t.Fatal(err)
	}
	cont, err := NewContinuous(cfg, x0f)
	if err != nil {
		t.Fatal(err)
	}
	var rndWorst float64
	for round := 0; round < 300; round++ {
		disc.Step()
		cont.Step()
		dev, err := metrics.DeviationInf(disc.LoadsInt(), cont.LoadsFloat())
		if err != nil {
			t.Fatal(err)
		}
		if dev > rndWorst {
			rndWorst = dev
		}
	}
	t.Logf("worst deviation: cumulative=%.2f stateless-randomized=%.2f", cumWorst, rndWorst)
	if cumWorst > rndWorst {
		t.Errorf("cumulative scheme (%.2f) should track the continuous process at least as tightly as the stateless scheme (%.2f)",
			cumWorst, rndWorst)
	}
}

// TestHybridOnExpanderBarelyHelps mirrors the paper's Section VI-B finding:
// on expander-like graphs (hypercube), SOS ≈ FOS and switching changes
// little.
func TestHybridOnExpanderBarelyHelps(t *testing.T) {
	g, err := graph.Hypercube(8)
	if err != nil {
		t.Fatal(err)
	}
	op := testOperator(t, g, nil)
	lam, err := spectral.AnalyticHypercubeLambda(8)
	if err != nil {
		t.Fatal(err)
	}
	beta, err := spectral.BetaOpt(lam)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumNodes()
	x0, err := metrics.PointLoad(n, int64(n)*1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Op: op, Kind: SOS, Beta: beta}
	run := func(policy AdaptivePolicy) float64 {
		p, err := NewDiscrete(cfg, RandomizedRounder{}, 5, x0)
		if err != nil {
			t.Fatal(err)
		}
		RunAdaptive(p, policy, 150)
		return metrics.MaxMinusAvg(p.LoadsInt())
	}
	pure := run(NeverSwitch{})
	hybrid := run(SwitchAtRound{Round: 40})
	t.Logf("hypercube final max-avg: pure SOS=%.0f hybrid=%.0f", pure, hybrid)
	if math.Abs(pure-hybrid) > 4 {
		t.Errorf("on the hypercube the hybrid gain should be marginal: pure=%.0f hybrid=%.0f", pure, hybrid)
	}
}
