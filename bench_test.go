// Benchmarks regenerating every table and figure of the paper plus engine
// micro-benchmarks and the ablations called out in DESIGN.md.
//
// The per-figure benchmarks run the registered experiment at a reduced
// round budget (the full-size reproductions are `lbsim -experiment <id>`
// [-full]); what is measured is the cost of regenerating the artifact's
// series end-to-end, including graph construction, spectral setup, the
// simulation rounds and metric recording.
package diffusionlb_test

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"testing"

	"diffusionlb"
	"diffusionlb/internal/core"
	"diffusionlb/internal/experiments"
	"diffusionlb/internal/metrics"
	"diffusionlb/internal/randx"
	"diffusionlb/internal/spectral"
	"diffusionlb/internal/sweep"
)

// benchParams keeps experiment benchmarks short: same topologies, fewer
// rounds.
func benchParams() experiments.Params {
	return experiments.Params{Seed: 1, RoundsOverride: 120, TableRows: 5}
}

func runExperiment(b *testing.B, id string, p experiments.Params) {
	b.Helper()
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := e.Run(io.Discard, p); err != nil {
			b.Fatal(err)
		}
	}
}

// --- one benchmark per paper artifact ---

func BenchmarkTable1BetaOpt(b *testing.B)           { runExperiment(b, "table1", benchParams()) }
func BenchmarkFig1SOSvsFOSTorus(b *testing.B)       { runExperiment(b, "fig1", benchParams()) }
func BenchmarkFig2InitialLoad(b *testing.B)         { runExperiment(b, "fig2", benchParams()) }
func BenchmarkFig3DiscreteVsIdealized(b *testing.B) { runExperiment(b, "fig3", benchParams()) }
func BenchmarkFig4HybridSwitch(b *testing.B)        { runExperiment(b, "fig4", benchParams()) }
func BenchmarkFig5HybridVsSOS(b *testing.B)         { runExperiment(b, "fig5", benchParams()) }
func BenchmarkFig6ConservationError(b *testing.B)   { runExperiment(b, "fig6", benchParams()) }
func BenchmarkFig7EigenImpact(b *testing.B)         { runExperiment(b, "fig7", benchParams()) }
func BenchmarkFig8SwitchSweep(b *testing.B)         { runExperiment(b, "fig8", benchParams()) }
func BenchmarkFig9Wavefront(b *testing.B)           { runExperiment(b, "fig9", benchParams()) }
func BenchmarkFig11SmoothingFOS(b *testing.B)       { runExperiment(b, "fig11", benchParams()) }
func BenchmarkFig13Hypercube(b *testing.B)          { runExperiment(b, "fig13", benchParams()) }
func BenchmarkFig15TorusEigenOverlay(b *testing.B)  { runExperiment(b, "fig15", benchParams()) }
func BenchmarkNegativeLoadBound(b *testing.B)       { runExperiment(b, "negload", benchParams()) }
func BenchmarkDeviationBounds(b *testing.B)         { runExperiment(b, "deviation", benchParams()) }
func BenchmarkTrafficComparison(b *testing.B)       { runExperiment(b, "traffic", benchParams()) }
func BenchmarkHeterogeneous(b *testing.B)           { runExperiment(b, "hetero", benchParams()) }
func BenchmarkChurnRecovery(b *testing.B)           { runExperiment(b, "churn", benchParams()) }

// Figures 12/14 build expensive random graphs; keep them to tiny instances
// by benchmarking the comparison core directly at reduced scale.
func BenchmarkFig12RandomGraph(b *testing.B) {
	g, err := diffusionlb.RandomRegular(2000, 11, 1)
	if err != nil {
		b.Fatal(err)
	}
	benchComparisonCore(b, g, 60, 12)
}

func BenchmarkFig14RGG(b *testing.B) {
	g, _, err := diffusionlb.RandomGeometric(800, 1, diffusionlb.GeometricOptions{})
	if err != nil {
		b.Fatal(err)
	}
	benchComparisonCore(b, g, 120, 60)
}

// benchComparisonCore regenerates the SOS-vs-FOS-vs-hybrid comparison shape
// of Figures 12-14 on a prebuilt graph.
func benchComparisonCore(b *testing.B, g *diffusionlb.Graph, rounds, switchAt int) {
	b.Helper()
	sys, err := diffusionlb.NewSystem(g, nil)
	if err != nil {
		b.Fatal(err)
	}
	n := g.NumNodes()
	x0, err := diffusionlb.PointLoad(n, 1000*int64(n), 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, cfg := range []struct {
			kind   diffusionlb.Kind
			policy diffusionlb.AdaptivePolicy
		}{
			{diffusionlb.SOS, diffusionlb.NeverSwitch{}},
			{diffusionlb.FOS, diffusionlb.NeverSwitch{}},
			{diffusionlb.SOS, diffusionlb.SwitchAtRound{Round: switchAt}},
		} {
			proc, err := sys.NewDiscrete(cfg.kind, nil, 1, x0)
			if err != nil {
				b.Fatal(err)
			}
			diffusionlb.RunAdaptive(proc, cfg.policy, rounds)
		}
	}
}

// --- sweep-orchestration benchmarks ---

// BenchmarkTable1BetaOptWorkers regenerates Table I with the row cells
// forced serial vs fanned out across all cores: the random-graph rows
// (construction + power iteration) dominate and overlap under the pool.
func BenchmarkTable1BetaOptWorkers(b *testing.B) {
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			p := benchParams()
			p.CellWorkers = workers
			runExperiment(b, "table1", p)
		})
	}
}

// BenchmarkSweepWorkers is the acceptance benchmark for the sweep engine:
// a 16-cell replicate sweep executed with 1 worker vs one per core. The
// aggregated output is bitwise identical across worker counts (pinned by
// TestDeterminismAcrossWorkers); only the wall clock should change.
func BenchmarkSweepWorkers(b *testing.B) {
	spec := sweep.Spec{
		Graphs:     []string{"torus2d:48x48"},
		Schemes:    []string{"sos", "fos"},
		Rounders:   []string{"randomized"},
		Replicates: 8,
		Rounds:     300,
		Every:      30,
		BaseSeed:   1,
	}
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sweep.Run(context.Background(), spec, sweep.Options{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- engine micro-benchmarks ---

func torusBench(b *testing.B, side int) (*diffusionlb.System, []int64) {
	b.Helper()
	g, err := diffusionlb.Torus2D(side, side)
	if err != nil {
		b.Fatal(err)
	}
	sys, err := diffusionlb.NewSystem(g, nil)
	if err != nil {
		b.Fatal(err)
	}
	x0, err := diffusionlb.PointLoad(g.NumNodes(), 1000*int64(g.NumNodes()), 0)
	if err != nil {
		b.Fatal(err)
	}
	return sys, x0
}

func BenchmarkDiscreteStepSOS(b *testing.B) {
	for _, side := range []int{32, 100, 256} {
		b.Run(fmt.Sprintf("torus%dx%d", side, side), func(b *testing.B) {
			sys, x0 := torusBench(b, side)
			proc, err := sys.NewDiscrete(diffusionlb.SOS, nil, 1, x0)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				proc.Step()
			}
			b.ReportMetric(float64(side*side)*float64(b.N)/b.Elapsed().Seconds(), "nodes/s")
		})
	}
}

// BenchmarkDiscreteStepRounders steps a 64×64 torus SOS run from uniform
// random load (avg 1000), so from the first round nearly every node has
// positive flows to round, as in a loaded network.
func BenchmarkDiscreteStepRounders(b *testing.B) {
	for _, name := range []string{"randomized", "floor", "nearest", "bernoulli"} {
		b.Run(name, func(b *testing.B) {
			sys, _ := torusBench(b, 64)
			x0, err := diffusionlb.UniformRandomLoad(64*64, 1000*64*64, 1)
			if err != nil {
				b.Fatal(err)
			}
			r, _ := diffusionlb.RounderByName(name)
			proc, err := sys.NewDiscrete(diffusionlb.SOS, r, 1, x0)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				proc.Step()
			}
		})
	}
}

// BenchmarkDynamicStepSOS measures the dynamic-workload path end to end:
// an SOS step plus a composed mutator (Poisson arrivals, churn, adversary)
// injected between rounds — the per-round cost of a production-shaped run.
func BenchmarkDynamicStepSOS(b *testing.B) {
	for _, side := range []int{32, 100} {
		b.Run(fmt.Sprintf("torus%dx%d", side, side), func(b *testing.B) {
			sys, x0 := torusBench(b, side)
			n := side * side
			proc, err := sys.NewDiscrete(diffusionlb.SOS, nil, 1, x0)
			if err != nil {
				b.Fatal(err)
			}
			wl, err := diffusionlb.WorkloadFromSpec("poisson:0.25+churn:5:200:200+adversary:64:4", n, 1)
			if err != nil {
				b.Fatal(err)
			}
			deltas := make([]int64, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				proc.Step()
				for k := range deltas {
					deltas[k] = 0
				}
				if wl.Deltas(proc.Round(), diffusionlb.IntWorkloadLoads(proc.LoadsInt()), deltas) {
					if err := proc.Inject(deltas); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "nodes/s")
		})
	}
}

func BenchmarkContinuousStepSOS(b *testing.B) {
	sys, x0 := torusBench(b, 100)
	xf := make([]float64, len(x0))
	for i, v := range x0 {
		xf[i] = float64(v)
	}
	proc, err := sys.NewContinuous(diffusionlb.SOS, xf)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		proc.Step()
	}
}

func BenchmarkEngineParallelism(b *testing.B) {
	// DESIGN.md ablation: sequential vs parallel engine (identical output).
	for _, workers := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			g, err := diffusionlb.Torus2D(256, 256)
			if err != nil {
				b.Fatal(err)
			}
			op, err := spectral.NewOperator(g, nil, nil)
			if err != nil {
				b.Fatal(err)
			}
			x0, err := metrics.PointLoad(g.NumNodes(), 1000*int64(g.NumNodes()), 0)
			if err != nil {
				b.Fatal(err)
			}
			proc, err := core.NewDiscrete(core.Config{
				Op: op, Kind: core.SOS, Beta: 1.9, Workers: workers,
			}, nil, 1, x0)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				proc.Step()
			}
		})
	}
}

func BenchmarkPowerIterationLambda(b *testing.B) {
	g, err := diffusionlb.RandomRegular(5000, 12, 1)
	if err != nil {
		b.Fatal(err)
	}
	op, err := spectral.NewOperator(g, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := op.SecondEigenvalue(spectral.PowerOptions{Seed: uint64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGraphConstruction builds one graph per iteration, the random
// families at seed i+1. random-regular-n262144-d8 is the regular-actor
// perfbench graph; n1000-d900 is dense enough that the stub pairing leaves
// many repeated pairs and the swap repair runs long; rgg-n65536 needs the
// giant-component patch and so builds its CSR arrays twice.
func BenchmarkGraphConstruction(b *testing.B) {
	for _, bc := range []struct {
		name  string
		build func(seed uint64) (*diffusionlb.Graph, error)
	}{
		{"torus-256x256", func(uint64) (*diffusionlb.Graph, error) { return diffusionlb.Torus2D(256, 256) }},
		{"hypercube-2^14", func(uint64) (*diffusionlb.Graph, error) { return diffusionlb.Hypercube(14) }},
		{"random-regular-n10k-d12", func(seed uint64) (*diffusionlb.Graph, error) {
			return diffusionlb.RandomRegular(10000, 12, seed)
		}},
		{"random-regular-n262144-d8", func(seed uint64) (*diffusionlb.Graph, error) {
			return diffusionlb.RandomRegular(262144, 8, seed)
		}},
		{"random-regular-n1000-d900", func(seed uint64) (*diffusionlb.Graph, error) {
			return diffusionlb.RandomRegular(1000, 900, seed)
		}},
		{"rgg-n65536", func(seed uint64) (*diffusionlb.Graph, error) {
			g, _, err := diffusionlb.RandomGeometric(65536, seed, diffusionlb.GeometricOptions{})
			return g, err
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := bc.build(uint64(i + 1)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRandomizedRounding rounds one node's positive flows per
// iteration, cycling through a fixed-seed table of 4096 vectors of 1–8
// entries with fractional mass from a few hundredths to nearly one per
// entry, so neither the token count nor the send decisions repeat in a
// pattern the branch predictor can learn.
func BenchmarkRandomizedRounding(b *testing.B) {
	gen := randx.New(7)
	table := make([][]float64, 4096)
	for t := range table {
		yhat := make([]float64, 1+gen.IntN(8))
		mass := gen.Float64() // a node's typical fractional part
		for k := range yhat {
			yhat[k] = float64(gen.IntN(3)) + mass*gen.Float64() + 0.01
		}
		table[t] = yhat
	}
	out := make([]int64, 8)
	rng := randx.New(1)
	r := core.RandomizedRounder{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		yhat := table[i%len(table)]
		o := out[:len(yhat)]
		for k := range o {
			o[k] = 0
		}
		r.RoundNode(yhat, o, rng)
	}
}

func BenchmarkRNGStreams(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s1, s2 := randx.PCGPair(1, uint64(i), 42)
		_ = s1 + s2
	}
}

// --- ablations from DESIGN.md ---

func BenchmarkAblationRounders(b *testing.B) {
	// Final imbalance per rounder at equal round budget: the randomized
	// scheme beats floor (which cannot move sub-token flows) and matches
	// nearest while avoiding its deterministic bias.
	for _, name := range []string{"randomized", "floor", "nearest", "bernoulli"} {
		b.Run(name, func(b *testing.B) {
			var final float64
			for i := 0; i < b.N; i++ {
				sys, x0 := torusBench(b, 32)
				r, _ := diffusionlb.RounderByName(name)
				proc, err := sys.NewDiscrete(diffusionlb.SOS, r, uint64(i+1), x0)
				if err != nil {
					b.Fatal(err)
				}
				diffusionlb.Run(proc, 300)
				final = metrics.MaxMinusAvg(proc.LoadsInt())
			}
			b.ReportMetric(final, "final-max-minus-avg")
		})
	}
}

func BenchmarkAblationBetaSweep(b *testing.B) {
	// Sensitivity of SOS to β around β_opt (≈1.83 on the 32×32 torus).
	sys, x0 := torusBench(b, 32)
	for _, beta := range []float64{1.0, 1.5, sys.Beta(), 1.95} {
		b.Run(fmt.Sprintf("beta=%.4f", beta), func(b *testing.B) {
			var final float64
			for i := 0; i < b.N; i++ {
				proc, err := core.NewDiscrete(core.Config{
					Op: sys.Operator(), Kind: core.SOS, Beta: beta,
				}, nil, uint64(i+1), x0)
				if err != nil {
					b.Fatal(err)
				}
				diffusionlb.Run(proc, 200)
				final = metrics.MaxMinusAvg(proc.LoadsInt())
			}
			b.ReportMetric(final, "final-max-minus-avg")
		})
	}
}

func BenchmarkAblationSwitchPolicies(b *testing.B) {
	policies := []struct {
		name   string
		policy func() diffusionlb.AdaptivePolicy
	}{
		{"never", func() diffusionlb.AdaptivePolicy { return diffusionlb.NeverSwitch{} }},
		{"fixed-round", func() diffusionlb.AdaptivePolicy { return diffusionlb.SwitchAtRound{Round: 150} }},
		{"local-diff", func() diffusionlb.AdaptivePolicy { return diffusionlb.SwitchOnLocalDiff{Threshold: 16} }},
		{"potential-stall", func() diffusionlb.AdaptivePolicy {
			return &diffusionlb.SwitchOnPotentialStall{Window: 25, Factor: 0.01}
		}},
		{"adaptive-band", func() diffusionlb.AdaptivePolicy {
			return &diffusionlb.HysteresisBand{Lo: 16, Hi: 64, Cooldown: 25}
		}},
	}
	for _, pc := range policies {
		b.Run(pc.name, func(b *testing.B) {
			var final float64
			for i := 0; i < b.N; i++ {
				sys, x0 := torusBench(b, 32)
				proc, err := sys.NewDiscrete(diffusionlb.SOS, nil, uint64(i+1), x0)
				if err != nil {
					b.Fatal(err)
				}
				diffusionlb.RunAdaptive(proc, pc.policy(), 400)
				final = metrics.MaxMinusAvg(proc.LoadsInt())
			}
			b.ReportMetric(final, "final-max-minus-avg")
		})
	}
}

func BenchmarkAblationCumulativeBaseline(b *testing.B) {
	// Stateless randomized SOS (the paper's framework) vs the stateful
	// cumulative-flow scheme of [2]: the baseline tracks the continuous
	// process more tightly but must simulate it alongside.
	b.Run("stateless-randomized", func(b *testing.B) {
		sys, x0 := torusBench(b, 64)
		proc, err := sys.NewDiscrete(diffusionlb.SOS, nil, 1, x0)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			proc.Step()
		}
	})
	b.Run("cumulative-flow", func(b *testing.B) {
		sys, x0 := torusBench(b, 64)
		proc, err := sys.NewCumulative(diffusionlb.SOS, x0)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			proc.Step()
		}
	})
}
