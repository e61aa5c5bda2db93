package sim

import (
	"testing"

	"diffusionlb/internal/core"
	"diffusionlb/internal/graph"
	"diffusionlb/internal/hetero"
	"diffusionlb/internal/metrics"
	"diffusionlb/internal/spectral"
	"diffusionlb/internal/telemetry"
)

// frozen is a process whose Step does nothing, so a Runner driving it
// spends each round on its own stages alone.
type frozen struct{ core.Process }

func (frozen) Step() {}

// BenchmarkRunnerSampling times the Runner's per-round observation work on
// the shape of perfbench's torus-dynamic: the telemetry gauges plus one
// recorded row of that workload's metric set (the default trio, the
// recovery trio and the drift pair) on a 128×128 torus with heterogeneous
// speeds. The process never steps, so every round samples the same loads.
func BenchmarkRunnerSampling(b *testing.B) {
	g, err := graph.Torus2D(128, 128)
	if err != nil {
		b.Fatal(err)
	}
	n := g.NumNodes()
	sp, err := hetero.SpeedsFromSpec("twoclass:0.25:4", n, 1)
	if err != nil {
		b.Fatal(err)
	}
	op, err := spectral.NewOperator(g, sp, nil)
	if err != nil {
		b.Fatal(err)
	}
	x0, err := metrics.UniformRandomLoad(n, 1000*int64(n), 1)
	if err != nil {
		b.Fatal(err)
	}
	proc, err := core.NewDiscrete(core.Config{Op: op, Kind: core.SOS, Beta: 1.5}, nil, 1, x0)
	if err != nil {
		b.Fatal(err)
	}
	ms := append(append(DefaultMetrics(), DynamicMetrics()...), EnvironmentMetrics()...)
	r := &Runner{Proc: frozen{proc}, Metrics: ms,
		Telemetry: telemetry.NewRunProbe(telemetry.NewRegistry(), telemetry.NewTrace(64))}
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := r.Run(b.N); err != nil {
		b.Fatal(err)
	}
}
