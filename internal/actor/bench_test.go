package actor_test

import (
	"testing"

	"diffusionlb/internal/actor"
	"diffusionlb/internal/core"
	"diffusionlb/internal/graph"
	"diffusionlb/internal/metrics"
	"diffusionlb/internal/spectral"
)

// BenchmarkActorStep times one barrier round of two actors running FOS on
// regular:65536:8 from uniform random load (average 1000): the z and flux
// exchanges, the halo engine's passes and the per-round actor spawns.
// About half of an expander's arcs cross the cut, so the transport does
// real work every round.
func BenchmarkActorStep(b *testing.B) {
	g, err := graph.RandomRegular(65536, 8, 1)
	if err != nil {
		b.Fatal(err)
	}
	op, err := spectral.NewOperator(g, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	x0, err := metrics.UniformRandomLoad(g.NumNodes(), 1000*int64(g.NumNodes()), 1)
	if err != nil {
		b.Fatal(err)
	}
	a, err := actor.New(op, core.FOS, 1, nil, 1, x0, actor.Options{Actors: 2})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Step()
	}
}
