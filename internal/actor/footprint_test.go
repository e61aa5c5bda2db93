package actor_test

import (
	"testing"

	"diffusionlb/internal/actor"
	"diffusionlb/internal/core"
	"diffusionlb/internal/graph"
	"diffusionlb/internal/spectral"
)

// TestMemoryFootprintPerNode pins the bytes each engine keeps, so a per-arc
// or per-link array that comes back fails here before it shows in a peak
// RSS. The shared engine keeps loads, two flow buffers and z (80 B/node on
// a degree-4 torus, 144 at degree 8) plus one shard's scratch; the actor
// runtime adds its halo maps and ghost slots and, per link, the index
// lists and S+1 version rows.
func TestMemoryFootprintPerNode(t *testing.T) {
	for _, tc := range []struct {
		graph, runtime string
		want           int64
	}{
		{"torus2d:64x64", "core", 329072},
		{"regular:4096:8", "core", 591296},
		{"regular:4096:8", "actor:1", 886208},
		{"regular:4096:8", "actor:2", 1300772},
		{"regular:4096:8", "actor:4,stale=2", 2181320},
	} {
		t.Run(tc.graph+"/"+tc.runtime, func(t *testing.T) {
			g, err := graph.FromSpec(tc.graph, 1)
			if err != nil {
				t.Fatal(err)
			}
			op, err := spectral.NewOperator(g, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			x0 := goldenInitial(g.NumNodes())
			var p interface{ MemoryFootprint() int64 }
			if tc.runtime == "core" {
				p, err = core.NewDiscrete(core.Config{Op: op, Kind: core.SOS, Beta: 1.5}, nil, 1, x0)
			} else {
				var opts actor.Options
				if opts, err = actor.FromSpec(tc.runtime); err != nil {
					t.Fatal(err)
				}
				p, err = actor.New(op, core.SOS, 1.5, nil, 1, x0, opts)
			}
			if err != nil {
				t.Fatal(err)
			}
			n := float64(g.NumNodes())
			if got := p.MemoryFootprint(); got != tc.want {
				t.Errorf("MemoryFootprint = %d B (%.2f B/node), want %d B (%.2f B/node)",
					got, float64(got)/n, tc.want, float64(tc.want)/n)
			}
		})
	}
}
