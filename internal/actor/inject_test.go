package actor_test

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"diffusionlb/internal/actor"
	"diffusionlb/internal/core"
	"diffusionlb/internal/graph"
	"diffusionlb/internal/spectral"
)

// TestInjectRejectsInt64Overflow: on every integer engine — the shared-memory
// kernel, the cumulative baseline and the actor runtime, which runs the same
// kernel — an injection that would take a node's load or the total load out
// of int64 is a core.ErrBadConfig that changes nothing, and an in-range
// injection lands.
func TestInjectRejectsInt64Overflow(t *testing.T) {
	g, err := graph.Torus2D(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	op, err := spectral.NewOperator(g, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumNodes()
	x0 := make([]int64, n)
	for i := range x0 {
		x0[i] = 10
	}
	x0[7] = -10
	cfg := core.Config{Op: op, Kind: core.SOS, Beta: 1.5}
	disc, err := core.NewDiscrete(cfg, nil, 1, x0)
	if err != nil {
		t.Fatal(err)
	}
	cum, err := core.NewCumulativeDiscrete(cfg, x0)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := actor.New(op, core.SOS, 1.5, nil, 1, x0, actor.Options{Actors: 2})
	if err != nil {
		t.Fatal(err)
	}
	engines := []struct {
		name string
		proc interface {
			core.Injector
			core.Process
		}
		checkpoint func() any
		total      func() int64
	}{
		{"discrete", disc, func() any { return disc.Checkpoint() }, disc.TotalLoad},
		{"cumulative", cum, func() any { return cum.Checkpoint() }, cum.TotalLoad},
		{"actor:2", rt, func() any { return rt.Checkpoint() }, rt.TotalLoad},
	}
	at := func(pairs ...int64) []int64 {
		d := make([]int64, n)
		for i := 0; i < len(pairs); i += 2 {
			d[pairs[i]] = pairs[i+1]
		}
		return d
	}
	rejected := []struct {
		what   string
		deltas []int64
		want   string
	}{
		{"per-node overflow", at(5, math.MaxInt64), "injecting 9223372036854775807 at node 5 overflows int64 loads"},
		{"per-node underflow", at(3, -10, 7, math.MinInt64), "injecting -9223372036854775808 at node 7 overflows int64 loads"},
		{"total-only overflow", at(0, math.MaxInt64-100, 1, math.MaxInt64-100), "overflows the int64 total load"},
		{"total-only underflow", at(0, math.MinInt64+100, 1, math.MinInt64+100), "overflows the int64 total load"},
	}
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			for _, tc := range rejected {
				before := e.checkpoint()
				err := e.proc.Inject(tc.deltas)
				if !errors.Is(err, core.ErrBadConfig) || !strings.Contains(err.Error(), tc.want) {
					t.Errorf("%s: Inject error %v, want a core.ErrBadConfig containing %q", tc.what, err, tc.want)
				}
				if after := e.checkpoint(); !reflect.DeepEqual(after, before) {
					t.Errorf("rejected %s mutated the engine", tc.what)
				}
			}
			total := e.total()
			if err := e.proc.Inject(at(0, 1<<40, 9, -5)); err != nil {
				t.Fatalf("in-range Inject: %v", err)
			}
			if got, want := e.total(), total+1<<40-5; got != want {
				t.Errorf("total load after an in-range injection %d, want %d", got, want)
			}
		})
	}
}
