// Scale benchmarks for the step path: one benchmark per (graph, scheme)
// cell at n = 2^20 by default, the size of the paper's Section VI runs.
// Each one runs the cell on three runtimes (the shared engine on one
// worker, barrier actor:4 and actor:4,stale=2), each with telemetry off
// and on, so an off/on pair shows what recording costs. Every
// sub-benchmark reports node-updates/s, B/node (the graph, operator and
// engine footprint over n) and allocs/op.
//
// `make bench-scale` runs the grid with -count 3. Set DIFFUSIONLB_SCALE_N
// to shrink the graphs for smoke runs (`make bench-smoke` sets 16384).
// BENCH_7–10.json hold earlier measurements of the same cells.
package diffusionlb_test

import (
	"os"
	"runtime"
	"strconv"
	"testing"

	"diffusionlb/internal/actor"
	"diffusionlb/internal/core"
	"diffusionlb/internal/graph"
	"diffusionlb/internal/hetero"
	"diffusionlb/internal/spectral"
	"diffusionlb/internal/telemetry"
)

// scaleN resolves the benchmark node count (default 2^20).
func scaleN(b *testing.B) int {
	if s := os.Getenv("DIFFUSIONLB_SCALE_N"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			b.Fatalf("bad DIFFUSIONLB_SCALE_N %q", s)
		}
		return n
	}
	return 1 << 20
}

// scaleSide returns the torus side for n (n must be a square-friendly
// power of two; non-squares round the side down).
func scaleSide(n int) int {
	side := 1
	for (side+1)*(side+1) <= n {
		side++
	}
	return side
}

// scaleRuntimes are the runtimes every cell runs on: the shared engine
// and two actor runtime specs.
var scaleRuntimes = []string{"shared", "actor:4", "actor:4,stale=2"}

// scaleEngine is what the timed loop needs of an engine.
type scaleEngine interface {
	Step()
	MemoryFootprint() int64
}

// benchScale runs one (graph, scheme) cell on every runtime, with
// telemetry off and on, from a spread start that keeps flows non-trivial
// for the whole timed window.
func benchScale(b *testing.B, g *graph.Graph, kind core.Kind) {
	n := g.NumNodes()
	op, err := spectral.NewOperator(g, hetero.Homogeneous(n), nil)
	if err != nil {
		b.Fatal(err)
	}
	x0 := make([]int64, n)
	for i := range x0 {
		x0[i] = int64((i*i)%257) * 4
	}
	for _, rt := range scaleRuntimes {
		b.Run("runtime="+rt, func(b *testing.B) {
			for _, on := range []bool{false, true} {
				b.Run("telemetry="+strconv.FormatBool(on), func(b *testing.B) {
					benchScaleCell(b, g, op, kind, rt, on, x0)
				})
			}
		})
	}
}

// benchScaleCell times the steps of one engine. With telemetry on, a live
// RunProbe wraps each step and the actor runtime carries an ActorProbe;
// the gauge inputs are zero, because the O(n) scans behind the Runner's
// gauge values are its own cost, not the telemetry layer's.
func benchScaleCell(b *testing.B, g *graph.Graph, op *spectral.Operator, kind core.Kind, rt string, telemetryOn bool, x0 []int64) {
	var reg *telemetry.Registry
	var tr *telemetry.Trace
	if telemetryOn {
		reg, tr = telemetry.NewRegistry(), telemetry.NewTrace(256)
	}
	probe := telemetry.NewRunProbe(reg, tr) // nil, and free, when off
	var proc scaleEngine
	if rt == "shared" {
		d, err := core.NewDiscrete(core.Config{Op: op, Kind: kind, Beta: 1.9, Workers: 1},
			core.RandomizedRounder{}, 1, x0)
		if err != nil {
			b.Fatal(err)
		}
		proc = d
	} else {
		opts, err := actor.FromSpec(rt)
		if err != nil {
			b.Fatal(err)
		}
		r, err := actor.New(op, kind, 1.9, core.RandomizedRounder{}, 1, x0, opts)
		if err != nil {
			b.Fatal(err)
		}
		r.SetTelemetry(telemetry.NewActorProbe(reg, tr, opts.Actors, false))
		proc = r
	}
	// Warm past the FOS start round and the first-touch page faults, and
	// collect the garbage the build left, so neither lands in the timed
	// window.
	for i := 0; i < 3; i++ {
		proc.Step()
	}
	runtime.GC()
	b.ReportAllocs()
	for round := 0; b.Loop(); round++ {
		sw := probe.StartRound()
		proc.Step()
		sw.Stop()
		probe.RoundCompleted(round, 0, 0, 0, 0)
	}
	n := g.NumNodes()
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "node-updates/s")
	bytes := g.MemoryFootprint() + op.MemoryFootprint() + proc.MemoryFootprint()
	b.ReportMetric(float64(bytes)/float64(n), "B/node")
}

func benchScaleTorus(b *testing.B, kind core.Kind) {
	side := scaleSide(scaleN(b))
	g, err := graph.Torus2D(side, side)
	if err != nil {
		b.Fatal(err)
	}
	benchScale(b, g, kind)
}

func benchScaleRandomRegular(b *testing.B, kind core.Kind) {
	g, err := graph.RandomRegular(scaleN(b), 8, 1)
	if err != nil {
		b.Fatal(err)
	}
	benchScale(b, g, kind)
}

func BenchmarkScaleTorusFOS(b *testing.B)         { benchScaleTorus(b, core.FOS) }
func BenchmarkScaleTorusSOS(b *testing.B)         { benchScaleTorus(b, core.SOS) }
func BenchmarkScaleRandomRegularFOS(b *testing.B) { benchScaleRandomRegular(b, core.FOS) }
func BenchmarkScaleRandomRegularSOS(b *testing.B) { benchScaleRandomRegular(b, core.SOS) }
