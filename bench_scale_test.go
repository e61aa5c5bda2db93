// Scale benchmarks for the shard-partitioned step path: one benchmark per
// (graph, scheme) cell of the BENCH grid, at n = 2^20 by default so the
// numbers are comparable with the committed BENCH_7.json (generated by
// `make bench-scale` / cmd/lbbench). Set DIFFUSIONLB_SCALE_N to shrink the
// graphs for smoke runs (`make bench-smoke` sets 16384).
package diffusionlb_test

import (
	"os"
	"strconv"
	"testing"

	"diffusionlb/internal/core"
	"diffusionlb/internal/graph"
	"diffusionlb/internal/hetero"
	"diffusionlb/internal/spectral"
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

func benchScaleStep(b *testing.B, g *graph.Graph, kind core.Kind) {
	b.Helper()
	n := g.NumNodes()
	op, err := spectral.NewOperator(g, hetero.Homogeneous(n), nil)
	if err != nil {
		b.Fatal(err)
	}
	x0 := make([]int64, n)
	for i := range x0 {
		x0[i] = int64((i*i)%257) * 4
	}
	proc, err := core.NewDiscrete(
		core.Config{Op: op, Kind: kind, Beta: 1.9, Workers: 1},
		core.RandomizedRounder{}, 1, x0)
	if err != nil {
		b.Fatal(err)
	}
	// Warm past the FOS start round and the first-touch page faults.
	proc.Step()
	proc.Step()
	b.SetBytes(int64(n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		proc.Step()
	}
	b.StopTimer()
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "node-updates/s")
}

func benchScaleTorus(b *testing.B, kind core.Kind) {
	side := scaleSide(scaleN(b))
	g, err := graph.Torus2D(side, side)
	if err != nil {
		b.Fatal(err)
	}
	benchScaleStep(b, g, kind)
}

func benchScaleRandomRegular(b *testing.B, kind core.Kind) {
	g, err := graph.RandomRegular(scaleN(b), 8, 1)
	if err != nil {
		b.Fatal(err)
	}
	benchScaleStep(b, g, kind)
}

func BenchmarkScaleTorusFOS(b *testing.B)         { benchScaleTorus(b, core.FOS) }
func BenchmarkScaleTorusSOS(b *testing.B)         { benchScaleTorus(b, core.SOS) }
func BenchmarkScaleRandomRegularFOS(b *testing.B) { benchScaleRandomRegular(b, core.FOS) }
func BenchmarkScaleRandomRegularSOS(b *testing.B) { benchScaleRandomRegular(b, core.SOS) }
