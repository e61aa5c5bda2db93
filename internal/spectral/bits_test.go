package spectral

import (
	"fmt"
	"math"
	"testing"

	"diffusionlb/internal/graph"
	"diffusionlb/internal/hetero"
)

// TestSecondEigenvalueBits pins the exact bits of (λ, signed) that power
// iteration returns, so any rewrite of the iteration kernel must keep every
// floating-point accumulation in its order: β_opt and every SOS trajectory
// downstream are functions of these bits. The cases cover regular and
// irregular graphs (unequal row lengths, odd n), homogeneous and three
// heterogeneous speed profiles, and K_n, whose deflated operator is zero
// (the early norm == 0 return). Each runs under the default options and
// under Tol 1e-10, the setting sweeps and experiments use.
func TestSecondEigenvalueBits(t *testing.T) {
	cases := []struct {
		graph, speeds  string
		tol            float64
		lambda, signed uint64
	}{
		{"torus2d:6x6", "", 0, 0x3fe99999999963b7, 0x3fe9999999994ba7},
		{"torus2d:6x6", "", 1e-10, 0x3fe999999984992b, 0x3fe99999997b3805},
		{"hypercube:6", "", 0, 0x3fe6db6db6db5678, 0x3fe527d2ece7adfd},
		{"hypercube:6", "", 1e-10, 0x3fe6db6db6d60572, 0x3fe527d2ecdfb905},
		{"regular:1024:8", "twoclass:0.25:4", 0, 0x3fec53bcd598bde0, 0x3fec53bcd598ad57},
		{"regular:1024:8", "twoclass:0.25:4", 1e-10, 0x3fec53bcba0c2323, 0x3fec53bcba05adeb},
		{"regular:1024:8", "", 0, 0x3fe638a59e03aebf, 0x3fe638a59e03a021},
		{"regular:1024:8", "", 1e-10, 0x3fe638a598ceded9, 0x3fe638a598c92e4e},
		{"star:33", "", 0, 0x3fef07c1f07c1f08, 0x3fef07c1f07c1f08},
		{"star:33", "", 1e-10, 0x3fef07c1f07c1f08, 0x3fef07c1f07c1f08},
		{"path:31", "", 0, 0x3fefe3facb434e61, 0x3fefe3facb433d4a},
		{"path:31", "", 1e-10, 0x3fefe3fac62d2d5b, 0x3fefe3fac6266529},
		{"grid:7x5", "range:3", 0, 0x3fef4faaad0c3c13, 0x3fef4faaad0c2b95},
		{"grid:7x5", "range:3", 1e-10, 0x3fef4faaaa3fe4cf, 0x3fef4faaaa393cb3},
		{"rgg:500", "powerlaw:2.5:8", 0, 0x3feff6709edd11b4, 0x3feff6709edd0023},
		{"rgg:500", "powerlaw:2.5:8", 1e-10, 0x3feff6701c61a082, 0x3feff6701c5ac351},
		{"complete:16", "", 0, 0, 0},
		{"complete:16", "", 1e-10, 0, 0},
	}
	for _, c := range cases {
		speeds := c.speeds
		if speeds == "" {
			speeds = "homogeneous"
		}
		t.Run(fmt.Sprintf("%s/%s/tol=%g", c.graph, speeds, c.tol), func(t *testing.T) {
			g, err := graph.FromSpec(c.graph, 1)
			if err != nil {
				t.Fatal(err)
			}
			sp, err := hetero.SpeedsFromSpec(c.speeds, g.NumNodes(), 2)
			if err != nil {
				t.Fatal(err)
			}
			lam, signed, err := mustOp(t, g, sp, nil).SecondEigenvalue(PowerOptions{Tol: c.tol})
			if err != nil {
				t.Fatal(err)
			}
			if got := math.Float64bits(lam); got != c.lambda {
				t.Errorf("lambda bits 0x%016x (%.17g), want 0x%016x (%.17g)",
					got, lam, c.lambda, math.Float64frombits(c.lambda))
			}
			if got := math.Float64bits(signed); got != c.signed {
				t.Errorf("signed bits 0x%016x (%.17g), want 0x%016x (%.17g)",
					got, signed, c.signed, math.Float64frombits(c.signed))
			}
		})
	}
}

// TestAnalyticTorus2DLambdaBits pins the exact bits of the analytic torus λ
// on the paper-scale square, the dynamic-workload square and a non-square
// torus, so the cosine evaluation can be restructured without moving β.
func TestAnalyticTorus2DLambdaBits(t *testing.T) {
	for _, c := range []struct {
		w, h int
		bits uint64
	}{
		{1024, 1024, 0x3feffff0356c376e},
		{128, 128, 0x3feffc0d8e309232},
		{96, 37, 0x3feff8fbef443e82},
	} {
		lam, err := AnalyticTorus2DLambda(c.w, c.h)
		if err != nil {
			t.Fatal(err)
		}
		if got := math.Float64bits(lam); got != c.bits {
			t.Errorf("%dx%d: lambda bits 0x%016x (%.17g), want 0x%016x",
				c.w, c.h, got, lam, c.bits)
		}
	}
}
