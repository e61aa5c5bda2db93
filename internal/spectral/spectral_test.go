package spectral

import (
	"math"
	"testing"
	"testing/quick"

	"diffusionlb/internal/eigen"
	"diffusionlb/internal/graph"
	"diffusionlb/internal/hetero"
	"diffusionlb/internal/randx"
)

func mustOp(t *testing.T, g *graph.Graph, sp *hetero.Speeds, rule AlphaRule) *Operator {
	t.Helper()
	op, err := NewOperator(g, sp, rule)
	if err != nil {
		t.Fatal(err)
	}
	return op
}

func TestMaxDegreeAlphaTorus(t *testing.T) {
	g, err := graph.Torus2D(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	op := mustOp(t, g, nil, nil)
	for a := 0; a < g.NumArcs(); a++ {
		if op.AlphaArc(a) != 0.2 {
			t.Fatalf("alpha[%d] = %g, want 0.2 on a 4-regular torus", a, op.AlphaArc(a))
		}
	}
}

func TestOperatorColumnStochastic(t *testing.T) {
	// Column sums of M must be exactly 1 (load conservation), for both
	// homogeneous and heterogeneous speeds and irregular graphs.
	g, err := graph.ErdosRenyi(30, 0.3, 7)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := hetero.UniformRange(30, 5, 11)
	if err != nil {
		t.Fatal(err)
	}
	for _, spc := range []*hetero.Speeds{nil, sp} {
		op := mustOp(t, g, spc, nil)
		m := op.Dense()
		for j, s := range m.ColumnSums() {
			if math.Abs(s-1) > 1e-12 {
				t.Fatalf("column %d sums to %g, want 1", j, s)
			}
		}
		// All entries non-negative.
		for _, v := range m.Data {
			if v < -1e-15 {
				t.Fatalf("negative entry %g in M", v)
			}
		}
	}
}

func TestMulVecMatchesDense(t *testing.T) {
	g, err := graph.RandomRegular(40, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := hetero.TwoClass(40, 0.3, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	op := mustOp(t, g, sp, nil)
	m := op.Dense()
	rng := randx.New(99)
	x := make([]float64, 40)
	for i := range x {
		x[i] = rng.Float64()*100 - 50
	}
	want, err := m.MulVec(x, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := op.MulVec(x, nil)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("MulVec[%d] = %g, dense = %g", i, got[i], want[i])
		}
	}
	// Transpose product against dense transpose.
	mt := m.Transpose()
	wantT, err := mt.MulVec(x, nil)
	if err != nil {
		t.Fatal(err)
	}
	gotT := op.MulVecT(x, nil)
	for i := range wantT {
		if math.Abs(gotT[i]-wantT[i]) > 1e-9 {
			t.Fatalf("MulVecT[%d] = %g, dense = %g", i, gotT[i], wantT[i])
		}
	}
}

func TestSpeedsAreFixedPoint(t *testing.T) {
	// M·s = s: the speed vector is the stationary load profile.
	g, err := graph.Cycle(12)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := hetero.New([]float64{1, 2, 3, 4, 5, 6, 6, 5, 4, 3, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	op := mustOp(t, g, sp, nil)
	s := sp.Slice()
	got := op.MulVec(s, nil)
	for i := range s {
		if math.Abs(got[i]-s[i]) > 1e-12 {
			t.Fatalf("M·s != s at %d: %g vs %g", i, got[i], s[i])
		}
	}
}

func TestSecondEigenvalueAgainstAnalytic(t *testing.T) {
	tests := []struct {
		name   string
		build  func() (*graph.Graph, error)
		lambda func() (float64, error)
	}{
		{"cycle-12", func() (*graph.Graph, error) { return graph.Cycle(12) },
			func() (float64, error) { return AnalyticCycleLambda(12) }},
		{"cycle-31", func() (*graph.Graph, error) { return graph.Cycle(31) },
			func() (float64, error) { return AnalyticCycleLambda(31) }},
		{"torus-4x4", func() (*graph.Graph, error) { return graph.Torus2D(4, 4) },
			func() (float64, error) { return AnalyticTorus2DLambda(4, 4) }},
		{"torus-6x5", func() (*graph.Graph, error) { return graph.Torus2D(6, 5) },
			func() (float64, error) { return AnalyticTorus2DLambda(6, 5) }},
		{"hypercube-4", func() (*graph.Graph, error) { return graph.Hypercube(4) },
			func() (float64, error) { return AnalyticHypercubeLambda(4) }},
		{"complete-8", func() (*graph.Graph, error) { return graph.Complete(8) },
			func() (float64, error) { return AnalyticCompleteLambda(8) }},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			g, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			want, err := tc.lambda()
			if err != nil {
				t.Fatal(err)
			}
			op := mustOp(t, g, nil, nil)
			got, _, err := op.SecondEigenvalue(PowerOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-want) > 1e-7 {
				t.Errorf("lambda = %.12f, analytic = %.12f", got, want)
			}
		})
	}
}

func TestSecondEigenvalueAgainstJacobi(t *testing.T) {
	// Full agreement with a dense symmetric eigendecomposition, including
	// a heterogeneous case where M itself is non-symmetric.
	g, err := graph.ErdosRenyi(24, 0.25, 13)
	if err != nil {
		t.Fatal(err)
	}
	comp, cnt := g.ConnectedComponents()
	_ = comp
	if cnt != 1 {
		t.Skip("sample graph disconnected; pick another seed")
	}
	sp, err := hetero.UniformRange(24, 3, 17)
	if err != nil {
		t.Fatal(err)
	}
	for _, spc := range []*hetero.Speeds{nil, sp} {
		op := mustOp(t, g, spc, nil)
		b, err := eigen.SymmetrizedDiffusion(op.Dense(), speedsOrNil(spc))
		if err != nil {
			t.Fatal(err)
		}
		dec, err := eigen.Jacobi(b, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		// Second largest magnitude among eigenvalues, skipping the single
		// eigenvalue 1.
		want := 0.0
		skipped := false
		for _, v := range dec.Values {
			if !skipped && math.Abs(v-1) < 1e-9 {
				skipped = true
				continue
			}
			if a := math.Abs(v); a > want {
				want = a
			}
		}
		got, _, err := op.SecondEigenvalue(PowerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-6 {
			t.Errorf("power iteration lambda = %.10f, Jacobi = %.10f", got, want)
		}
	}
}

func speedsOrNil(sp *hetero.Speeds) []float64 {
	if sp == nil {
		return nil
	}
	return sp.Slice()
}

func TestBetaOptTableI(t *testing.T) {
	// Reproduction of Table I for the analytically solvable rows. The
	// paper's digits come from LAPACK-computed eigenvalues and carry
	// ~1e-7 numerical noise; our analytic values agree to 7 significant
	// digits (independently cross-checked against a Python computation).
	tests := []struct {
		name     string
		lambda   func() (float64, error)
		wantBeta float64
	}{
		{"torus-1000x1000", func() (float64, error) { return AnalyticTorus2DLambda(1000, 1000) }, 1.9920836447},
		{"torus-100x100", func() (float64, error) { return AnalyticTorus2DLambda(100, 100) }, 1.9235874877},
		{"hypercube-2^20", func() (float64, error) { return AnalyticHypercubeLambda(20) }, 1.4026054847},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			lam, err := tc.lambda()
			if err != nil {
				t.Fatal(err)
			}
			beta, err := BetaOpt(lam)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(beta-tc.wantBeta) > 2e-7 {
				t.Errorf("beta = %.10f, Table I says %.10f", beta, tc.wantBeta)
			}
		})
	}
}

func TestBetaOptRange(t *testing.T) {
	if _, err := BetaOpt(-0.1); err == nil {
		t.Error("BetaOpt(-0.1) should fail")
	}
	if _, err := BetaOpt(1); err == nil {
		t.Error("BetaOpt(1) should fail")
	}
	b, err := BetaOpt(0)
	if err != nil || b != 1 {
		t.Errorf("BetaOpt(0) = %g, want 1", b)
	}
	// Property: β_opt ∈ [1, 2) and is increasing in λ.
	f := func(raw uint16) bool {
		lam := float64(raw) / 65536.0 // [0, 1)
		b1, err := BetaOpt(lam)
		if err != nil {
			return false
		}
		b2, err := BetaOpt(lam * lam) // λ² <= λ
		if err != nil {
			return false
		}
		return b1 >= 1 && b1 < 2 && b2 <= b1+1e-15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestGammaDegreeAlpha(t *testing.T) {
	g, err := graph.Torus2D(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	op := mustOp(t, g, nil, GammaDegreeAlpha{Gamma: 2})
	if got := op.AlphaArc(0); got != 1.0/8.0 {
		t.Errorf("gamma alpha = %g, want 1/8", got)
	}
	// gamma=1 on a regular graph makes the diagonal exactly 0 — legal.
	if _, err := NewOperator(g, nil, GammaDegreeAlpha{Gamma: 1}); err != nil {
		t.Errorf("gamma=1 should be accepted on a regular graph: %v", err)
	}
	// A constant alpha that exceeds 1/d must be rejected.
	if _, err := NewOperator(g, nil, ConstantAlpha{Value: 0.5}); err == nil {
		t.Error("oversized constant alpha must be rejected")
	}
}

func TestRoundsScales(t *testing.T) {
	// SOS should need asymptotically fewer rounds: for small gap,
	// SOSRounds ~ sqrt(FOSRounds·log).
	lam := 0.999
	fos := FOSRounds(1000, 10000, lam)
	sos := SOSRounds(1000, 10000, lam)
	if sos >= fos {
		t.Errorf("SOS scale %g should beat FOS scale %g", sos, fos)
	}
	if fos/sos < 10 {
		t.Errorf("expected ~sqrt gap speedup, got factor %g", fos/sos)
	}
}

func TestOperatorValidation(t *testing.T) {
	if _, err := NewOperator(nil, nil, nil); err == nil {
		t.Error("nil graph must be rejected")
	}
	g, err := graph.Cycle(5)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := hetero.New([]float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewOperator(g, sp, nil); err == nil {
		t.Error("speed/node count mismatch must be rejected")
	}
}

// BenchmarkSecondEigenvalue times one cold power iteration under the default
// options on a 4096-node random 8-regular expander with two-class speeds. It
// calls the kernel behind SecondEigenvalue directly, so the λ memo never
// answers and every op runs the full iteration to convergence.
func BenchmarkSecondEigenvalue(b *testing.B) {
	g, err := graph.FromSpec("regular:4096:8", 3)
	if err != nil {
		b.Fatal(err)
	}
	sp, err := hetero.SpeedsFromSpec("twoclass:0.25:4", g.NumNodes(), 2)
	if err != nil {
		b.Fatal(err)
	}
	op, err := NewOperator(g, sp, nil)
	if err != nil {
		b.Fatal(err)
	}
	opts := PowerOptions{}.withDefaults()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := op.secondEigenvalue(opts); err != nil {
			b.Fatal(err)
		}
	}
}
