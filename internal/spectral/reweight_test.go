package spectral

import (
	"math"
	"strings"
	"testing"
	"time"

	"diffusionlb/internal/graph"
	"diffusionlb/internal/hetero"
)

// reweightSpeeds builds the pre/post speed pair used across the tests: a
// two-class assignment and the "half the fast nodes throttled to 1" vector
// derived from it.
func reweightSpeeds(t testing.TB, n int) (*hetero.Speeds, *hetero.Speeds) {
	t.Helper()
	sp, err := hetero.TwoClass(n, 0.25, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	s := sp.Slice()
	seen := 0
	for i, v := range s {
		if v == 4 {
			seen++
			if seen%2 == 0 {
				s[i] = 1
			}
		}
	}
	after, err := hetero.New(s)
	if err != nil {
		t.Fatal(err)
	}
	return sp, after
}

// TestReweightKeepsModelInvariants is the satellite coverage: the operator
// properties the whole framework rests on — column stochasticity (load
// conservation) and the speed vector being a fixed point (M·s = s) — must
// hold against the NEW speeds after an in-place Reweight.
func TestReweightKeepsModelInvariants(t *testing.T) {
	g, err := graph.ErdosRenyi(30, 0.3, 7)
	if err != nil {
		t.Fatal(err)
	}
	before, after := reweightSpeeds(t, 30)
	op := mustOp(t, g, before, nil)
	oldAlphas := op.Alphas()
	if err := op.Reweight(after); err != nil {
		t.Fatal(err)
	}
	if op.Speeds() != after {
		t.Fatal("Reweight did not install the new speeds")
	}
	// α is a function of the graph alone — it must not have moved.
	for a, v := range op.Alphas() {
		if v != oldAlphas[a] {
			t.Fatalf("alpha[%d] changed across Reweight: %g vs %g", a, v, oldAlphas[a])
		}
	}
	// Column stochasticity of the reweighted M.
	m := op.Dense()
	for j, s := range m.ColumnSums() {
		if math.Abs(s-1) > 1e-12 {
			t.Fatalf("column %d sums to %g after Reweight, want 1", j, s)
		}
	}
	for _, v := range m.Data {
		if v < -1e-15 {
			t.Fatalf("negative entry %g in reweighted M", v)
		}
	}
	// The NEW speed vector is the fixed point: M·s' = s'.
	s := after.Slice()
	got := op.MulVec(s, nil)
	for i := range s {
		if math.Abs(got[i]-s[i]) > 1e-12 {
			t.Fatalf("M·s' != s' at node %d after Reweight: %g vs %g", i, got[i], s[i])
		}
	}
}

// TestReweightMovesLambda: λ follows the speeds across an in-place
// Reweight, and the reweighted operator's λ is bit-equal to that of an
// operator built fresh on the new speeds.
func TestReweightMovesLambda(t *testing.T) {
	g, err := graph.Torus2D(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	before, after := reweightSpeeds(t, 36)
	op := mustOp(t, g, before, nil)
	lam1, _, err := op.SecondEigenvalue(PowerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := op.Reweight(after); err != nil {
		t.Fatal(err)
	}
	lam2, signed2, err := op.SecondEigenvalue(PowerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if lam1 == lam2 {
		t.Fatalf("lambda %g did not move across Reweight", lam1)
	}
	fresh := mustOp(t, g, after, nil)
	want, wantSigned, err := fresh.SecondEigenvalue(PowerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(lam2) != math.Float64bits(want) || math.Float64bits(signed2) != math.Float64bits(wantSigned) {
		t.Errorf("reweighted (lambda, signed) = (%.17g, %.17g), freshly built (%.17g, %.17g)",
			lam2, signed2, want, wantSigned)
	}
}

func TestReweightValidation(t *testing.T) {
	g, err := graph.Torus2D(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	op := mustOp(t, g, nil, nil)
	short, err := hetero.New([]float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := op.Reweight(short); err == nil {
		t.Error("length mismatch must be rejected")
	}
	// A constant α sized for fast speeds becomes invalid when a node slows
	// to 1: rowSum = 4·0.3 = 1.2 > s = 1 → negative diagonal. The operator
	// must reject the new speeds and stay on the old ones.
	fast := make([]float64, 16)
	for i := range fast {
		fast[i] = 2
	}
	fastSp, err := hetero.New(fast)
	if err != nil {
		t.Fatal(err)
	}
	tight, err := NewOperator(g, fastSp, ConstantAlpha{Value: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if err := tight.Reweight(hetero.Homogeneous(16)); err == nil {
		t.Fatal("Reweight must reject speeds that break the diagonal")
	}
	if tight.Speeds() != fastSp {
		t.Error("failed Reweight must leave the operator unchanged")
	}
	// When several nodes break the diagonal, the error names the lowest.
	slow := append([]float64(nil), fast...)
	slow[3], slow[12] = 1, 1
	slowSp, err := hetero.New(slow)
	if err != nil {
		t.Fatal(err)
	}
	if err := tight.Reweight(slowSp); err == nil || !strings.Contains(err.Error(), "at node 3 ") {
		t.Errorf("Reweight error %v, want the negative diagonal at node 3", err)
	}
	if tight.Speeds() != fastSp {
		t.Error("failed Reweight must leave the operator unchanged")
	}
	// Reweight(nil) means homogeneous.
	if err := op.Reweight(nil); err != nil {
		t.Fatal(err)
	}
	if !op.Speeds().IsHomogeneous() {
		t.Error("Reweight(nil) should install homogeneous speeds")
	}
}

// TestAlphasExposure is the regression test for the α-storage exposure fix:
// mutating what Alphas (or Dense) returns must not corrupt the operator.
func TestAlphasExposure(t *testing.T) {
	g, err := graph.Torus2D(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	op := mustOp(t, g, nil, nil)
	leaked := op.Alphas()
	for i := range leaked {
		leaked[i] = -99
	}
	if got := op.AlphaArc(0); got != 0.2 {
		t.Fatalf("mutating Alphas() corrupted internal storage: alpha[0] = %g", got)
	}
	d := op.Dense()
	d.Set(0, 0, -99)
	if got := op.Dense().At(0, 0); got == -99 {
		t.Fatal("mutating Dense() corrupted a later Dense()")
	}
	// AlphasInto: the no-allocation path agrees with Alphas and validates.
	dst := make([]float64, g.NumArcs())
	if err := op.AlphasInto(dst); err != nil {
		t.Fatal(err)
	}
	for a, v := range op.Alphas() {
		if dst[a] != v {
			t.Fatalf("AlphasInto[%d] = %g, Alphas = %g", a, dst[a], v)
		}
	}
	if err := op.AlphasInto(make([]float64, 3)); err == nil {
		t.Error("AlphasInto must reject a wrong-sized buffer")
	}
}

func TestCloneIsIndependent(t *testing.T) {
	g, err := graph.Torus2D(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	before, after := reweightSpeeds(t, 36)
	op := mustOp(t, g, before, nil)
	cl := op.Clone()
	if cl.Graph() != op.Graph() {
		t.Error("Clone should share the immutable graph")
	}
	if err := cl.Reweight(after); err != nil {
		t.Fatal(err)
	}
	if op.Speeds() != before {
		t.Error("reweighting a clone mutated the original's speeds")
	}
	if cl.Speeds() != after {
		t.Error("clone did not take the new speeds")
	}
	// Spectra now differ accordingly.
	lamOrig, _, err := op.SecondEigenvalue(PowerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	lamClone, _, err := cl.SecondEigenvalue(PowerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if lamOrig == lamClone {
		t.Error("clone's spectrum should differ after its private reweight")
	}
}

// TestReweightFasterThanRebuild pins the acceptance criterion behind
// BenchmarkReweightVsRebuild inside the regular test suite: the in-place
// reweight must beat full operator reconstruction. The margin is large
// (reweight is O(n) with no allocations, rebuild is O(arcs) rule calls plus
// two O(arcs) allocations), so a best-of-three comparison is stable even on
// noisy CI machines.
func TestReweightFasterThanRebuild(t *testing.T) {
	if testing.Short() {
		// Wall-clock comparisons are the one thing a contended CI runner
		// can flake; the -short lanes skip it, the full-test lane and
		// BenchmarkReweightVsRebuild keep the criterion pinned.
		t.Skip("timing comparison skipped in -short mode")
	}
	g, err := graph.Torus2D(128, 128)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumNodes()
	before, after := reweightSpeeds(t, n)
	op := mustOp(t, g, before, nil)

	const iters = 50
	best := func(f func()) time.Duration {
		bestD := time.Duration(math.MaxInt64)
		for trial := 0; trial < 3; trial++ {
			start := time.Now()
			f()
			if d := time.Since(start); d < bestD {
				bestD = d
			}
		}
		return bestD
	}
	speeds := [2]*hetero.Speeds{after, before}
	reweight := best(func() {
		for i := 0; i < iters; i++ {
			if err := op.Reweight(speeds[i%2]); err != nil {
				t.Fatal(err)
			}
		}
	})
	rebuild := best(func() {
		for i := 0; i < iters; i++ {
			if _, err := NewOperator(g, speeds[i%2], nil); err != nil {
				t.Fatal(err)
			}
		}
	})
	if reweight >= rebuild {
		t.Errorf("Reweight (%v for %d iters) not faster than NewOperator rebuild (%v)", reweight, iters, rebuild)
	}
	t.Logf("reweight %v vs rebuild %v for %d iterations on %d nodes", reweight, rebuild, iters, n)
}

// BenchmarkReweightVsRebuild quantifies why Retarget paths use the in-place
// Reweight instead of reconstructing the operator per speed event.
func BenchmarkReweightVsRebuild(b *testing.B) {
	g, err := graph.Torus2D(128, 128)
	if err != nil {
		b.Fatal(err)
	}
	before, after := reweightSpeeds(b, g.NumNodes())
	op, err := NewOperator(g, before, nil)
	if err != nil {
		b.Fatal(err)
	}
	speeds := [2]*hetero.Speeds{after, before}
	b.Run("Reweight", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := op.Reweight(speeds[i%2]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Rebuild", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := NewOperator(g, speeds[i%2], nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}
