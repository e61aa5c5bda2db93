package spectral

import (
	"math"
	"sync"
	"testing"

	"diffusionlb/internal/graph"
	"diffusionlb/internal/hetero"
)

// memoKeys returns the speed vectors the operator's λ memo holds, most
// recently used first.
func memoKeys(op *Operator) []*hetero.Speeds {
	var keys []*hetero.Speeds
	for _, e := range op.lambdas.entries() {
		if e.speeds != nil {
			keys = append(keys, e.speeds)
		}
	}
	return keys
}

func wantMemo(t *testing.T, op *Operator, want ...*hetero.Speeds) {
	t.Helper()
	got := memoKeys(op)
	if len(got) != len(want) {
		t.Fatalf("memo holds %d entries, want %d", len(got), len(want))
	}
	for k := range want {
		if !got[k].Equal(want[k]) {
			t.Fatalf("memo entry %d holds a different speed vector than expected", k)
		}
	}
}

func copySpeeds(t *testing.T, sp *hetero.Speeds) *hetero.Speeds {
	t.Helper()
	cp, err := hetero.New(sp.Slice())
	if err != nil {
		t.Fatal(err)
	}
	if cp == sp {
		t.Fatal("copy must be a distinct *Speeds")
	}
	return cp
}

func lambdaOf(t *testing.T, op *Operator, opts PowerOptions) (lambda, signed float64) {
	t.Helper()
	lambda, signed, err := op.SecondEigenvalue(opts)
	if err != nil {
		t.Fatal(err)
	}
	return lambda, signed
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestLambdaMemoSurvivesReweight: after A → B → A′, where A′ has A's
// content but is a different vector, the λ query is answered from the memo
// (no allocation, so no power iteration) with A's exact bits.
func TestLambdaMemoSurvivesReweight(t *testing.T) {
	g, err := graph.Torus2D(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	spA, spB := reweightSpeeds(t, 36)
	op := mustOp(t, g, spA, nil)
	lamA, signedA := lambdaOf(t, op, PowerOptions{})
	if err := op.Reweight(spB); err != nil {
		t.Fatal(err)
	}
	lamB, _ := lambdaOf(t, op, PowerOptions{})
	if sameBits(lamA, lamB) {
		t.Fatalf("lambda %g did not move across Reweight", lamA)
	}
	if err := op.Reweight(copySpeeds(t, spA)); err != nil {
		t.Fatal(err)
	}
	var lam, signed float64
	allocs := testing.AllocsPerRun(20, func() {
		if lam, signed, err = op.SecondEigenvalue(PowerOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("memo hit allocated %v times per query, want 0", allocs)
	}
	if !sameBits(lam, lamA) || !sameBits(signed, signedA) {
		t.Errorf("memo hit returned (%.17g, %.17g), want (%.17g, %.17g)", lam, signed, lamA, signedA)
	}
	wantMemo(t, op, spA, spB)
}

// TestLambdaMemoKeyedByOptions: the same speeds under different
// PowerOptions are different keys, and options that default to the same
// values are the same key.
func TestLambdaMemoKeyedByOptions(t *testing.T) {
	g, err := graph.Torus2D(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	sp, _ := reweightSpeeds(t, 36)
	op := mustOp(t, g, sp, nil)
	lamDefault, _ := lambdaOf(t, op, PowerOptions{})
	lamLoose, _ := lambdaOf(t, op, PowerOptions{Tol: 1e-10})
	want, _, err := mustOp(t, g, sp, nil).secondEigenvalue(PowerOptions{Tol: 1e-10}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(lamLoose, want) {
		t.Errorf("Tol 1e-10 returned %.17g, want its own iteration's %.17g", lamLoose, want)
	}
	if sameBits(lamLoose, lamDefault) {
		t.Errorf("Tol 1e-10 returned the default-tolerance lambda %.17g: options are not part of the key", lamDefault)
	}
	if got := len(memoKeys(op)); got != 2 {
		t.Fatalf("memo holds %d entries after two option sets, want 2", got)
	}
	// The explicit defaults are the zero value's key.
	explicit := PowerOptions{MaxIter: 200000, Tol: 1e-12, Seed: 1}
	if lam, _ := lambdaOf(t, op, explicit); !sameBits(lam, lamDefault) {
		t.Errorf("explicit defaults returned %.17g, want %.17g", lam, lamDefault)
	}
	if got := len(memoKeys(op)); got != 2 {
		t.Errorf("memo holds %d entries after re-querying the defaults, want 2", got)
	}
}

// TestLambdaMemoEvictsLeastRecentlyUsed: with the memo full, a new speed
// vector evicts the entry used least recently, not the oldest one inserted.
func TestLambdaMemoEvictsLeastRecentlyUsed(t *testing.T) {
	g, err := graph.Torus2D(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	spA, spB := reweightSpeeds(t, 36)
	spC, err := hetero.TwoClass(36, 0.5, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	op := mustOp(t, g, spA, nil)
	query := func(sp *hetero.Speeds) {
		t.Helper()
		if err := op.Reweight(sp); err != nil {
			t.Fatal(err)
		}
		lambdaOf(t, op, PowerOptions{})
	}
	query(spA)
	query(spB)
	wantMemo(t, op, spB, spA)
	query(spA) // A becomes the most recently used
	wantMemo(t, op, spA, spB)
	query(spC) // evicts B
	wantMemo(t, op, spC, spA)
	query(spB) // evicts A
	wantMemo(t, op, spB, spC)
}

// TestCloneCarriesLambdaMemo: a clone answers its parent's speeds from the
// memo it carries, and its own Reweight and queries leave the parent's memo
// and answers alone.
func TestCloneCarriesLambdaMemo(t *testing.T) {
	g, err := graph.Torus2D(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	spA, spB := reweightSpeeds(t, 36)
	op := mustOp(t, g, spA, nil)
	lamA, signedA := lambdaOf(t, op, PowerOptions{})
	cl := op.Clone()
	var lam, signed float64
	allocs := testing.AllocsPerRun(5, func() { lam, signed, err = cl.SecondEigenvalue(PowerOptions{}) })
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 || !sameBits(lam, lamA) || !sameBits(signed, signedA) {
		t.Errorf("clone query: %v allocs, (%.17g, %.17g); want a memo hit with (%.17g, %.17g)",
			allocs, lam, signed, lamA, signedA)
	}
	if err := cl.Reweight(spB); err != nil {
		t.Fatal(err)
	}
	lambdaOf(t, cl, PowerOptions{})
	wantMemo(t, cl, spB, spA)
	wantMemo(t, op, spA)
	if lam, signed := lambdaOf(t, op, PowerOptions{}); !sameBits(lam, lamA) || !sameBits(signed, signedA) {
		t.Errorf("parent's lambda moved to (%.17g, %.17g) after the clone's Reweight", lam, signed)
	}
}

// TestLambdaMemoConcurrentQueries: concurrent cold queries on one operator
// agree bit for bit and leave one memo entry, not one per goroutine that
// missed. The iteration is long enough that every goroutine misses before
// the first one records its result. Run under -race it also checks the
// memo's locking.
func TestLambdaMemoConcurrentQueries(t *testing.T) {
	g, err := graph.FromSpec("regular:1024:8", 1)
	if err != nil {
		t.Fatal(err)
	}
	op := mustOp(t, g, nil, nil)
	const goroutines = 8
	got := make([]float64, goroutines)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			lam, _, err := op.SecondEigenvalue(PowerOptions{})
			if err != nil {
				t.Error(err)
			}
			got[w] = lam
		}(w)
	}
	close(start)
	wg.Wait()
	for w := range got {
		if !sameBits(got[w], got[0]) {
			t.Errorf("goroutine %d got %.17g, goroutine 0 got %.17g", w, got[w], got[0])
		}
	}
	wantMemo(t, op, op.Speeds())
}
