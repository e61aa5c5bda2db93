package randx

import (
	"math"
	"testing"
)

func TestNewDeterministic(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("equal seeds must give equal streams")
		}
	}
}

func TestNewDistinctSeeds(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("distinct seeds produced %d identical outputs in lockstep", same)
	}
}

func TestMixSensitivity(t *testing.T) {
	base := Mix(1, 2, 3)
	variants := []uint64{
		Mix(1, 2, 4),
		Mix(1, 3, 3),
		Mix(2, 2, 3),
		Mix(1, 2),
		Mix(1, 2, 3, 0),
	}
	for i, v := range variants {
		if v == base {
			t.Errorf("variant %d collided with base", i)
		}
	}
	if Mix(1, 2, 3) != base {
		t.Error("Mix must be deterministic")
	}
}

func TestNewStreamIndependence(t *testing.T) {
	// Streams for adjacent (round, node) coordinates must differ.
	s1 := NewStream(7, 0, 0)
	s2 := NewStream(7, 0, 1)
	s3 := NewStream(7, 1, 0)
	a, b, c := s1.Uint64(), s2.Uint64(), s3.Uint64()
	if a == b || a == c || b == c {
		t.Errorf("adjacent streams collide: %x %x %x", a, b, c)
	}
}

func TestStreamUniformity(t *testing.T) {
	// Coarse uniformity check over many per-node streams: the first
	// Float64 of each stream should have mean ~0.5 and variance ~1/12.
	const n = 20000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := NewStream(99, 3, uint64(i)).Float64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("mean of stream heads = %g, want ~0.5", mean)
	}
	if math.Abs(variance-1.0/12.0) > 0.005 {
		t.Errorf("variance of stream heads = %g, want ~%g", variance, 1.0/12.0)
	}
}

func TestPCGPair(t *testing.T) {
	a1, a2 := PCGPair(5, 1, 2)
	b1, b2 := PCGPair(5, 1, 2)
	if a1 != b1 || a2 != b2 {
		t.Error("PCGPair must be deterministic")
	}
	c1, c2 := PCGPair(5, 1, 3)
	if a1 == c1 && a2 == c2 {
		t.Error("PCGPair must differ across coordinates")
	}
	if a1 == a2 {
		t.Error("the two halves of the pair should differ")
	}
}

func TestPerm(t *testing.T) {
	rng := New(123)
	p := make([]int32, 50)
	Perm(rng, p)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || int(v) >= 50 || seen[v] {
			t.Fatalf("Perm produced invalid permutation: %v", p)
		}
		seen[v] = true
	}
	// Same seed, same permutation.
	p2 := make([]int32, 50)
	Perm(New(123), p2)
	for i := range p {
		if p[i] != p2[i] {
			t.Fatal("Perm must be deterministic for equal seeds")
		}
	}
}

// TestFixedArityFastPathsMatchVariadic: Mix2/Mix3, PCGPair2/PCGPair3 and
// PCGPairAfter exist only to avoid the variadic slice allocation and the
// repeated prefix hash in per-node hot loops; they must be bit-identical to
// their variadic originals, or counter streams (and every seeded
// simulation) would silently change.
func TestFixedArityFastPathsMatchVariadic(t *testing.T) {
	cases := [][3]uint64{
		{0, 0, 0},
		{1, 2, 3},
		{0xdead_beef, 1 << 63, 42},
		{7, 0xffff_ffff_ffff_ffff, 9},
	}
	for _, c := range cases {
		if got, want := Mix2(c[0], c[1]), Mix(c[0], c[1]); got != want {
			t.Errorf("Mix2(%v) = %d, Mix = %d", c[:2], got, want)
		}
		if got, want := Mix3(c[0], c[1], c[2]), Mix(c[0], c[1], c[2]); got != want {
			t.Errorf("Mix3(%v) = %d, Mix = %d", c, got, want)
		}
		a2, b2 := PCGPair2(c[0], c[1])
		av, bv := PCGPair(c[0], c[1])
		if a2 != av || b2 != bv {
			t.Errorf("PCGPair2(%v) = (%d,%d), PCGPair = (%d,%d)", c[:2], a2, b2, av, bv)
		}
		a3, b3 := PCGPair3(c[0], c[1], c[2])
		av, bv = PCGPair(c[0], c[1], c[2])
		if a3 != av || b3 != bv {
			t.Errorf("PCGPair3(%v) = (%d,%d), PCGPair = (%d,%d)", c, a3, b3, av, bv)
		}
	}
	// PCGPairAfter is PCGPair3 with the (masterSeed, round) prefix hashed
	// once per round; the per-node streams must not move.
	rng := New(11)
	for k := 0; k < 1000; k++ {
		a, b, c := rng.Uint64(), rng.Uint64(), rng.Uint64()
		if k%4 == 0 {
			c %= 1 << 20 // node indices are small
		}
		ap, bp := PCGPairAfter(Mix2(a, b), c)
		a3, b3 := PCGPair3(a, b, c)
		if ap != a3 || bp != b3 {
			t.Fatalf("PCGPairAfter(Mix2(%d, %d), %d) = (%d,%d), PCGPair3 = (%d,%d)", a, b, c, ap, bp, a3, b3)
		}
	}
}
