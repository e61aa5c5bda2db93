package core

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// scanRoundNode is RandomizedRounder.RoundNode as first written, with a
// data-dependent branch per draw and a break-out destination scan. It is
// the oracle the current kernel must reproduce draw for draw.
func scanRoundNode(yhat []float64, out []int64, rng *rand.Rand) {
	var r float64
	last := -1 // index of the last arc with a positive fractional part
	for k, v := range yhat {
		fl := math.Floor(v)
		out[k] = int64(fl)
		if f := v - fl; f > 0 {
			r += f
			last = k
		}
	}
	if r <= 0 {
		return
	}
	ceilR := math.Ceil(r)
	tokens := int(ceilR)
	for b := 0; b < tokens; b++ {
		// u ~ U[0, ⌈r⌉); u < r selects a destination by cumulative
		// fractional mass, u >= r keeps the token at the node.
		u := rng.Float64() * ceilR
		if u >= r {
			continue
		}
		// Re-accumulating the fractional parts can undershoot r in floating
		// point, so a draw with u < r must never fall off the end of the
		// cumulative scan: the last positive-fraction arc owns the whole
		// remainder [cum(last−1), r) — equivalent to clamping its cumulative
		// entry to r — so every selected token is sent, never dropped.
		dst := last
		var cum float64
		for k := 0; k < last; k++ {
			v := yhat[k]
			cum += v - math.Floor(v)
			if u < cum {
				dst = k
				break
			}
		}
		out[dst]++
	}
}

// scriptedSource returns its scripted values first and then continues
// with a PCG, so a test can rig chosen draws inside a random stream.
type scriptedSource struct {
	script []uint64
	pcg    rand.PCG
}

func (s *scriptedSource) Uint64() uint64 {
	if len(s.script) > 0 {
		v := s.script[0]
		s.script = s.script[1:]
		return v
	}
	return s.pcg.Uint64()
}

// drawFor returns a source value whose Float64 (low 53 bits over 2⁵³)
// times ceilR equals u exactly, if one exists.
func drawFor(u, ceilR float64) (uint64, bool) {
	m := uint64(u / ceilR * (1 << 53))
	for _, c := range []uint64{m - 1, m, m + 1} {
		if c < 1<<53 && float64(c)/(1<<53)*ceilR == u {
			return c, true
		}
	}
	return 0, false
}

// roundingVector draws one per-node positive-flow vector of length n from
// a mix of entry classes: integral (no fractional part), below 1, general
// (integer plus fraction) and near 2⁵², with an integral run after the
// last fractional entry in a third of the vectors.
func roundingVector(rng *rand.Rand, n int) []float64 {
	yhat := make([]float64, n)
	tail := n
	if rng.IntN(3) == 0 {
		tail = rng.IntN(n + 1)
	}
	for k := range yhat {
		class := rng.IntN(8)
		if k >= tail {
			class = 0
		}
		switch class {
		case 0:
			yhat[k] = float64(1 + rng.IntN(5))
		case 1, 2:
			yhat[k] = rng.Float64()
			if yhat[k] == 0 {
				yhat[k] = 0.5
			}
		case 3:
			yhat[k] = math.Ldexp(0.5+rng.Float64()/2, -rng.IntN(40)) // far below 1
		case 4:
			yhat[k] = 0x1p52 - float64(1+rng.IntN(8))/2 // fraction 0 or ½
		default:
			yhat[k] = float64(rng.IntN(9)) + rng.Float64()
			if yhat[k] == 0 {
				yhat[k] = 1
			}
		}
	}
	return yhat
}

// rigDraws scripts some of the ⌈r⌉ draws of a vector: a draw landing
// exactly on a fractional prefix sum before the last fractional arc, one
// in the last arc's remainder [cum(last−1), r), and one exactly on r. It
// returns the script and how many draws were rigged exactly.
func rigDraws(rng *rand.Rand, yhat []float64) (script []uint64, exact int) {
	var r float64
	last := -1
	for k, v := range yhat {
		if f := v - math.Floor(v); f > 0 {
			r += f
			last = k
		}
	}
	if r <= 0 {
		return nil, 0
	}
	ceilR := math.Ceil(r)
	prefix := make([]float64, 0, last)
	var cum float64
	for k := 0; k < last; k++ {
		cum += yhat[k] - math.Floor(yhat[k])
		prefix = append(prefix, cum)
	}
	for b := 0; b < int(ceilR); b++ {
		var u float64
		switch rng.IntN(4) {
		case 0:
			if len(prefix) == 0 {
				continue
			}
			u = prefix[rng.IntN(len(prefix))]
		case 1:
			lo := 0.0
			if len(prefix) > 0 {
				lo = prefix[len(prefix)-1]
			}
			u = math.Nextafter(r, 0)
			if rng.IntN(2) == 0 {
				u = lo
			}
		case 2:
			u = r
		default:
			script = append(script, rng.Uint64())
			continue
		}
		if v, ok := drawFor(u, ceilR); ok {
			script = append(script, v)
			exact++
		} else {
			script = append(script, rng.Uint64())
		}
	}
	return script, exact
}

// TestRandomizedRounderMatchesScan pins RandomizedRounder.RoundNode to the
// scan oracle: identical out and identical draw consumption for identical
// rng streams, on generated vectors of length 1–64, on rigged draws that
// land exactly on a prefix sum, in the last arc's remainder or on r, and
// on the accumulations that undershoot r.
func TestRandomizedRounderMatchesScan(t *testing.T) {
	gen := rand.New(rand.NewPCG(23, 1412))
	var vectors [][]float64
	for n := 1; n <= 64; n++ {
		for trial := 0; trial < 60; trial++ {
			vectors = append(vectors, roundingVector(gen, n))
		}
	}
	// Accumulations whose re-accumulated prefix undershoots r, so draws
	// just below r land in the last arc's remainder.
	vectors = append(vectors,
		repeat(0.1, 30), repeat(1.0/3.0, 7), repeat(0.7, 64),
		[]float64{2.9999999999999996, 0.5, 1e-12},
		[]float64{2.0, 0.25, 3.0, 0.75, 1.0},
		[]float64{0x1p52 - 0.5, 0.5, 0x1p52 - 1.5, 3},
		[]float64{1, 2, 3}, []float64{0x1p52})

	var rigged, exact int
	for vi, yhat := range vectors {
		for rep := 0; rep < 4; rep++ {
			var script []uint64
			if rep > 0 {
				var e int
				script, e = rigDraws(gen, yhat)
				exact += e
				if e > 0 {
					rigged++
				}
			}
			seed := gen.Uint64()
			srcWant := &scriptedSource{script: slices.Clone(script), pcg: *rand.NewPCG(seed, uint64(vi))}
			srcGot := &scriptedSource{script: slices.Clone(script), pcg: *rand.NewPCG(seed, uint64(vi))}
			rngWant, rngGot := rand.New(srcWant), rand.New(srcGot)
			want := make([]int64, len(yhat))
			got := make([]int64, len(yhat))
			scanRoundNode(yhat, want, rngWant)
			RandomizedRounder{}.RoundNode(yhat, got, rngGot)
			if !slices.Equal(got, want) {
				t.Fatalf("vector %d rep %d %v (script %v): out %v, want %v", vi, rep, yhat, script, got, want)
			}
			if len(srcGot.script) != len(srcWant.script) || rngGot.Uint64() != rngWant.Uint64() {
				t.Fatalf("vector %d rep %d %v: draw consumption differs from the scan", vi, rep, yhat)
			}
		}
	}
	t.Logf("%d vectors, %d with rigged draws, %d exact draws", len(vectors), rigged, exact)
	if rigged < len(vectors) || exact < 2*len(vectors) {
		t.Fatalf("rigged %d vectors with %d exact draws over %d vectors; the rigging no longer reaches the boundaries",
			rigged, exact, len(vectors))
	}
}
