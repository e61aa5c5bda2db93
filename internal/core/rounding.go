package core

import (
	"math"
	"math/rand/v2"
)

// Rounder converts the positive scheduled flows of one node into integer
// token counts. The engine calls RoundNode once per node per round with the
// compacted vector yhat of strictly positive scheduled flows Ŷ_ij(t) on the
// node's outgoing arcs; the implementation writes the integer flow for each
// entry into out (same length, pre-zeroed).
//
// Implementations must be stateless: all randomness comes from rng, which
// the engine derives deterministically from (seed, round, node).
type Rounder interface {
	// RoundNode rounds one node's outgoing flows. len(out) == len(yhat),
	// every yhat[k] > 0, out is zero-filled on entry.
	RoundNode(yhat []float64, out []int64, rng *rand.Rand)
	// Name identifies the scheme in reports.
	Name() string
	// Deterministic reports whether the rounder ignores rng.
	Deterministic() bool
}

// RandomizedRounder is the paper's randomized rounding scheme
// (Section III-B): floor every positive flow, collect the fractional excess
// r = Σ_j {Ŷ_ij}, draw ⌈r⌉ candidate tokens, and send each independently
// with probability r/⌈r⌉ to a neighbor chosen with probability {Ŷ_ij}/r
// (so a token reaches neighbor j with probability {Ŷ_ij}/⌈r⌉ and stays home
// otherwise). This realizes E[Z_ij] = {Ŷ_ij} (Observation 1) and the
// deviation bounds of Theorems 3, 4 and 9.
type RandomizedRounder struct{}

var _ Rounder = RandomizedRounder{}

// RoundNode implements Rounder.
//
// No branch depends on a draw: a token's destination is the count of
// fractional prefix sums ≤ u before the last fractional arc, and its send
// decision (u < r) is a 0/1 add to that destination.
//
//lbvet:hotpath called once per node per round by the discrete pass
func (RandomizedRounder) RoundNode(yhat []float64, out []int64, rng *rand.Rand) {
	var r float64
	last := -1 // index of the last arc with a positive fractional part
	for k, v := range yhat {
		fl := math.Floor(v)
		out[k] = int64(fl)
		f := v - fl // exact, and +0 for an integral v, so r += f adds nothing
		r += f
		if f > 0 {
			last = k
		}
	}
	if r <= 0 {
		return
	}
	ceilR := math.Ceil(r)
	tokens := int(ceilR)
	head := yhat[:last]
	for b := 0; b < tokens; b++ {
		// u ~ U[0, ⌈r⌉); u < r selects a destination by cumulative
		// fractional mass, u >= r keeps the token at the node. float64(...)
		// rounds the product, so arm64 cannot fuse it into below's
		// subtraction (make fma-check).
		u := float64(rng.Float64() * ceilR)
		// Re-accumulating the fractional parts can undershoot r in floating
		// point, so a draw with u < r must never fall off the end of the
		// cumulative scan: the last positive-fraction arc owns the whole
		// remainder [cum(last−1), r) — equivalent to clamping its cumulative
		// entry to r — so every selected token is sent, never dropped. The
		// prefix sums never decrease, so counting those ≤ u before the last
		// fractional arc finds the first arc whose prefix sum exceeds u, or
		// the last arc if none does.
		dst := 0
		var cum float64
		for _, v := range head {
			cum += v - math.Floor(v)
			dst += 1 - below(u, cum)
		}
		out[dst] += int64(below(u, r))
	}
}

// below returns 1 if a < b and 0 otherwise, without a branch: it is the
// sign bit of a−b, which IEEE arithmetic gets right for every pair of
// finite operands (a−b is +0, not −0, when a == b).
func below(a, b float64) int { return int(math.Float64bits(a-b) >> 63) }

// Name implements Rounder.
func (RandomizedRounder) Name() string { return "randomized" }

// Deterministic implements Rounder.
func (RandomizedRounder) Deterministic() bool { return false }

// FloorRounder always rounds the scheduled flow down ("always round down",
// the deterministic baseline discussed with [21]). It never creates
// additional outgoing tokens, so it is the most conservative scheme with
// respect to negative load, but it balances most slowly: flows below one
// token are never sent.
type FloorRounder struct{}

var _ Rounder = FloorRounder{}

// RoundNode implements Rounder.
//
//lbvet:hotpath called once per node per round by the discrete pass
func (FloorRounder) RoundNode(yhat []float64, out []int64, _ *rand.Rand) {
	for k, v := range yhat {
		out[k] = int64(math.Floor(v))
	}
}

// Name implements Rounder.
func (FloorRounder) Name() string { return "floor" }

// Deterministic implements Rounder.
func (FloorRounder) Deterministic() bool { return true }

// NearestRounder rounds every scheduled flow to the nearest integer (ties
// away from zero) — an instance of the arbitrary floor/ceiling rounding
// analyzed in Theorem 8.
type NearestRounder struct{}

var _ Rounder = NearestRounder{}

// RoundNode implements Rounder.
//
//lbvet:hotpath called once per node per round by the discrete pass
func (NearestRounder) RoundNode(yhat []float64, out []int64, _ *rand.Rand) {
	for k, v := range yhat {
		out[k] = int64(math.Round(v))
	}
}

// Name implements Rounder.
func (NearestRounder) Name() string { return "nearest" }

// Deterministic implements Rounder.
func (NearestRounder) Deterministic() bool { return true }

// BernoulliRounder rounds each flow up independently with probability equal
// to its fractional part (the per-edge randomized rounding of [15]). It has
// the same per-edge expectation as RandomizedRounder but no per-node
// coupling, so a node can round up on many edges simultaneously — the
// behavior that motivates the paper's excess-token construction because it
// can drive nodes negative.
type BernoulliRounder struct{}

var _ Rounder = BernoulliRounder{}

// RoundNode implements Rounder.
//
//lbvet:hotpath called once per node per round by the discrete pass
func (BernoulliRounder) RoundNode(yhat []float64, out []int64, rng *rand.Rand) {
	for k, v := range yhat {
		fl := math.Floor(v)
		out[k] = int64(fl)
		if rng.Float64() < v-fl {
			out[k]++
		}
	}
}

// Name implements Rounder.
func (BernoulliRounder) Name() string { return "bernoulli" }

// Deterministic implements Rounder.
func (BernoulliRounder) Deterministic() bool { return false }

// RounderByName returns the rounder registered under name
// (randomized | floor | nearest | bernoulli), or false.
func RounderByName(name string) (Rounder, bool) {
	switch name {
	case "randomized":
		return RandomizedRounder{}, true
	case "floor":
		return FloorRounder{}, true
	case "nearest":
		return NearestRounder{}, true
	case "bernoulli":
		return BernoulliRounder{}, true
	default:
		return nil, false
	}
}
