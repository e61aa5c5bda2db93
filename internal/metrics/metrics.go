// Package metrics implements the load-distribution quality metrics of
// Section VI of the paper and the initial load distributions its
// experiments use.
//
// The paper's metrics, for a load vector x(t) with average x̄ (or, in the
// heterogeneous model, proportional targets x̄_i = m·s_i/s):
//
//  1. maximum local load difference  φ_local = max_{u,v}∈E |x_u − x_v|
//  2. maximum load minus average     φ_global = Δ(t) = max_v x_v − x̄
//  3. 2-norm potential               φ_t = Σ_v (x_v − x̄)², reported as φ_t/n
//  4. eigenvector impact             (internal/eigen)
//  5. remaining imbalance            the plateau of φ_global once converged
//
// Everything is generic over int64 (discrete tokens) and float64 (idealized
// continuous loads) so the discrete and idealized pipelines report identical
// metric semantics.
package metrics

import (
	"errors"
	"fmt"
	"math"

	"diffusionlb/internal/graph"
	"diffusionlb/internal/hetero"
	"diffusionlb/internal/randx"
)

// Real is the constraint shared by discrete and continuous load vectors.
type Real interface {
	~int64 | ~float64
}

// MaxLocalDiff returns φ_local, the maximum load difference across any edge.
// Each undirected edge is visited once, from its lower endpoint: adjacency
// lists are strictly increasing (graph.Validate), so a node's higher
// neighbors are the tail of its list, which the scan walks from the end.
func MaxLocalDiff[T Real](g *graph.Graph, x []T) float64 {
	offsets, arcs := g.Offsets(), g.Arcs()
	var worst float64
	for i := 0; i < g.NumNodes(); i++ {
		xi := float64(x[i])
		for a := offsets[i+1] - 1; a >= offsets[i] && arcs[a] > int32(i); a-- {
			if d := math.Abs(xi - float64(x[arcs[a]])); d > worst {
				worst = d
			}
		}
	}
	return worst
}

// HeteroMaxLocalDiff returns the speed-normalized φ_local,
// max_{(u,v)∈E} |x_u/s_u − x_v/s_v| — the gradient that actually drives
// heterogeneous flows, and therefore the right locally-computable switching
// signal when speeds are not uniform. With nil or homogeneous speeds it
// equals MaxLocalDiff.
func HeteroMaxLocalDiff[T Real](g *graph.Graph, x []T, speeds *hetero.Speeds) float64 {
	if speeds == nil || speeds.IsHomogeneous() {
		return MaxLocalDiff(g, x)
	}
	offsets, arcs := g.Offsets(), g.Arcs()
	var worst float64
	for i := 0; i < g.NumNodes(); i++ {
		zi := float64(x[i]) / speeds.Of(i)
		for a := offsets[i+1] - 1; a >= offsets[i] && arcs[a] > int32(i); a-- { // higher neighbors, as in MaxLocalDiff
			j := arcs[a]
			if d := math.Abs(zi - float64(x[j])/speeds.Of(int(j))); d > worst {
				worst = d
			}
		}
	}
	return worst
}

// HeteroMaxAbsDeviation returns max_v |x_v − x̄_v| against the proportional
// targets x̄_v = total·s_v/s — the "ideal-load drift" a time-varying speed
// environment re-inflates the moment the targets move. With nil or
// homogeneous speeds the target is the plain average.
func HeteroMaxAbsDeviation[T Real](x []T, speeds *hetero.Speeds) float64 {
	if len(x) == 0 {
		return 0
	}
	total := Total(x)
	var worst float64
	if speeds == nil || speeds.IsHomogeneous() {
		avg := total / float64(len(x))
		for _, v := range x {
			if d := math.Abs(float64(v) - avg); d > worst {
				worst = d
			}
		}
		return worst
	}
	sSum := speeds.Sum()
	for i, v := range x {
		if d := math.Abs(float64(v) - total*speeds.Of(i)/sSum); d > worst {
			worst = d
		}
	}
	return worst
}

// Average returns the exact average load Σx/n as float64.
func Average[T Real](x []T) float64 {
	if len(x) == 0 {
		return 0
	}
	var s float64
	for _, v := range x {
		s += float64(v)
	}
	return s / float64(len(x))
}

// Total returns the total load as float64 (sum of entries).
func Total[T Real](x []T) float64 {
	var s float64
	for _, v := range x {
		s += float64(v)
	}
	return s
}

// MaxMinusAvg returns φ_global = max_v x_v − x̄ for the homogeneous model.
func MaxMinusAvg[T Real](x []T) float64 {
	if len(x) == 0 {
		return 0
	}
	avg := Average(x)
	mx := float64(x[0])
	for _, v := range x[1:] {
		if f := float64(v); f > mx {
			mx = f
		}
	}
	return mx - avg
}

// MinLoad returns the minimum entry of x.
func MinLoad[T Real](x []T) float64 {
	if len(x) == 0 {
		return 0
	}
	mn := float64(x[0])
	for _, v := range x[1:] {
		if f := float64(v); f < mn {
			mn = f
		}
	}
	return mn
}

// MaxLoad returns the maximum entry of x.
func MaxLoad[T Real](x []T) float64 {
	if len(x) == 0 {
		return 0
	}
	mx := float64(x[0])
	for _, v := range x[1:] {
		if f := float64(v); f > mx {
			mx = f
		}
	}
	return mx
}

// Discrepancy returns max − min load, the K of the paper's convergence
// statements.
func Discrepancy[T Real](x []T) float64 {
	if len(x) == 0 {
		return 0
	}
	mn, mx := float64(x[0]), float64(x[0])
	for _, v := range x[1:] {
		f := float64(v)
		if f < mn {
			mn = f
		}
		if f > mx {
			mx = f
		}
	}
	return mx - mn
}

// Potential returns φ_t = Σ_v (x_v − x̄_v)² against the proportional targets
// derived from speeds (uniform when speeds is nil). The paper plots φ_t/n;
// callers divide as needed.
func Potential[T Real](x []T, speeds *hetero.Speeds) float64 {
	if len(x) == 0 {
		return 0
	}
	total := Total(x)
	var sum, sSum float64
	if speeds == nil || speeds.IsHomogeneous() {
		avg := total / float64(len(x))
		for _, v := range x {
			d := float64(v) - avg
			sum += d * d
		}
		return sum
	}
	sSum = speeds.Sum()
	for i, v := range x {
		d := float64(v) - total*speeds.Of(i)/sSum
		sum += d * d
	}
	return sum
}

// HeteroMaxMinusTarget returns max_v (x_v − x̄_v) against proportional
// targets (the heterogeneous φ_global).
func HeteroMaxMinusTarget[T Real](x []T, speeds *hetero.Speeds) float64 {
	if len(x) == 0 {
		return 0
	}
	total := Total(x)
	if speeds == nil || speeds.IsHomogeneous() {
		return MaxMinusAvg(x)
	}
	worst := math.Inf(-1)
	for i, v := range x {
		if d := float64(v) - total*speeds.Of(i)/speeds.Sum(); d > worst {
			worst = d
		}
	}
	return worst
}

// HeteroNormalizedDiscrepancy returns max_v x_v/s_v − min_v x_v/s_v, the
// speed-normalized discrepancy that the heterogeneous process drives to
// zero.
func HeteroNormalizedDiscrepancy[T Real](x []T, speeds *hetero.Speeds) float64 {
	if len(x) == 0 {
		return 0
	}
	mn, mx := math.Inf(1), math.Inf(-1)
	for i, v := range x {
		z := float64(v) / speeds.Of(i)
		if z < mn {
			mn = z
		}
		if z > mx {
			mx = z
		}
	}
	return mx - mn
}

// DeviationInf returns ‖a−b‖_∞ between two load vectors of equal length
// (e.g. a discrete process and its continuous counterpart, Theorems 3/8/9).
func DeviationInf[T Real, U Real](a []T, b []U) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("metrics: deviation length mismatch %d != %d", len(a), len(b))
	}
	var worst float64
	for i := range a {
		if d := math.Abs(float64(a[i]) - float64(b[i])); d > worst {
			worst = d
		}
	}
	return worst, nil
}

// Deviation2 returns ‖a−b‖₂ (the Euclidean deviation of [12]).
func Deviation2[T Real, U Real](a []T, b []U) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("metrics: deviation length mismatch %d != %d", len(a), len(b))
	}
	var sum float64
	for i := range a {
		d := float64(a[i]) - float64(b[i])
		sum += d * d
	}
	return math.Sqrt(sum), nil
}

// CountAbove returns the number of nodes whose load exceeds the average by
// strictly more than margin (used for the Figure 11 shading analysis).
func CountAbove[T Real](x []T, margin float64) int {
	avg := Average(x)
	count := 0
	for _, v := range x {
		if float64(v)-avg > margin {
			count++
		}
	}
	return count
}

// NegativeCount returns the number of strictly negative entries.
func NegativeCount[T Real](x []T) int {
	c := 0
	for _, v := range x {
		if float64(v) < 0 {
			c++
		}
	}
	return c
}

// --- Initial load distributions (Section VI) ---

// ErrBadDistribution is returned for invalid initial-load parameters.
var ErrBadDistribution = errors.New("metrics: bad initial load distribution")

// PointLoad places total tokens on node at and zero elsewhere — the paper's
// default initialization with total = 1000·n at v0 = 0.
func PointLoad(n int, total int64, at int) ([]int64, error) {
	if n <= 0 || at < 0 || at >= n || total < 0 {
		return nil, fmt.Errorf("%w: PointLoad(n=%d, total=%d, at=%d)", ErrBadDistribution, n, total, at)
	}
	x := make([]int64, n)
	x[at] = total
	return x, nil
}

// UniformRandomLoad distributes total tokens by assigning each token to a
// uniformly random node.
func UniformRandomLoad(n int, total int64, seed uint64) ([]int64, error) {
	if n <= 0 || total < 0 {
		return nil, fmt.Errorf("%w: UniformRandomLoad(n=%d, total=%d)", ErrBadDistribution, n, total)
	}
	rng := randx.New(seed)
	x := make([]int64, n)
	// Token-by-token is O(total); for large totals distribute the bulk
	// evenly and randomize only the remainder plus a perturbation.
	if total > int64(n)*64 {
		base := total / int64(n)
		rem := total - base*int64(n)
		for i := range x {
			x[i] = base
		}
		for k := int64(0); k < rem; k++ {
			x[rng.IntN(n)]++
		}
		// Random pairwise transfers to roughen the distribution.
		for k := 0; k < n; k++ {
			i, j := rng.IntN(n), rng.IntN(n)
			if x[i] > 0 {
				move := rng.Int64N(x[i] + 1)
				x[i] -= move
				x[j] += move
			}
		}
		return x, nil
	}
	for k := int64(0); k < total; k++ {
		x[rng.IntN(n)]++
	}
	return x, nil
}

// BalancedPlusSpike gives every node base tokens and adds spike extra tokens
// on node at — the Δ(0) geometry of the negative-load experiments (§V).
func BalancedPlusSpike(n int, base, spike int64, at int) ([]int64, error) {
	if n <= 0 || at < 0 || at >= n || base < 0 || spike < 0 {
		return nil, fmt.Errorf("%w: BalancedPlusSpike(n=%d, base=%d, spike=%d, at=%d)", ErrBadDistribution, n, base, spike, at)
	}
	x := make([]int64, n)
	for i := range x {
		x[i] = base
	}
	x[at] += spike
	return x, nil
}

// ProportionalLoad assigns loads close to speeds-proportional targets by
// largest-remainder rounding; the result sums exactly to total.
func ProportionalLoad(total int64, speeds *hetero.Speeds) ([]int64, error) {
	if speeds == nil || total < 0 {
		return nil, fmt.Errorf("%w: ProportionalLoad", ErrBadDistribution)
	}
	n := speeds.Len()
	x := make([]int64, n)
	type frac struct {
		i int
		f float64
	}
	rem := make([]frac, n)
	var assigned int64
	for i := 0; i < n; i++ {
		ideal := float64(total) * speeds.Of(i) / speeds.Sum()
		fl := math.Floor(ideal)
		x[i] = int64(fl)
		assigned += x[i]
		rem[i] = frac{i, ideal - fl}
	}
	// Hand out the leftover tokens to the largest remainders.
	left := total - assigned
	for left > 0 {
		best := 0
		for i := 1; i < n; i++ {
			if rem[i].f > rem[best].f {
				best = i
			}
		}
		x[rem[best].i]++
		rem[best].f = -1
		left--
	}
	return x, nil
}
