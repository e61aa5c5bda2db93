// Package nodeset is the deterministic fraction-of-nodes picker shared by
// the environment-dynamics (internal/envdyn) and coupled-scenario
// (internal/scenario) subsystems. Both sides of a coupled event — the speed
// change and the derived load change — must target the *identical* node set
// bit-reproducibly, so the selection logic lives here rather than in either
// subsystem.
//
// Selection is a pure function of (base speeds, n, frac, sel, seed): the
// fast/slow modes rank nodes by base speed with ties broken toward the
// lowest index (stable sort), and the random mode shuffles with a stream
// derived from the seed via a fixed salt. The round never enters the
// selection, so a set is constant for the whole run and safe to cache.
package nodeset

import (
	"sort"

	"diffusionlb/internal/hetero"
	"diffusionlb/internal/randx"
)

// Selection names for the affected node set.
const (
	// Fast selects the fastest base-speed nodes (ties toward the lowest
	// index) — the natural target for throttling and drains.
	Fast = "fast"
	// Slow selects the slowest base-speed nodes.
	Slow = "slow"
	// Random selects nodes drawn from the seed's selection stream.
	Random = "random"
)

// saltSelect keeps the node-selection stream disjoint from the per-round
// dynamics streams derived from the same master seed. (The value predates
// this package: it must not change, or every SelRandom trajectory moves.)
const saltSelect = 0x73656c_6563_0001 // "select"

// Pick returns the selected node indices in ascending order:
// max(1, round(frac·n)) nodes, capped at n, chosen by sel (any unknown
// value, including "", falls back to Fast — callers validate upstream).
// base is the immutable base speed assignment (nil means homogeneous, where
// fast/slow degenerate to the lowest indices).
func Pick(base *hetero.Speeds, n int, frac float64, sel string, seed uint64) []int {
	k := int(float64(frac*float64(n)) + 0.5) // no fused multiply-add on arm64 (make fma-check)
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	switch sel {
	case Random:
		rng := randx.New(randx.Mix2(seed, saltSelect))
		rng.Shuffle(n, func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	case Slow:
		sort.SliceStable(idx, func(a, b int) bool { return speedOf(base, idx[a]) < speedOf(base, idx[b]) })
	default: // Fast
		sort.SliceStable(idx, func(a, b int) bool { return speedOf(base, idx[a]) > speedOf(base, idx[b]) })
	}
	picked := idx[:k]
	sort.Ints(picked)
	return picked
}

// speedOf tolerates a nil (homogeneous) base.
func speedOf(base *hetero.Speeds, i int) float64 {
	if base == nil {
		return 1
	}
	return base.Of(i)
}

// Selector caches a Pick result for repeated per-round use. The zero value
// is ready; set Frac, Sel and Seed before the first Pick and leave them
// unchanged afterwards (the cache is keyed on the node count only).
type Selector struct {
	// Frac is the affected fraction of nodes (at least one node).
	Frac float64
	// Sel picks the mode: Fast, Slow or Random (unknown values mean Fast).
	Sel string
	// Seed feeds the Random selection stream.
	Seed uint64

	nodes []int
	n     int
}

// Pick returns the cached node set for n nodes, computing it on first use.
func (s *Selector) Pick(base *hetero.Speeds, n int) []int {
	if s.nodes != nil && s.n == n {
		return s.nodes
	}
	s.nodes = Pick(base, n, s.Frac, s.Sel, s.Seed)
	s.n = n
	return s.nodes
}

// Contains reports whether node i is in the cached set of the last Pick
// (binary search over the ascending set; false before any Pick).
func (s *Selector) Contains(i int) bool {
	lo, hi := 0, len(s.nodes)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.nodes[mid] < i {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(s.nodes) && s.nodes[lo] == i
}
