// Package randx provides deterministic random-number plumbing for the
// simulator.
//
// Reproducibility contract: every randomized component in this module is
// seeded explicitly, and the discrete rounding steps draw from counter-based
// per-(node, round) streams derived with SplitMix64. The result of a
// simulation therefore depends only on its seed — never on goroutine
// scheduling or worker count — which is what makes the parallel engine's
// output bit-identical to the sequential one.
package randx

import "math/rand/v2"

// splitMix64 advances the SplitMix64 state and returns the next output.
// Reference: Steele, Lea, Flood — "Fast Splittable Pseudorandom Number
// Generators", OOPSLA 2014 (public-domain constants).
func splitMix64(state uint64) uint64 {
	state += 0x9e3779b97f4a7c15
	z := state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix hashes an arbitrary sequence of words into a single well-distributed
// 64-bit value. It is used to derive independent stream seeds from
// (masterSeed, round, node) tuples.
func Mix(words ...uint64) uint64 {
	h := uint64(0x8bad_f00d_dead_beef)
	for _, w := range words {
		h = splitMix64(h ^ w)
	}
	return h
}

// New returns a PCG-backed *rand.Rand seeded from seed. Two calls with equal
// seeds yield identical streams.
func New(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(splitMix64(seed), splitMix64(seed^0xda94_2042_e4dd_58b5)))
}

// NewStream returns an independent generator for the given master seed and
// stream coordinates (typically round and node). The streams for distinct
// coordinates are statistically independent, so per-node rounding decisions
// can be made concurrently and still be reproducible.
func NewStream(masterSeed uint64, coords ...uint64) *rand.Rand {
	return New(Mix(append([]uint64{masterSeed}, coords...)...))
}

// PCGPair derives the two 64-bit seeds of a PCG state for callers that want
// to embed the generator without allocation.
func PCGPair(masterSeed uint64, coords ...uint64) (uint64, uint64) {
	s := Mix(append([]uint64{masterSeed}, coords...)...)
	return splitMix64(s), splitMix64(s ^ 0x5851_f42d_4c95_7f2d)
}

// Mix2 and Mix3 are allocation-free equivalents of Mix for the two hot
// coordinate shapes — (masterSeed, round) and (masterSeed, round, node) —
// used once per node per round in the rounding and workload paths. They
// produce bit-identical values to the variadic Mix.
func Mix2(a, b uint64) uint64 {
	h := uint64(0x8bad_f00d_dead_beef)
	h = splitMix64(h ^ a)
	return splitMix64(h ^ b)
}

// Mix3 is the three-word Mix fast path; see Mix2.
func Mix3(a, b, c uint64) uint64 {
	h := uint64(0x8bad_f00d_dead_beef)
	h = splitMix64(h ^ a)
	h = splitMix64(h ^ b)
	return splitMix64(h ^ c)
}

// PCGPair2 is the allocation-free PCGPair for (masterSeed, coord) streams.
func PCGPair2(a, b uint64) (uint64, uint64) {
	s := Mix2(a, b)
	return splitMix64(s), splitMix64(s ^ 0x5851_f42d_4c95_7f2d)
}

// PCGPair3 is the allocation-free PCGPair for (masterSeed, round, node)
// streams, the discrete engine's per-node rounding seed shape.
func PCGPair3(a, b, c uint64) (uint64, uint64) {
	return PCGPairAfter(Mix2(a, b), c)
}

// PCGPairAfter finishes a PCGPair3 whose first two words are already
// hashed: PCGPairAfter(Mix2(a, b), c) equals PCGPair3(a, b, c) bit for bit.
// A loop that seeds one stream per node of a round hashes the
// (masterSeed, round) prefix once and pays one splitMix64 per node for the
// mix instead of three.
func PCGPairAfter(prefix, c uint64) (uint64, uint64) {
	s := splitMix64(prefix ^ c)
	return splitMix64(s), splitMix64(s ^ 0x5851_f42d_4c95_7f2d)
}

// Perm fills dst with a uniformly random permutation of 0..len(dst)-1 using
// the Fisher–Yates shuffle.
func Perm(rng *rand.Rand, dst []int32) {
	for i := range dst {
		dst[i] = int32(i)
	}
	for i := len(dst) - 1; i > 0; i-- {
		j := rng.IntN(i + 1)
		dst[i], dst[j] = dst[j], dst[i]
	}
}
