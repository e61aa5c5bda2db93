// Package hetero models processor speeds for the heterogeneous network
// setting of the paper (Section II-c): each node i has a speed s_i >= 1, the
// minimum speed is 1, and a balanced state assigns node i the load
// x̄_i = m·s_i/s with s = s_1 + … + s_n.
package hetero

import (
	"errors"
	"fmt"
	"math"

	"diffusionlb/internal/randx"
)

// ErrBadSpeeds is returned when a speed vector violates the model (empty,
// non-finite, or minimum below 1).
var ErrBadSpeeds = errors.New("hetero: invalid speed vector")

// Speeds is a per-node processor speed assignment. A nil Speeds means the
// homogeneous model (all speeds 1); every accessor treats nil that way, so
// homogeneous callers never allocate an all-ones vector.
type Speeds struct {
	s     []float64
	sum   float64
	max   float64
	homog bool
	// name is the canonical spec for parser-built vectors (SpeedsFromSpec);
	// empty for programmatically constructed ones.
	name string
}

// Homogeneous returns the all-ones speed assignment for n nodes.
func Homogeneous(n int) *Speeds {
	return &Speeds{sum: float64(n), max: 1, homog: true, s: nil}
}

// New validates and wraps an explicit speed vector. Per the model the
// minimum speed must be exactly >= 1 and all entries finite.
func New(speeds []float64) (*Speeds, error) {
	if len(speeds) == 0 {
		return nil, fmt.Errorf("%w: empty", ErrBadSpeeds)
	}
	cp := make([]float64, len(speeds))
	copy(cp, speeds)
	sum, max := 0.0, 0.0
	for i, v := range cp {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%w: non-finite speed at node %d", ErrBadSpeeds, i)
		}
		if v < 1 {
			return nil, fmt.Errorf("%w: speed %g < 1 at node %d", ErrBadSpeeds, v, i)
		}
		sum += v
		if v > max {
			max = v
		}
	}
	homog := true
	for _, v := range cp {
		if v != 1 {
			homog = false
			break
		}
	}
	if homog {
		return Homogeneous(len(cp)), nil
	}
	return &Speeds{s: cp, sum: sum, max: max}, nil
}

// Len returns the number of nodes. For a Homogeneous value it is the n it
// was created with.
func (sp *Speeds) Len() int {
	if sp.s != nil {
		return len(sp.s)
	}
	return int(sp.sum)
}

// Equal reports whether sp and o hold the same speed vector, bit for bit.
// The same pointer is equal without a scan and two homogeneous vectors
// compare by length; otherwise the entries are compared by their bits. New
// turns an all-ones vector into a homogeneous one, so a homogeneous vector
// never equals an explicit one. A nil Speeds equals only nil.
func (sp *Speeds) Equal(o *Speeds) bool {
	if sp == o {
		return true
	}
	if sp == nil || o == nil {
		return false
	}
	if sp.s == nil || o.s == nil {
		return sp.s == nil && o.s == nil && sp.Len() == o.Len()
	}
	if len(sp.s) != len(o.s) {
		return false
	}
	for i, v := range sp.s {
		if math.Float64bits(v) != math.Float64bits(o.s[i]) {
			return false
		}
	}
	return true
}

// IsHomogeneous reports whether every speed equals 1.
func (sp *Speeds) IsHomogeneous() bool { return sp == nil || sp.homog }

// Name returns the canonical spec string for vectors built by
// SpeedsFromSpec (it re-parses to the same vector under the same seed and
// node count) and "" for programmatically constructed ones.
func (sp *Speeds) Name() string {
	if sp == nil {
		return ""
	}
	return sp.name
}

// Of returns s_i.
func (sp *Speeds) Of(i int) float64 {
	if sp == nil || sp.s == nil {
		return 1
	}
	return sp.s[i]
}

// Sum returns s = Σ s_i.
func (sp *Speeds) Sum() float64 { return sp.sum }

// Max returns s_max.
func (sp *Speeds) Max() float64 {
	if sp == nil || sp.s == nil {
		return 1
	}
	return sp.max
}

// Slice returns a copy of the full speed vector (materializing ones for the
// homogeneous case).
func (sp *Speeds) Slice() []float64 {
	n := sp.Len()
	out := make([]float64, n)
	if sp.s == nil {
		for i := range out {
			out[i] = 1
		}
		return out
	}
	copy(out, sp.s)
	return out
}

// IdealLoad returns the proportional target x̄_i = total·s_i/s for every
// node given a total load.
func (sp *Speeds) IdealLoad(total float64) []float64 {
	n := sp.Len()
	out := make([]float64, n)
	for i := range out {
		out[i] = total * sp.Of(i) / sp.sum
	}
	return out
}

// TwoClass returns n speeds where a fraction fastFrac of nodes (chosen
// deterministically from the seed) run at fastSpeed and the rest at 1.
func TwoClass(n int, fastFrac, fastSpeed float64, seed uint64) (*Speeds, error) {
	if n <= 0 || fastFrac < 0 || fastFrac > 1 || fastSpeed < 1 {
		return nil, fmt.Errorf("%w: TwoClass(n=%d, frac=%g, speed=%g)", ErrBadSpeeds, n, fastFrac, fastSpeed)
	}
	rng := randx.New(seed)
	s := make([]float64, n)
	for i := range s {
		if rng.Float64() < fastFrac {
			s[i] = fastSpeed
		} else {
			s[i] = 1
		}
	}
	return New(s)
}

// UniformRange returns n speeds drawn uniformly from [1, maxSpeed].
func UniformRange(n int, maxSpeed float64, seed uint64) (*Speeds, error) {
	if n <= 0 || maxSpeed < 1 {
		return nil, fmt.Errorf("%w: UniformRange(n=%d, max=%g)", ErrBadSpeeds, n, maxSpeed)
	}
	rng := randx.New(seed)
	s := make([]float64, n)
	for i := range s {
		s[i] = 1 + float64(rng.Float64()*(maxSpeed-1)) // no fused multiply-add on arm64 (make fma-check)
	}
	return New(s)
}

// PowerLaw returns n speeds distributed as a bounded Pareto with the given
// exponent alpha > 1 on [1, maxSpeed]; heavier tails model a few very fast
// machines among commodity ones.
func PowerLaw(n int, alpha, maxSpeed float64, seed uint64) (*Speeds, error) {
	if n <= 0 || alpha <= 1 || maxSpeed <= 1 {
		return nil, fmt.Errorf("%w: PowerLaw(n=%d, alpha=%g, max=%g)", ErrBadSpeeds, n, alpha, maxSpeed)
	}
	rng := randx.New(seed)
	s := make([]float64, n)
	// Inverse-CDF sampling of a Pareto(alpha) truncated to [1, maxSpeed].
	hMax := 1 - math.Pow(maxSpeed, 1-alpha)
	for i := range s {
		u := float64(rng.Float64() * hMax) // no fused multiply-add with 1−u on arm64 (make fma-check)
		s[i] = math.Pow(1-u, 1/(1-alpha))
		if s[i] > maxSpeed {
			s[i] = maxSpeed
		}
	}
	return New(s)
}

// SingleFast returns the homogeneous vector with one node (index fast) sped
// up to fastSpeed — the simplest heterogeneous stress case.
func SingleFast(n, fast int, fastSpeed float64) (*Speeds, error) {
	if n <= 0 || fast < 0 || fast >= n || fastSpeed < 1 {
		return nil, fmt.Errorf("%w: SingleFast(n=%d, i=%d, speed=%g)", ErrBadSpeeds, n, fast, fastSpeed)
	}
	s := make([]float64, n)
	for i := range s {
		s[i] = 1
	}
	s[fast] = fastSpeed
	return New(s)
}
