package hetero

import (
	"errors"
	"math"

	"diffusionlb/internal/spec"
)

// ErrBadSpec reports a malformed speeds spec (as opposed to ErrBadSpeeds,
// which reports an invalid speed vector).
var ErrBadSpec = errors.New("hetero: invalid speeds spec")

// SpeedsFromSpec builds processor speeds from a compact textual spec, the
// syntax shared by the lbsim CLI and the sweep engine:
//
//	twoclass:FRAC:SPEED | range:MAX | powerlaw:ALPHA:MAX | single:IDX:SPEED
//
// The empty spec means homogeneous speeds and returns (nil, nil). The
// result's Name() is the canonical spec and re-parses to the same vector
// under the same (n, seed).
func SpeedsFromSpec(s string, n int, seed uint64) (*Speeds, error) {
	if s == "" {
		return nil, nil
	}
	r := spec.Positional(ErrBadSpec, s)
	kind := r.Kind()
	var a, b float64 // the kind's arguments, in grammar order
	switch kind {
	case "twoclass", "powerlaw":
		a, b = r.Float(1), r.Float(2)
	case "range":
		a = r.Float(1)
	case "single":
		a = r.Float(1)
		//lint:allow floateq integrality check: Trunc equality is exact by construction
		r.Check(a == math.Trunc(a), "node index must be an integer")
		b = r.Float(2)
	default:
		r.Fail("unknown kind (twoclass|range|powerlaw|single)")
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	var (
		sp   *Speeds
		err  error
		name string
	)
	switch kind {
	case "twoclass":
		sp, err = TwoClass(n, a, b, seed)
		name = spec.Name(kind, a, b)
	case "range":
		sp, err = UniformRange(n, a, seed)
		name = spec.Name(kind, a)
	case "powerlaw":
		sp, err = PowerLaw(n, a, b, seed)
		name = spec.Name(kind, a, b)
	case "single":
		sp, err = SingleFast(n, int(a), b)
		name = spec.Name(kind, int(a), b)
	}
	if err != nil {
		return nil, err
	}
	sp.name = name
	return sp, nil
}
