package graph

import (
	"errors"
	"strings"

	"diffusionlb/internal/spec"
)

// ErrBadSpec reports a malformed graph spec (as opposed to ErrBadParameter
// and ErrTooLarge, which report generator arguments out of range).
var ErrBadSpec = errors.New("graph: invalid spec")

// FromSpec builds a graph from a compact textual spec, the syntax shared by
// the lbsim CLI and the sweep engine:
//
//	torus2d:WxH | torus:S1xS2x... | hypercube:DIM | regular:N:D |
//	rgg:N | cycle:N | path:N | complete:N | grid:WxH | star:N
//
// The kind is case-insensitive, and 'x', 'X' and ':' all separate the
// numbers, empty fields dropping out ("regular:12::4" is "regular:12:4").
// Randomized families (regular, rgg) consume seed; deterministic families
// ignore it, so a spec plus a seed always identifies one graph.
func FromSpec(s string, seed uint64) (*Graph, error) {
	kind, rest, _ := strings.Cut(s, ":")
	kind = strings.ToLower(kind)
	r := spec.New(ErrBadSpec, s, kind, strings.FieldsFunc(rest, func(c rune) bool {
		return c == 'x' || c == 'X' || c == ':'
	}))
	arity := 1
	switch kind {
	case "torus2d", "grid", "regular":
		arity = 2
	case "torus":
		arity = r.Len()
	case "hypercube", "rgg", "cycle", "path", "complete", "star":
	default:
		r.Fail("unknown kind (torus2d|torus|hypercube|regular|rgg|cycle|path|complete|grid|star)")
	}
	d := make([]int, arity)
	for i := range d {
		d[i] = r.Int(i + 1)
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	switch kind {
	case "torus2d":
		return Torus2D(d[0], d[1])
	case "torus":
		return Torus(d...)
	case "hypercube":
		return Hypercube(d[0])
	case "regular":
		return RandomRegular(d[0], d[1], seed)
	case "rgg":
		g, _, err := RandomGeometric(d[0], seed, GeometricOptions{})
		return g, err
	case "cycle":
		return Cycle(d[0])
	case "path":
		return Path(d[0])
	case "complete":
		return Complete(d[0])
	case "grid":
		return Grid2D(d[0], d[1])
	default:
		return Star(d[0])
	}
}
