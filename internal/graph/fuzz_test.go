package graph

import (
	"strconv"
	"strings"
	"testing"
)

// FuzzFromSpec: no input may panic — malformed specs must error — and every
// accepted spec must build a graph that passes Validate and has a canonical
// Name that reparses, under the same seed, to a graph of identical name and
// shape.
func FuzzFromSpec(f *testing.F) {
	for _, s := range []string{
		"torus2d:8x8", "torus:4x4x4", "hypercube:6", "regular:12:4",
		"rgg:12", "cycle:9", "path:9", "complete:8", "grid:4x5", "star:7",
		"", "x", "torus2d:8", "regular:12", "cycle:-3", "torus2d:axb",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		if len(spec) > 32 || hugeDims(spec) {
			return // bound the graph size, not the grammar
		}
		g, err := FromSpec(spec, 1)
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted spec %q built an invalid graph: %v", spec, err)
		}
		name := g.Name()
		again, err := FromSpec(name, 1)
		if err != nil {
			t.Fatalf("Name %q of accepted spec %q does not reparse: %v", name, spec, err)
		}
		if again.Name() != name {
			t.Fatalf("Name not canonical: %q -> %q", name, again.Name())
		}
		if again.NumNodes() != g.NumNodes() || again.NumArcs() != g.NumArcs() {
			t.Fatalf("round-trip of %q changed shape: %d->%d nodes, %d->%d arcs",
				spec, g.NumNodes(), again.NumNodes(), g.NumArcs(), again.NumArcs())
		}
	})
}

// hugeDims rejects specs whose numeric fields would build a graph too large
// for one fuzz iteration (hypercube's dimension is an exponent, so the cap
// must stay small). Non-numeric fields pass through: their error paths are
// cheap and worth fuzzing.
func hugeDims(spec string) bool {
	for _, part := range strings.FieldsFunc(spec, func(r rune) bool {
		return r == ':' || r == 'x' || r == 'X'
	}) {
		digits := strings.TrimLeft(part, "+-")
		if digits == "" || strings.Trim(digits, "0123456789") != "" {
			continue
		}
		if len(digits) > 2 {
			return true
		}
		if v, err := strconv.Atoi(part); err == nil && v > 12 {
			return true
		}
	}
	return false
}
