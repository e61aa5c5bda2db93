package graph

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func must(t *testing.T) func(*Graph, error) *Graph {
	return func(g *Graph, err error) *Graph {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if verr := g.Validate(); verr != nil {
			t.Fatalf("Validate(%s): %v", g.Name(), verr)
		}
		return g
	}
}

func TestBuilderBasics(t *testing.T) {
	b := NewBuilder(4)
	if err := b.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(1, 0); err != nil { // duplicate, reversed
		t.Fatal(err)
	}
	if err := b.AddEdge(2, 3); err != nil {
		t.Fatal(err)
	}
	if b.NumEdges() != 2 {
		t.Errorf("NumEdges = %d, want 2 (dedup)", b.NumEdges())
	}
	if !b.HasEdge(0, 1) || !b.HasEdge(1, 0) || b.HasEdge(0, 2) {
		t.Error("HasEdge mismatch")
	}
	if err := b.AddEdge(1, 1); err == nil {
		t.Error("self-loop must be rejected")
	}
	if err := b.AddEdge(-1, 2); err == nil {
		t.Error("out-of-range must be rejected")
	}
	g := must(t)(b.Build("test"))
	if g.NumNodes() != 4 || g.NumEdges() != 2 {
		t.Errorf("built graph %v", g)
	}
	if !g.HasEdge(0, 1) || g.HasEdge(1, 2) || g.HasEdge(0, 0) {
		t.Error("graph HasEdge mismatch")
	}
}

func TestTorus2D(t *testing.T) {
	tests := []struct {
		w, h      int
		wantEdges int
		wantDeg   int
	}{
		{3, 3, 18, 4},
		{4, 5, 40, 4},
		{10, 10, 200, 4},
		{2, 3, 9, 3}, // side 2: single edge per pair in that dimension
		{1, 5, 5, 2}, // degenerate to a 5-cycle
		{2, 2, 4, 2}, // 4-cycle
		{1, 3, 3, 2}, // 3-cycle
	}
	for _, tc := range tests {
		g := must(t)(Torus2D(tc.w, tc.h))
		if g.NumEdges() != tc.wantEdges {
			t.Errorf("Torus2D(%d,%d): edges = %d, want %d", tc.w, tc.h, g.NumEdges(), tc.wantEdges)
		}
		if g.MaxDegree() != tc.wantDeg || g.MinDegree() != tc.wantDeg {
			t.Errorf("Torus2D(%d,%d): degree [%d,%d], want regular %d",
				tc.w, tc.h, g.MinDegree(), g.MaxDegree(), tc.wantDeg)
		}
		if !g.IsConnected() {
			t.Errorf("Torus2D(%d,%d) not connected", tc.w, tc.h)
		}
	}
	if _, err := Torus2D(0, 3); !errors.Is(err, ErrBadParameter) {
		t.Error("Torus2D(0,3) should fail")
	}
}

func TestTorus2DNeighborsExact(t *testing.T) {
	g := must(t)(Torus2D(4, 3))
	// Node (1,1) has id 5; neighbors (0,1)=4, (2,1)=6, (1,0)=1, (1,2)=9.
	want := map[int32]bool{4: true, 6: true, 1: true, 9: true}
	nb := g.Neighbors(5)
	if len(nb) != 4 {
		t.Fatalf("degree of node 5 = %d", len(nb))
	}
	for _, v := range nb {
		if !want[v] {
			t.Errorf("unexpected neighbor %d of node 5", v)
		}
	}
	// Wraparound of node (0,0)=0: (3,0)=3, (1,0)=1, (0,2)=8, (0,1)=4.
	want0 := map[int32]bool{3: true, 1: true, 8: true, 4: true}
	for _, v := range g.Neighbors(0) {
		if !want0[v] {
			t.Errorf("unexpected neighbor %d of node 0", v)
		}
	}
}

func TestTorusND(t *testing.T) {
	// 3x3x3 torus: 27 nodes, degree 6, 81 edges.
	g := must(t)(Torus(3, 3, 3))
	if g.NumNodes() != 27 || g.NumEdges() != 81 {
		t.Errorf("Torus(3,3,3) = %v", g)
	}
	if g.MinDegree() != 6 || g.MaxDegree() != 6 {
		t.Errorf("Torus(3,3,3) degrees [%d,%d]", g.MinDegree(), g.MaxDegree())
	}
	if !g.IsConnected() {
		t.Error("Torus(3,3,3) not connected")
	}
	// 2D consistency: Torus(w, h) has as many edges as Torus2D(w, h).
	a := must(t)(Torus(5, 4))
	b := must(t)(Torus2D(5, 4))
	if a.NumEdges() != b.NumEdges() {
		t.Errorf("Torus(5,4) edges %d != Torus2D(5,4) edges %d", a.NumEdges(), b.NumEdges())
	}
	// Dimension of size 1 contributes nothing.
	c := must(t)(Torus(1, 7))
	if c.NumEdges() != 7 {
		t.Errorf("Torus(1,7) edges = %d, want 7", c.NumEdges())
	}
}

func TestHypercube(t *testing.T) {
	for _, dim := range []int{1, 2, 3, 5, 8} {
		g := must(t)(Hypercube(dim))
		n := 1 << dim
		if g.NumNodes() != n {
			t.Errorf("Hypercube(%d): n = %d", dim, g.NumNodes())
		}
		if g.NumEdges() != n*dim/2 {
			t.Errorf("Hypercube(%d): edges = %d, want %d", dim, g.NumEdges(), n*dim/2)
		}
		if g.MinDegree() != dim || g.MaxDegree() != dim {
			t.Errorf("Hypercube(%d): not %d-regular", dim, dim)
		}
		if !g.IsConnected() {
			t.Errorf("Hypercube(%d) not connected", dim)
		}
	}
	// Adjacency differs in exactly one bit.
	g := must(t)(Hypercube(4))
	for u := 0; u < g.NumNodes(); u++ {
		for _, v := range g.Neighbors(u) {
			x := u ^ int(v)
			if x&(x-1) != 0 {
				t.Fatalf("nodes %d and %d differ in more than one bit", u, v)
			}
		}
	}
}

func TestClassicFamilies(t *testing.T) {
	cy := must(t)(Cycle(7))
	if cy.NumEdges() != 7 || cy.MaxDegree() != 2 || !cy.IsConnected() {
		t.Errorf("Cycle(7) = %v", cy)
	}
	pa := must(t)(Path(6))
	if pa.NumEdges() != 5 || pa.MaxDegree() != 2 || pa.MinDegree() != 1 {
		t.Errorf("Path(6) = %v", pa)
	}
	if pa.DiameterLowerBound(0) != 5 {
		t.Errorf("Path(6) diameter = %d, want 5", pa.DiameterLowerBound(0))
	}
	co := must(t)(Complete(5))
	if co.NumEdges() != 10 || co.MinDegree() != 4 {
		t.Errorf("Complete(5) = %v", co)
	}
	st := must(t)(Star(9))
	if st.NumEdges() != 8 || st.Degree(0) != 8 || st.Degree(1) != 1 {
		t.Errorf("Star(9) = %v", st)
	}
	gr := must(t)(Grid2D(3, 4))
	if gr.NumEdges() != 17 { // 2*3*4 - 3 - 4 = 17
		t.Errorf("Grid2D(3,4) edges = %d, want 17", gr.NumEdges())
	}
	lo := must(t)(Lollipop(4, 10))
	if !lo.IsConnected() || lo.NumEdges() != 6+6 {
		t.Errorf("Lollipop(4,10) = %v", lo)
	}
}

func TestRandomRegular(t *testing.T) {
	for _, tc := range []struct{ n, d int }{{10, 3}, {50, 4}, {100, 7}, {64, 16}} {
		g, err := RandomRegular(tc.n, tc.d, 12345)
		if err != nil {
			t.Fatalf("RandomRegular(%d,%d): %v", tc.n, tc.d, err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("RandomRegular(%d,%d) invalid: %v", tc.n, tc.d, err)
		}
		if g.MinDegree() != tc.d || g.MaxDegree() != tc.d {
			t.Errorf("RandomRegular(%d,%d): degrees [%d,%d]",
				tc.n, tc.d, g.MinDegree(), g.MaxDegree())
		}
		if g.NumEdges() != tc.n*tc.d/2 {
			t.Errorf("RandomRegular(%d,%d): edges = %d", tc.n, tc.d, g.NumEdges())
		}
	}
	// Odd n*d must fail.
	if _, err := RandomRegular(5, 3, 1); !errors.Is(err, ErrBadParameter) {
		t.Error("RandomRegular(5,3) should fail (odd stubs)")
	}
	// Determinism.
	a, _ := RandomRegular(40, 4, 777)
	b, _ := RandomRegular(40, 4, 777)
	ea, eb := a.Edges(), b.Edges()
	if len(ea) != len(eb) {
		t.Fatal("seeded RandomRegular not deterministic")
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatal("seeded RandomRegular not deterministic")
		}
	}
}

// TestRandomRegularComplete checks d = n−1, where the complete graph is the
// only (n−1)-regular simple graph: every seed must return its edge set
// under the regular name, with no repair search (which used to panic with
// no good edge to swap, or spend its whole budget and fail).
func TestRandomRegularComplete(t *testing.T) {
	for n := 2; n <= 12; n++ {
		want := must(t)(Complete(n)).Edges()
		for seed := uint64(0); seed < 20; seed++ {
			g := must(t)(RandomRegular(n, n-1, seed))
			if name := fmt.Sprintf("regular:%d:%d", n, n-1); g.Name() != name {
				t.Fatalf("RandomRegular(%d,%d,%d).Name() = %q, want %q", n, n-1, seed, g.Name(), name)
			}
			if got := g.Edges(); !slices.Equal(got, want) {
				t.Fatalf("RandomRegular(%d,%d,%d) edges %v, want complete:%d %v", n, n-1, seed, got, n, want)
			}
		}
	}
}

func TestRandomGeometric(t *testing.T) {
	g, pts, err := RandomGeometric(400, 99, GeometricOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(pts) != 400 {
		t.Fatalf("got %d points", len(pts))
	}
	if !g.IsConnected() {
		t.Error("patched RGG must be connected")
	}
	// Without patching, at threshold radius, small components may exist,
	// but the graph must still validate.
	g2, _, err := RandomGeometric(400, 99, GeometricOptions{KeepDisconnected: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := g2.Validate(); err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() > g.NumEdges() {
		t.Error("patching should only add edges")
	}
	// A generous radius must connect everything directly.
	g3, _, err := RandomGeometric(200, 5, GeometricOptions{Radius: 30, KeepDisconnected: true})
	if err != nil {
		t.Fatal(err)
	}
	if !g3.IsConnected() {
		t.Error("RGG with huge radius should be connected")
	}
	// A radius wider than the square's diagonal joins every pair.
	if got, want := g3.NumEdges(), 200*199/2; got != want {
		t.Errorf("RGG with a radius wider than the square has %d edges, want the complete graph's %d", got, want)
	}
}

// TestRandomGeometricMatchesAllPairs: the cell search finds exactly the
// pairs within the radius, both at the default radius (cells of side r)
// and at one so small that the index caps its cell count and uses wider
// cells.
func TestRandomGeometricMatchesAllPairs(t *testing.T) {
	for _, radius := range []float64{0, 0.45} {
		g, pts, err := RandomGeometric(2500, 3, GeometricOptions{Radius: radius, KeepDisconnected: true})
		if err != nil {
			t.Fatal(err)
		}
		r := radius
		if r == 0 {
			r = math.Pow(math.Log(2500), 0.25)
		}
		var want [][2]int
		for i := range pts {
			for j := i + 1; j < len(pts); j++ {
				if pts[i].Dist2(pts[j]) <= r*r {
					want = append(want, [2]int{i, j})
				}
			}
		}
		if got := g.Edges(); len(want) == 0 || !slices.Equal(got, want) {
			t.Errorf("radius %g: %d edges, want the %d pairs within it", r, len(got), len(want))
		}
	}
}

func TestErdosRenyi(t *testing.T) {
	g, err := ErdosRenyi(60, 0.2, 4242)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Expected edges = C(60,2)*0.2 = 354; allow generous slack.
	if g.NumEdges() < 250 || g.NumEdges() > 460 {
		t.Errorf("G(60,0.2) edges = %d, far from expectation 354", g.NumEdges())
	}
	empty, err := ErdosRenyi(10, 0, 1)
	if err != nil || empty.NumEdges() != 0 {
		t.Errorf("G(10,0) = %v, err %v", empty, err)
	}
	full, err := ErdosRenyi(10, 1, 1)
	if err != nil || full.NumEdges() != 45 {
		t.Errorf("G(10,1) edges = %d, want 45", full.NumEdges())
	}
}

func TestConnectedComponents(t *testing.T) {
	b := NewBuilder(7)
	_ = b.AddEdge(0, 1)
	_ = b.AddEdge(1, 2)
	_ = b.AddEdge(3, 4)
	// 5, 6 isolated
	g := must(t)(b.Build("comps"))
	comp, count := g.ConnectedComponents()
	if count != 4 {
		t.Fatalf("components = %d, want 4", count)
	}
	if comp[0] != comp[1] || comp[1] != comp[2] {
		t.Error("nodes 0,1,2 should share a component")
	}
	if comp[3] != comp[4] {
		t.Error("nodes 3,4 should share a component")
	}
	if comp[5] == comp[6] || comp[5] == comp[0] {
		t.Error("isolated nodes must have unique components")
	}
	if g.IsConnected() {
		t.Error("disconnected graph reported connected")
	}
}

func TestBFSDistances(t *testing.T) {
	g := must(t)(Cycle(8))
	d := g.BFSDistances(0)
	want := []int32{0, 1, 2, 3, 4, 3, 2, 1}
	for i := range want {
		if d[i] != want[i] {
			t.Fatalf("BFS distances = %v, want %v", d, want)
		}
	}
	if g.Eccentricity(0) != 4 {
		t.Errorf("Eccentricity = %d, want 4", g.Eccentricity(0))
	}
	if g.DiameterLowerBound(0) != 4 {
		t.Errorf("DiameterLowerBound = %d, want 4", g.DiameterLowerBound(0))
	}
}

func TestDegreeHistogramAndAverage(t *testing.T) {
	g := must(t)(Star(5))
	h := g.DegreeHistogram()
	if h[4] != 1 || h[1] != 4 {
		t.Errorf("histogram = %v", h)
	}
	if got := g.AverageDegree(); got != 1.6 {
		t.Errorf("AverageDegree = %g, want 1.6", got)
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	g := must(t)(Torus2D(4, 4))
	edges := g.Edges()
	if len(edges) != g.NumEdges() {
		t.Fatalf("Edges() length %d != NumEdges %d", len(edges), g.NumEdges())
	}
	b := NewBuilder(g.NumNodes())
	for _, e := range edges {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	g2 := must(t)(b.Build("roundtrip"))
	if g2.NumEdges() != g.NumEdges() {
		t.Error("round trip changed the edge count")
	}
	for u := 0; u < g.NumNodes(); u++ {
		if g.Degree(u) != g2.Degree(u) {
			t.Fatalf("degree mismatch at %d", u)
		}
	}
}

// Property: every Erdős–Rényi sample validates and satisfies the handshake
// lemma (Σ degrees = 2|E|).
func TestPropertyRandomGraphsValid(t *testing.T) {
	f := func(seed uint64, nRaw, pRaw uint8) bool {
		n := 2 + int(nRaw)%40
		p := float64(pRaw%100) / 100.0
		g, err := ErdosRenyi(n, p, seed)
		if err != nil {
			return false
		}
		if g.Validate() != nil {
			return false
		}
		sum := 0
		for i := 0; i < g.NumNodes(); i++ {
			sum += g.Degree(i)
		}
		return sum == 2*g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestFromEdgesRejectsLoopsAndRepeats: the mate index assumes a simple
// graph, so a self-loop or an edge listed twice (in either orientation)
// must fail the build instead of pairing two arcs with one mate.
func TestFromEdgesRejectsLoopsAndRepeats(t *testing.T) {
	for _, edges := range [][][2]int32{
		{{0, 1}, {1, 2}, {0, 1}},
		{{0, 1}, {1, 0}},
		{{0, 1}, {2, 2}},
	} {
		if g, err := fromEdges("bad", 3, edges); err == nil {
			t.Errorf("fromEdges(%v) built %v, want an error", edges, g)
		}
	}
}

// Property: mate involution means iterating arcs twice covers each edge once
// per direction.
func TestPropertyMateInvolution(t *testing.T) {
	f := func(seed uint64) bool {
		g, err := RandomRegular(24, 3, seed)
		if err != nil {
			return false
		}
		mate := g.MateIndex()
		for a := range mate {
			if int(mate[mate[a]]) != a {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestComponentsMatchConnectedComponents: the union-find rgg patches with
// labels every node exactly as Graph.ConnectedComponents does (components
// numbered by their smallest node), on disconnected rgg edge lists and on
// one with a single component.
func TestComponentsMatchConnectedComponents(t *testing.T) {
	for _, tc := range []struct {
		n      int
		radius float64
		seed   uint64
	}{{200, 0, 1}, {200, 0, 7}, {2500, 0.45, 3}, {400, 30, 5}} {
		g, _, err := RandomGeometric(tc.n, tc.seed, GeometricOptions{Radius: tc.radius, KeepDisconnected: true})
		if err != nil {
			t.Fatal(err)
		}
		var edges [][2]int32
		for _, e := range g.Edges() {
			edges = append(edges, [2]int32{int32(e[0]), int32(e[1])})
		}
		got, gotCount := components(tc.n, edges)
		want, wantCount := g.ConnectedComponents()
		if gotCount != wantCount || !slices.Equal(got, want) {
			t.Errorf("rgg:%d r=%g seed %d: union-find finds %d components, ConnectedComponents %d (labels equal: %v)",
				tc.n, tc.radius, tc.seed, gotCount, wantCount, slices.Equal(got, want))
		}
	}
}
