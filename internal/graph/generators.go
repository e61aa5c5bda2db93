package graph

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"diffusionlb/internal/randx"
)

// torusName renders the canonical spec of a general torus, e.g.
// "torus:4x4x4", so FromSpec(g.Name()) round-trips.
func torusName(sides []int) string {
	parts := make([]string, len(sides))
	for d, s := range sides {
		parts[d] = strconv.Itoa(s)
	}
	return "torus:" + strings.Join(parts, "x")
}

// Torus2D returns the w×h two-dimensional torus: node (x, y) is adjacent to
// (x±1 mod w, y) and (x, y±1 mod h). This is the paper's primary benchmark
// topology (1000×1000 in Figure 1, 100×100 in Figures 7/8/15). Nodes are
// numbered row-major: id = y*w + x, so node 0 is the top-left corner used as
// the initially loaded node v0.
func Torus2D(w, h int) (*Graph, error) {
	if w < 1 || h < 1 {
		return nil, fmt.Errorf("graph: Torus2D(%d,%d): %w", w, h, ErrBadParameter)
	}
	edges := make([][2]int32, 0, 2*w*h)
	id := func(x, y int) int32 { return int32(y*w + x) }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			// Horizontal wrap edge, generated once per edge.
			if w > 2 || (w == 2 && x == 0) {
				edges = append(edges, orient(id(x, y), id((x+1)%w, y)))
			}
			if h > 2 || (h == 2 && y == 0) {
				edges = append(edges, orient(id(x, y), id(x, (y+1)%h)))
			}
		}
	}
	return fromEdges(fmt.Sprintf("torus2d:%dx%d", w, h), w*h, edges)
}

// Torus returns the d-dimensional torus with the given side lengths
// (Torus(10, 10, 10) is the 10×10×10 3-D torus). Sides of length 1
// contribute no edges; sides of length 2 contribute a single edge per pair.
func Torus(sides ...int) (*Graph, error) {
	if len(sides) == 0 {
		return nil, fmt.Errorf("graph: Torus needs at least one dimension: %w", ErrBadParameter)
	}
	n := 1
	for _, s := range sides {
		if s < 1 {
			return nil, fmt.Errorf("graph: Torus side %d: %w", s, ErrBadParameter)
		}
		if n > (1<<30)/s {
			return nil, ErrTooLarge
		}
		n *= s
	}
	strides := make([]int, len(sides))
	stride := 1
	for d, s := range sides {
		strides[d] = stride
		stride *= s
	}
	coord := make([]int, len(sides))
	var edges [][2]int32
	for v := 0; v < n; v++ {
		rem := v
		for d, s := range sides {
			coord[d] = rem % s
			rem /= s
		}
		for d, s := range sides {
			if s == 1 {
				continue
			}
			if s == 2 && coord[d] != 0 {
				continue
			}
			next := v - coord[d]*strides[d] + ((coord[d]+1)%s)*strides[d]
			edges = append(edges, orient(int32(v), int32(next)))
		}
	}
	return fromEdges(torusName(sides), n, edges)
}

// Hypercube returns the dim-dimensional hypercube on 2^dim nodes, where nodes
// are adjacent iff their ids differ in exactly one bit. The paper uses
// dim = 20 (n = 2^20) in Figure 13.
func Hypercube(dim int) (*Graph, error) {
	if dim < 1 || dim > 30 {
		return nil, fmt.Errorf("graph: Hypercube(%d): %w", dim, ErrBadParameter)
	}
	n := 1 << dim
	if int64(n)*int64(dim) > int64(1)<<31-2 {
		return nil, ErrTooLarge
	}
	edges := make([][2]int32, 0, n*dim/2)
	for v := 0; v < n; v++ {
		for b := 0; b < dim; b++ {
			u := v ^ (1 << b)
			if v < u {
				edges = append(edges, [2]int32{int32(v), int32(u)})
			}
		}
	}
	return fromEdges(fmt.Sprintf("hypercube:%d", dim), n, edges)
}

// Cycle returns the cycle graph on n >= 3 nodes.
func Cycle(n int) (*Graph, error) {
	if n < 3 {
		return nil, fmt.Errorf("graph: Cycle(%d): %w", n, ErrBadParameter)
	}
	edges := make([][2]int32, 0, n)
	for i := 0; i < n; i++ {
		edges = append(edges, orient(int32(i), int32((i+1)%n)))
	}
	return fromEdges(fmt.Sprintf("cycle:%d", n), n, edges)
}

// Path returns the path graph on n >= 2 nodes.
func Path(n int) (*Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("graph: Path(%d): %w", n, ErrBadParameter)
	}
	edges := make([][2]int32, 0, n-1)
	for i := 0; i+1 < n; i++ {
		edges = append(edges, [2]int32{int32(i), int32(i + 1)})
	}
	return fromEdges(fmt.Sprintf("path:%d", n), n, edges)
}

// Complete returns the complete graph K_n.
func Complete(n int) (*Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("graph: Complete(%d): %w", n, ErrBadParameter)
	}
	return fromEdges(fmt.Sprintf("complete:%d", n), n, completeEdges(n))
}

// completeEdges lists every pair i < j of n nodes.
func completeEdges(n int) [][2]int32 {
	edges := make([][2]int32, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, [2]int32{int32(i), int32(j)})
		}
	}
	return edges
}

// Star returns the star graph with one hub (node 0) and n-1 leaves.
func Star(n int) (*Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("graph: Star(%d): %w", n, ErrBadParameter)
	}
	edges := make([][2]int32, 0, n-1)
	for i := 1; i < n; i++ {
		edges = append(edges, [2]int32{0, int32(i)})
	}
	return fromEdges(fmt.Sprintf("star:%d", n), n, edges)
}

// Grid2D returns the w×h grid (torus without wraparound), useful as a
// low-conductance test topology.
func Grid2D(w, h int) (*Graph, error) {
	if w < 1 || h < 1 || w*h < 2 {
		return nil, fmt.Errorf("graph: Grid2D(%d,%d): %w", w, h, ErrBadParameter)
	}
	var edges [][2]int32
	id := func(x, y int) int32 { return int32(y*w + x) }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				edges = append(edges, [2]int32{id(x, y), id(x+1, y)})
			}
			if y+1 < h {
				edges = append(edges, [2]int32{id(x, y), id(x, y+1)})
			}
		}
	}
	return fromEdges(fmt.Sprintf("grid:%dx%d", w, h), w*h, edges)
}

// Lollipop returns a clique of size k attached to a path of length n-k — a
// classic worst case for diffusion speed, used in tests as a slow-mixing
// contrast to expanders.
func Lollipop(k, n int) (*Graph, error) {
	if k < 3 || n <= k {
		return nil, fmt.Errorf("graph: Lollipop(%d,%d): %w", k, n, ErrBadParameter)
	}
	var edges [][2]int32
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			edges = append(edges, [2]int32{int32(i), int32(j)})
		}
	}
	for i := k - 1; i+1 < n; i++ {
		edges = append(edges, [2]int32{int32(i), int32(i + 1)})
	}
	return fromEdges(fmt.Sprintf("lollipop-%d-%d", k, n), n, edges)
}

// orient returns the pair with the smaller id first.
func orient(u, v int32) [2]int32 {
	if u > v {
		u, v = v, u
	}
	return [2]int32{u, v}
}

// RandomRegular returns a random d-regular simple graph on n nodes built with
// the configuration model [Wormald '99], the construction the paper uses for
// its "Random Graph (CM)" family (n = 10^6, d = floor(log2 n) = 19 in
// Figure 12). n*d must be even and d < n.
//
// The generator pairs stubs uniformly at random and then repairs self-loops
// and parallel edges by degree-preserving edge swaps with uniformly chosen
// partner edges, which keeps the graph exactly d-regular. For d = n−1 it
// returns the complete graph, the only (n−1)-regular simple graph, which
// the swaps cannot reach.
func RandomRegular(n, d int, seed uint64) (*Graph, error) {
	if n < 2 || d < 1 || d >= n || (n*d)%2 != 0 {
		return nil, fmt.Errorf("graph: RandomRegular(%d,%d): %w", n, d, ErrBadParameter)
	}
	if int64(n)*int64(d) > int64(1)<<31-2 {
		return nil, ErrTooLarge
	}
	name := fmt.Sprintf("regular:%d:%d", n, d)
	if d == n-1 {
		return fromEdges(name, n, completeEdges(n))
	}
	rng := randx.New(seed)

	stubs := make([]int32, n*d)
	for i := 0; i < n; i++ {
		for k := 0; k < d; k++ {
			stubs[i*d+k] = int32(i)
		}
	}
	// Fisher-Yates over the stub multiset.
	for i := len(stubs) - 1; i > 0; i-- {
		j := rng.IntN(i + 1)
		stubs[i], stubs[j] = stubs[j], stubs[i]
	}

	// Pair consecutive stubs. The first occurrence of each simple pair, in
	// stream order, becomes an edge; self-loops and repeats are bad.
	m := len(stubs) / 2
	pairs := make([]edge, m)
	for i := range pairs {
		pairs[i] = orient(stubs[2*i], stubs[2*i+1])
	}
	seen := &edgeSet{d: d, hi: stubs, size: make([]int32, n)} // reuses the paired stubs
	edges, bad := seen.split(pairs)

	// Repair pass: each bad pair (u,v) is resolved by picking a random good
	// edge (a,b) and rewiring to (u,a), (v,b) when both are new simple edges.
	// Without a good edge no swap exists.
	const maxAttempts = 1 << 22
	attempts := 0
	for len(bad) > 0 {
		if attempts++; attempts > maxAttempts || len(edges) == 0 {
			return nil, fmt.Errorf("graph: RandomRegular(%d,%d): repair did not converge: %w", n, d, ErrBadParameter)
		}
		e := bad[len(bad)-1]
		u, v := e[0], e[1]
		k := rng.IntN(len(edges))
		a, b := edges[k][0], edges[k][1]
		if rng.IntN(2) == 1 {
			a, b = b, a
		}
		e1, e2 := orient(u, a), orient(v, b)
		if u == a || v == b || e1 == e2 || seen.has(e1) || seen.has(e2) {
			continue
		}
		// Commit: replace (a,b) with (u,a) and (v,b). Removing first keeps
		// every node within its d slots.
		seen.remove(edges[k])
		seen.insert(e1)
		seen.insert(e2)
		edges[k] = e1
		edges = append(edges, e2)
		bad = bad[:len(bad)-1]
	}
	return fromEdges(name, n, edges)
}

// edge is an undirected edge {e[0], e[1]}, stored with e[0] <= e[1].
type edge = [2]int32

// edgeSet is a set of simple edges of a graph whose nodes have at most d
// edges each. Node u owns d slots; the first size[u] of them hold, sorted,
// the higher ends of u's edges whose lower end is u. A lookup is a binary
// search in one node's slots, and an insert or a delete shifts within them,
// so the set needs no hashing and costs one int32 per stub.
type edgeSet struct {
	d    int
	hi   []int32 // len n*d
	size []int32 // len n
}

// slots returns node u's used slots, with capacity for all d of them.
func (s *edgeSet) slots(u int32) []int32 {
	off := int(u) * s.d
	return s.hi[off : off+int(s.size[u]) : off+s.d]
}

// split fills the empty set with the distinct simple pairs of a stream in
// which no node is the lower end of more than d pairs. It returns the
// first occurrence of each distinct pair, compacted in place in stream
// order, and the rest (self-loops and repeats), also in stream order.
func (s *edgeSet) split(pairs []edge) (firsts, rest []edge) {
	// Each node's slots receive the higher ends of its pairs in stream
	// order, so a repeat sits after its first occurrence. Mark repeats ^v.
	for _, e := range pairs {
		if u := e[0]; u != e[1] {
			s.hi[int(u)*s.d+int(s.size[u])] = e[1]
			s.size[u]++
		}
	}
	mark := make([]int32, len(s.size)) // mark[v] = u+1 once u's slots hold v
	for u := range s.size {
		b := s.slots(int32(u))
		for k, v := range b {
			if mark[v] == int32(u)+1 {
				b[k] = ^v
			} else {
				mark[v] = int32(u) + 1
			}
		}
	}
	// Replaying the stream meets each node's slots in order again. Then
	// only the first occurrences stay, sorted.
	next := mark
	clear(next)
	firsts = pairs[:0]
	for _, e := range pairs {
		if u := e[0]; u != e[1] {
			v := s.hi[int(u)*s.d+int(next[u])]
			next[u]++
			if v >= 0 {
				firsts = append(firsts, e)
				continue
			}
		}
		rest = append(rest, e)
	}
	for u := range s.size {
		b := slices.DeleteFunc(s.slots(int32(u)), func(v int32) bool { return v < 0 })
		slices.Sort(b)
		s.size[u] = int32(len(b))
	}
	return firsts, rest
}

// has reports whether e is in the set.
func (s *edgeSet) has(e edge) bool {
	_, ok := slices.BinarySearch(s.slots(e[0]), e[1])
	return ok
}

// insert adds e, which must not be in the set.
func (s *edgeSet) insert(e edge) {
	b := s.slots(e[0])
	k, _ := slices.BinarySearch(b, e[1])
	b = b[:len(b)+1] // within the node's d slots
	copy(b[k+1:], b[k:])
	b[k] = e[1]
	s.size[e[0]]++
}

// remove deletes e, which must be in the set.
func (s *edgeSet) remove(e edge) {
	b := s.slots(e[0])
	k, _ := slices.BinarySearch(b, e[1])
	copy(b[k:], b[k+1:])
	s.size[e[0]]--
}

// GeometricOptions configures RandomGeometric.
type GeometricOptions struct {
	// Radius is the connection radius. When 0, the paper's default
	// (log n)^(1/4) is used — right at the connectivity threshold, so the
	// construction patches remaining small components exactly as described
	// in Section VI-B.
	Radius float64
	// KeepDisconnected skips the component patch-up step.
	KeepDisconnected bool
}

// RandomGeometric places n nodes uniformly at random in the square
// [0, sqrt(n)]^2 and connects pairs within the connection radius, then (per
// the paper) connects every remaining small component to the closest node of
// the largest component. Coordinates are returned for visualization.
func RandomGeometric(n int, seed uint64, opts GeometricOptions) (*Graph, []Point, error) {
	if n < 2 {
		return nil, nil, fmt.Errorf("graph: RandomGeometric(%d): %w", n, ErrBadParameter)
	}
	r := opts.Radius
	if r <= 0 {
		r = math.Pow(math.Log(float64(n)), 0.25)
	}
	side := math.Sqrt(float64(n))
	rng := randx.New(seed)
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{X: rng.Float64() * side, Y: rng.Float64() * side}
	}

	// Cell-bucketed neighbor search: cells of side r, check 3x3 blocks. A
	// radius so small that there would be more than about 4n cells gets
	// fewer, wider cells instead, which still hold every pair within r in
	// adjacent cells.
	cells, cs := int(side/r)+1, r
	if limit := 2*int(side) + 2; cells > limit {
		cells, cs = limit, side/float64(limit)
	}
	cellOf := func(p Point) (int, int) {
		return min(int(p.X/cs), cells-1), min(int(p.Y/cs), cells-1)
	}
	// Counting sort of the nodes by cell, cell cx*cells+cy holding
	// members[start[c]:start[c+1]] in increasing node order.
	start := make([]int32, cells*cells+1)
	cell := make([]int32, n)
	for i, p := range pts {
		cx, cy := cellOf(p)
		cell[i] = int32(cx*cells + cy)
		start[cell[i]+1]++
	}
	for c := 1; c < len(start); c++ {
		start[c] += start[c-1]
	}
	members := make([]int32, n)
	next := slices.Clone(start[:cells*cells])
	for i, c := range cell {
		members[next[c]] = int32(i)
		next[c]++
	}
	r2 := r * r
	var edges [][2]int32
	for i := 0; i < n; i++ {
		cx, cy := cellOf(pts[i])
		for x := max(cx-1, 0); x <= min(cx+1, cells-1); x++ {
			for y := max(cy-1, 0); y <= min(cy+1, cells-1); y++ {
				c := x*cells + y
				for _, j := range members[start[c]:start[c+1]] {
					if j <= int32(i) {
						continue
					}
					if pts[i].Dist2(pts[j]) <= r2 {
						edges = append(edges, [2]int32{int32(i), j})
					}
				}
			}
		}
	}

	g, err := fromEdges(fmt.Sprintf("rgg:%d", n), n, edges)
	if err != nil {
		return nil, nil, err
	}
	if opts.KeepDisconnected {
		return g, pts, nil
	}
	g, err = connectToGiant(g, pts, edges)
	if err != nil {
		return nil, nil, err
	}
	return g, pts, nil
}

// connectToGiant implements the paper's patch-up: every component other than
// the largest is connected to its geometrically closest node in the largest
// component.
func connectToGiant(g *Graph, pts []Point, edges [][2]int32) (*Graph, error) {
	comp, count := g.ConnectedComponents()
	if count <= 1 {
		return g, nil
	}
	sizes := make([]int, count)
	for _, c := range comp {
		sizes[c]++
	}
	giant := 0
	for c, s := range sizes {
		if s > sizes[giant] {
			giant = c
		}
	}
	giantNodes := make([]int32, 0, sizes[giant])
	for i, c := range comp {
		if c == int32(giant) {
			giantNodes = append(giantNodes, int32(i))
		}
	}
	members := make([][]int32, count)
	for i, c := range comp {
		if c != int32(giant) {
			members[c] = append(members[c], int32(i))
		}
	}
	for c := range members {
		if c == giant || len(members[c]) == 0 {
			continue
		}
		bestD := math.Inf(1)
		var bu, bv int32
		for _, u := range members[c] {
			for _, v := range giantNodes {
				if d := pts[u].Dist2(pts[v]); d < bestD {
					bestD, bu, bv = d, u, v
				}
			}
		}
		edges = append(edges, orient(bu, bv))
	}
	// Patching is part of the deterministic (spec, seed) construction, so
	// the patched graph keeps the canonical spec as its name. Each patch
	// edge joins a different component to the giant one, so none repeats
	// an edge.
	return fromEdges(g.Name(), g.NumNodes(), edges)
}

// Point is a 2-D coordinate used by the random geometric graph generator.
type Point struct{ X, Y float64 }

// Dist2 returns the squared Euclidean distance between p and q.
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// ErdosRenyi returns G(n, p) conditioned on simplicity, as an auxiliary
// test topology; it is not used by the paper's evaluation but exercises the
// spectral machinery on irregular graphs.
func ErdosRenyi(n int, p float64, seed uint64) (*Graph, error) {
	if n < 2 || p < 0 || p > 1 {
		return nil, fmt.Errorf("graph: ErdosRenyi(%d,%g): %w", n, p, ErrBadParameter)
	}
	rng := randx.New(seed)
	var edges [][2]int32
	// Geometric skipping for sparse p keeps this O(n^2 p).
	if p == 0 {
		return fromEdges(fmt.Sprintf("gnp-n%d-p%g", n, p), n, edges)
	}
	logq := math.Log(1 - p)
	total := int64(n) * int64(n-1) / 2
	var idx int64 = -1
	for {
		var skip int64
		if p < 1 {
			skip = int64(math.Log(1-rng.Float64()) / logq)
		}
		idx += skip + 1
		if idx >= total {
			break
		}
		// Invert the linear index into (i, j), i < j.
		i := int64(0)
		rem := idx
		for rem >= int64(n-1-int(i)) {
			rem -= int64(n - 1 - int(i))
			i++
		}
		j := i + 1 + rem
		edges = append(edges, [2]int32{int32(i), int32(j)})
	}
	return fromEdges(fmt.Sprintf("gnp-n%d-p%g", n, p), n, edges)
}
