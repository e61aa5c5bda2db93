// Package graph provides the interconnection-network substrate for the
// diffusion load balancing algorithms: a compact CSR (compressed sparse row)
// adjacency representation, the graph families used in the paper's
// evaluation (2-D tori, hypercubes, random regular graphs built with the
// configuration model, random geometric graphs), and the classic graph
// algorithms the simulator and the spectral analysis need (BFS, connected
// components, diameter, degree statistics).
//
// Node identifiers are dense integers 0..N-1. Graphs are simple (no
// self-loops, no parallel edges) and undirected: every edge {i, j} appears as
// two directed arcs i->j and j->i. The arc layout is the fundamental data
// structure the diffusion engine iterates over, so it is exposed directly:
// Arcs()[Offsets()[i]:Offsets()[i+1]] are the neighbors of i, and Mate(a)
// gives, for the arc at position a, the position of the reverse arc. The mate
// index is what lets a discrete scheme write an antisymmetric integer flow
// exactly once per undirected edge.
package graph

import (
	"errors"
	"fmt"
	"slices"
)

// Common construction errors.
var (
	// ErrTooLarge is returned when a requested graph exceeds the int32 arc
	// address space of the CSR representation.
	ErrTooLarge = errors.New("graph: graph too large for int32 arc indexing")
	// ErrBadParameter is returned for out-of-range generator parameters.
	ErrBadParameter = errors.New("graph: bad parameter")
)

// Graph is an immutable simple undirected graph in CSR form.
//
// The zero value is an empty graph with no nodes. Graphs are safe for
// concurrent use once built: all methods are read-only.
type Graph struct {
	name      string
	offsets   []int32 // len n+1; arcs of node i are [offsets[i], offsets[i+1])
	neighbors []int32 // len 2|E|; target node of each arc
	mate      []int32 // len 2|E|; index of the reverse arc
	maxDegree int
	minDegree int
}

// Builder accumulates edges and produces an immutable Graph. It tolerates
// duplicate edge insertions (they are deduplicated) and rejects self-loops.
type Builder struct {
	n     int
	edges [][2]int32
	seen  map[[2]int32]struct{}
}

// NewBuilder returns a Builder for a graph on n nodes.
func NewBuilder(n int) *Builder {
	return &Builder{
		n:    n,
		seen: make(map[[2]int32]struct{}),
	}
}

// AddEdge records the undirected edge {u, v}. Self-loops and out-of-range
// endpoints are reported as errors; duplicates are silently ignored.
func (b *Builder) AddEdge(u, v int) error {
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d): %w", u, v, b.n, ErrBadParameter)
	}
	if u == v {
		return fmt.Errorf("graph: self-loop at %d: %w", u, ErrBadParameter)
	}
	a, c := int32(u), int32(v)
	if a > c {
		a, c = c, a
	}
	key := [2]int32{a, c}
	if _, dup := b.seen[key]; dup {
		return nil
	}
	b.seen[key] = struct{}{}
	b.edges = append(b.edges, key)
	return nil
}

// HasEdge reports whether {u, v} has been added.
func (b *Builder) HasEdge(u, v int) bool {
	a, c := int32(u), int32(v)
	if a > c {
		a, c = c, a
	}
	_, ok := b.seen[[2]int32{a, c}]
	return ok
}

// NumEdges returns the number of distinct undirected edges added so far.
func (b *Builder) NumEdges() int { return len(b.edges) }

// Build finalizes the graph. The builder can be reused afterwards, but edges
// already added remain recorded.
func (b *Builder) Build(name string) (*Graph, error) {
	return fromEdges(name, b.n, b.edges)
}

// fromEdges constructs the CSR arrays from a list of distinct edges in
// linear passes: count the degrees, scatter both arcs of every edge, then
// sort each adjacency list and assign its mates. A self-loop or a repeated
// edge in the list is an error.
func fromEdges(name string, n int, edges [][2]int32) (*Graph, error) {
	arcCount := 2 * len(edges)
	if int64(arcCount) > int64(1)<<31-1 {
		return nil, ErrTooLarge
	}
	offsets := make([]int32, n+1)
	for _, e := range edges {
		offsets[e[0]+1]++
		offsets[e[1]+1]++
	}
	for i := 0; i < n; i++ {
		offsets[i+1] += offsets[i]
	}
	neighbors := make([]int32, arcCount)
	cursor := slices.Clone(offsets[:n])
	for _, e := range edges {
		u, v := e[0], e[1]
		neighbors[cursor[u]] = v
		cursor[u]++
		neighbors[cursor[v]] = u
		cursor[v]++
	}
	// Visiting tails in increasing order meets each node's in-arcs in the
	// order of its sorted list, so the mate of arc i->j is the next unused
	// position of j's list, and one cursor per node assigns every mate.
	copy(cursor, offsets[:n])
	mate := make([]int32, arcCount)
	for i := 0; i < n; i++ {
		s := neighbors[offsets[i]:offsets[i+1]]
		slices.Sort(s)
		prev := int32(-1)
		for k, j := range s {
			if j == int32(i) {
				return nil, fmt.Errorf("graph: internal error: self-loop at node %d", i)
			}
			if j == prev {
				return nil, fmt.Errorf("graph: internal error: repeated edge {%d,%d}", i, j)
			}
			prev = j
			mate[offsets[i]+int32(k)] = cursor[j]
			cursor[j]++
		}
	}
	g := &Graph{
		name:      name,
		offsets:   offsets,
		neighbors: neighbors,
		mate:      mate,
	}
	g.minDegree, g.maxDegree = g.computeDegreeBounds()
	return g, nil
}

func (g *Graph) computeDegreeBounds() (min, max int) {
	n := g.NumNodes()
	if n == 0 {
		return 0, 0
	}
	min = int(g.offsets[1] - g.offsets[0])
	max = min
	for i := 1; i < n; i++ {
		d := int(g.offsets[i+1] - g.offsets[i])
		if d < min {
			min = d
		}
		if d > max {
			max = d
		}
	}
	return min, max
}

// Name returns the human-readable graph description set at construction.
func (g *Graph) Name() string { return g.name }

// NumNodes returns the number of nodes n.
func (g *Graph) NumNodes() int {
	if g.offsets == nil {
		return 0
	}
	return len(g.offsets) - 1
}

// NumEdges returns the number of undirected edges |E|.
func (g *Graph) NumEdges() int { return len(g.neighbors) / 2 }

// NumArcs returns 2|E|, the length of the arc arrays.
func (g *Graph) NumArcs() int { return len(g.neighbors) }

// Degree returns the degree of node i.
func (g *Graph) Degree(i int) int { return int(g.offsets[i+1] - g.offsets[i]) }

// MaxDegree returns the maximum node degree d.
func (g *Graph) MaxDegree() int { return g.maxDegree }

// MinDegree returns the minimum node degree.
func (g *Graph) MinDegree() int { return g.minDegree }

// Offsets exposes the CSR offset array (length n+1). Callers must not
// modify it.
func (g *Graph) Offsets() []int32 { return g.offsets }

// Arcs exposes the CSR neighbor array (length 2|E|). Callers must not
// modify it.
func (g *Graph) Arcs() []int32 { return g.neighbors }

// MateIndex exposes the reverse-arc index array (length 2|E|). Callers must
// not modify it.
func (g *Graph) MateIndex() []int32 { return g.mate }

// Neighbors returns the (sorted) neighbor list of node i as a read-only view.
func (g *Graph) Neighbors(i int) []int32 {
	return g.neighbors[g.offsets[i]:g.offsets[i+1]]
}

// HasEdge reports whether {u, v} is an edge, in O(log d).
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || v < 0 || u >= g.NumNodes() || v >= g.NumNodes() || u == v {
		return false
	}
	_, ok := slices.BinarySearch(g.Neighbors(u), int32(v))
	return ok
}

// Edges returns the undirected edge list with u < v, in deterministic order.
func (g *Graph) Edges() [][2]int {
	out := make([][2]int, 0, g.NumEdges())
	for u := 0; u < g.NumNodes(); u++ {
		for _, v := range g.Neighbors(u) {
			if int32(u) < v {
				out = append(out, [2]int{u, int(v)})
			}
		}
	}
	return out
}

// Validate performs internal-consistency checks: sorted adjacency, mate
// involution, no self-loops, handshake. It is O(n + |E|) and intended for
// tests and generator verification.
func (g *Graph) Validate() error {
	n := g.NumNodes()
	if len(g.offsets) != n+1 {
		return errors.New("graph: bad offsets length")
	}
	if g.offsets[0] != 0 || int(g.offsets[n]) != len(g.neighbors) {
		return errors.New("graph: offsets do not span arc array")
	}
	for i := 0; i < n; i++ {
		if g.offsets[i] > g.offsets[i+1] {
			return fmt.Errorf("graph: negative degree at node %d", i)
		}
		prev := int32(-1)
		for a := g.offsets[i]; a < g.offsets[i+1]; a++ {
			j := g.neighbors[a]
			if j < 0 || int(j) >= n {
				return fmt.Errorf("graph: arc %d out of range", a)
			}
			if int(j) == i {
				return fmt.Errorf("graph: self-loop at node %d", i)
			}
			if j <= prev {
				return fmt.Errorf("graph: adjacency of node %d not strictly sorted", i)
			}
			prev = j
			m := g.mate[a]
			if m < 0 || int(m) >= len(g.neighbors) {
				return fmt.Errorf("graph: mate of arc %d out of range", a)
			}
			if g.neighbors[m] != int32(i) {
				return fmt.Errorf("graph: mate of arc %d->%d does not point back", i, j)
			}
			if g.mate[m] != a {
				return fmt.Errorf("graph: mate involution broken at arc %d", a)
			}
		}
	}
	if len(g.neighbors)%2 != 0 {
		return errors.New("graph: odd arc count violates handshake lemma")
	}
	return nil
}

// ConnectedComponents returns a component id per node (ids are 0-based,
// assigned in order of discovery) and the number of components.
func (g *Graph) ConnectedComponents() (comp []int32, count int) {
	n := g.NumNodes()
	comp = make([]int32, n)
	for i := range comp {
		comp[i] = -1
	}
	queue := make([]int32, 0, n)
	for start := 0; start < n; start++ {
		if comp[start] >= 0 {
			continue
		}
		id := int32(count)
		count++
		comp[start] = id
		queue = append(queue[:0], int32(start))
		for len(queue) > 0 {
			u := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, v := range g.Neighbors(int(u)) {
				if comp[v] < 0 {
					comp[v] = id
					queue = append(queue, v)
				}
			}
		}
	}
	return comp, count
}

// IsConnected reports whether the graph has exactly one connected component
// (the empty graph counts as connected).
func (g *Graph) IsConnected() bool {
	if g.NumNodes() == 0 {
		return true
	}
	_, c := g.ConnectedComponents()
	return c == 1
}

// BFSDistances returns the vector of hop distances from source (or -1 for
// unreachable nodes).
func (g *Graph) BFSDistances(source int) []int32 {
	n := g.NumNodes()
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[source] = 0
	queue := make([]int32, 0, n)
	queue = append(queue, int32(source))
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		du := dist[u]
		for _, v := range g.Neighbors(int(u)) {
			if dist[v] < 0 {
				dist[v] = du + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// Eccentricity returns the largest finite BFS distance from source.
func (g *Graph) Eccentricity(source int) int {
	var ecc int32
	for _, d := range g.BFSDistances(source) {
		if d > ecc {
			ecc = d
		}
	}
	return int(ecc)
}

// DiameterLowerBound estimates the diameter with the standard double-sweep
// heuristic: BFS from start, then BFS from the farthest node found. For
// trees the value is exact; in general it is a lower bound.
func (g *Graph) DiameterLowerBound(start int) int {
	if g.NumNodes() == 0 {
		return 0
	}
	dist := g.BFSDistances(start)
	far, fd := start, int32(0)
	for i, d := range dist {
		if d > fd {
			far, fd = i, d
		}
	}
	return g.Eccentricity(far)
}

// DegreeHistogram returns a map from degree to node count.
func (g *Graph) DegreeHistogram() map[int]int {
	h := make(map[int]int)
	for i := 0; i < g.NumNodes(); i++ {
		h[g.Degree(i)]++
	}
	return h
}

// MemoryFootprint returns the resident bytes of the CSR arrays (offsets,
// neighbors, mate index) — the per-topology cost the scale benchmarks
// report as bytes/node.
func (g *Graph) MemoryFootprint() int64 {
	return int64(len(g.offsets)+len(g.neighbors)+len(g.mate)) * 4
}

// AverageDegree returns 2|E|/n (0 for the empty graph).
func (g *Graph) AverageDegree() float64 {
	n := g.NumNodes()
	if n == 0 {
		return 0
	}
	return float64(g.NumArcs()) / float64(n)
}

// String implements fmt.Stringer with a one-line summary.
func (g *Graph) String() string {
	return fmt.Sprintf("%s{n=%d |E|=%d deg=[%d,%d]}",
		g.name, g.NumNodes(), g.NumEdges(), g.minDegree, g.maxDegree)
}
