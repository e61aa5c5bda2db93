// Package shard is the flat, shard-partitioned storage layout behind the
// million-node hot path: it slices a CSR graph into K contiguous node
// shards with per-shard arc ranges, so every engine pass — flow
// computation, rounding, application, reductions — operates on dense
// per-shard slices of the global arrays instead of ad-hoc chunk ids.
//
// Determinism contract: the shard boundaries are a pure function of the
// graph's CSR shape and the *requested* shard count — never of
// runtime.GOMAXPROCS — so the same configuration produces the same
// partition (and therefore the same floating-point reduction order) on a
// 1-core CI box and a 64-core dev machine. The layout is the only
// parallelism setting: an engine derives it from its worker count once
// (ForWorkers), and every pass over it runs its shards on
// min(Shards(), GOMAXPROCS) goroutines. That cap is invisible to the
// results: each shard's outputs land in shard-indexed slots and are
// combined in shard order.
//
// Layout.Run executes shards with work stealing: a fixed shard→result
// mapping with dynamic shard→goroutine assignment. Stealing changes which
// worker touches a shard, never what the shard computes, so it is free to
// use under the determinism contract. The package-level Run underneath it
// is the module's one goroutine fan-out, shared with the actor runtime and
// the sweep.
package shard

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"diffusionlb/internal/graph"
)

// MinShardNodes is the smallest node count worth splitting: below it a
// single shard runs inline with no goroutine fan-out, matching the
// long-standing parallelFor threshold.
const MinShardNodes = 4096

// ShardsFor returns the shard count for n nodes and a requested worker
// count. It is a pure function of (n, workers): small inputs and
// sequential configurations collapse to one shard, everything else gets
// one shard per requested worker (capped at n).
func ShardsFor(n, workers int) int {
	if n <= 0 {
		return 0
	}
	if workers <= 1 || n < MinShardNodes {
		return 1
	}
	if workers > n {
		return n
	}
	return workers
}

// Layout partitions the nodes 0..n-1 of a CSR graph into contiguous
// shards. Because CSR groups a node's arcs contiguously and shards are
// contiguous node ranges, every shard also owns one contiguous arc range —
// the property the engines' per-shard kernels and scratch memory rely on.
//
// A Layout is immutable and safe for concurrent use.
type Layout struct {
	g      *graph.Graph
	bounds []int32 // len K+1 node boundaries; shard s is [bounds[s], bounds[s+1])
}

// NewLayout slices g into the given number of shards, balancing arcs (not
// nodes) across shards so degree-skewed graphs do not leave one shard with
// most of the edge work. Boundaries depend only on g's CSR offsets and the
// shard count.
func NewLayout(g *graph.Graph, shards int) (*Layout, error) {
	n := g.NumNodes()
	if shards < 1 {
		return nil, fmt.Errorf("shard: %d shards requested", shards)
	}
	if shards > n && n > 0 {
		shards = n
	}
	if n == 0 {
		shards = 1
	}
	bounds := make([]int32, shards+1)
	bounds[shards] = int32(n)
	offsets := g.Offsets()
	arcs := g.NumArcs()
	for s := 1; s < shards; s++ {
		var b int
		if arcs > 0 {
			// Smallest node index whose arc offset reaches the shard's
			// proportional arc target.
			target := int64(s) * int64(arcs) / int64(shards)
			b = sort.Search(n, func(i int) bool { return int64(offsets[i]) >= target })
		} else {
			b = s * n / shards
		}
		if prev := int(bounds[s-1]); b < prev {
			b = prev
		}
		bounds[s] = int32(b)
	}
	return &Layout{g: g, bounds: bounds}, nil
}

// ForWorkers builds the layout for a requested per-step worker count:
// ShardsFor(n, workers) shards over g.
func ForWorkers(g *graph.Graph, workers int) *Layout {
	k := ShardsFor(g.NumNodes(), workers)
	if k < 1 {
		k = 1
	}
	l, err := NewLayout(g, k)
	if err != nil {
		// Unreachable: k >= 1 by construction.
		panic(err)
	}
	return l
}

// Graph returns the graph the layout partitions.
func (l *Layout) Graph() *graph.Graph { return l.g }

// Shards returns the shard count K.
func (l *Layout) Shards() int { return len(l.bounds) - 1 }

// Nodes returns the node count n.
func (l *Layout) Nodes() int { return l.g.NumNodes() }

// NodeRange returns the half-open node range [lo, hi) of shard s.
func (l *Layout) NodeRange(s int) (lo, hi int) {
	return int(l.bounds[s]), int(l.bounds[s+1])
}

// ArcRange returns the half-open arc range [lo, hi) of shard s in the CSR
// arc arrays — the slice of per-arc state (α, flows, scheduled) the shard
// owns.
func (l *Layout) ArcRange(s int) (lo, hi int) {
	offsets := l.g.Offsets()
	return int(offsets[l.bounds[s]]), int(offsets[l.bounds[s+1]])
}

// Bounds returns a copy of the layout's node boundaries: len Shards()+1,
// shard s owning [Bounds[s], Bounds[s+1]). Consumers that persist a
// partition identity across process lifetimes — the actor runtime's async
// checkpoints, whose in-flight link state is only meaningful over the same
// partition — compare bounds instead of holding the graph pointer.
func (l *Layout) Bounds() []int32 {
	return append([]int32(nil), l.bounds...)
}

// ShardOf returns the shard owning node i.
func (l *Layout) ShardOf(i int) int {
	s := sort.Search(l.Shards(), func(s int) bool { return int(l.bounds[s+1]) > i })
	return s
}

// Run executes body(s, lo, hi) for every shard s with node range [lo, hi),
// on min(Shards(), GOMAXPROCS) goroutines through the package-level Run.
// The shard set and each shard's range are fixed by the layout; the
// GOMAXPROCS cap keeps a low-core box from oversubscribing, and capping
// live goroutines, unlike capping the shard count, cannot change results.
// A single shard (or GOMAXPROCS 1) runs inline in shard order with no
// goroutines and no allocations — the steady-state hot path on sequential
// configurations.
func (l *Layout) Run(body func(s, lo, hi int)) {
	k := l.Shards()
	Run(min(k, runtime.GOMAXPROCS(0)), k, shardPass{l, body}, runShardPass)
}

// shardPass binds a pass body to its layout, so Layout.Run hands Run bound
// state instead of building a closure per call.
type shardPass struct {
	l    *Layout
	body func(s, lo, hi int)
}

func runShardPass(p shardPass, s int) {
	p.body(s, int(p.l.bounds[s]), int(p.l.bounds[s+1]))
}

// Run calls body(arg, i) for every i in [0, n) on up to workers goroutines
// and returns once every call has returned. It is the module's one
// goroutine fan-out: the engines' shard passes, the actor runtime's actors
// and the sweep's cells all start their goroutines here.
//
// Indices are handed out by work stealing: an atomic cursor gives the next
// index, in increasing order, to whichever goroutine frees up first, so a
// straggler (degree skew, NUMA, preemption) does not idle the rest. Which
// goroutine runs an index never changes what the index computes. A
// goroutine exits only once every index is claimed, so with workers >= n
// bodies that block on each other (the actors' link channels) are all live
// at once, even on one P. workers <= 1 (or n <= 1) runs inline in index
// order with no goroutines and no allocations. Run applies no GOMAXPROCS
// cap of its own; callers that must not oversubscribe cap workers. arg is
// the caller's bound state, so a caller on the hot path passes a plain
// function instead of building a closure per call.
func Run[A any](workers, n int, arg A, body func(A, int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			body(arg, i)
		}
		return
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				body(arg, i)
			}
		}()
	}
	wg.Wait()
}

// SumFloat64 sums x (length n) with one partial sum per shard, combined in
// shard order — a deterministic parallel reduction: the grouping is fixed
// by the layout, so the result is bit-identical for every GOMAXPROCS value.
func SumFloat64(l *Layout, x []float64) float64 {
	k := l.Shards()
	if k == 1 {
		var sum float64
		for _, v := range x {
			sum += v
		}
		return sum
	}
	partials := make([]float64, k)
	l.Run(func(s, lo, hi int) {
		var sum float64
		for i := lo; i < hi; i++ {
			sum += x[i]
		}
		partials[s] = sum
	})
	var sum float64
	for _, p := range partials {
		sum += p
	}
	return sum
}

// SumInt64 sums x (length n) with one partial per shard. Integer addition
// is associative, so this is simply the parallel form of a plain loop.
func SumInt64(l *Layout, x []int64) int64 {
	k := l.Shards()
	if k == 1 {
		var sum int64
		for _, v := range x {
			sum += v
		}
		return sum
	}
	partials := make([]int64, k)
	l.Run(func(s, lo, hi int) {
		var sum int64
		for i := lo; i < hi; i++ {
			sum += x[i]
		}
		partials[s] = sum
	})
	var sum int64
	for _, p := range partials {
		sum += p
	}
	return sum
}
