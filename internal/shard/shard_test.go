package shard

import (
	"runtime"
	"sync"
	"testing"

	"diffusionlb/internal/graph"
)

func testGraph(t *testing.T, w, h int) *graph.Graph {
	t.Helper()
	g, err := graph.Torus2D(w, h)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestShardsForIsPure(t *testing.T) {
	cases := []struct {
		n, workers, want int
	}{
		{0, 4, 0},
		{100, 0, 1},
		{100, 1, 1},
		{MinShardNodes - 1, 8, 1},
		{MinShardNodes, 8, 8},
		{MinShardNodes, 2, 2},
		{1 << 20, 7, 7},
	}
	for _, c := range cases {
		if got := ShardsFor(c.n, c.workers); got != c.want {
			t.Errorf("ShardsFor(%d, %d) = %d, want %d", c.n, c.workers, got, c.want)
		}
	}
}

// TestBoundsIgnoreGOMAXPROCS is the regression test for the cross-machine
// determinism hole: the partition (and therefore every reduction grouping)
// must be a function of the requested worker count only, identical on a
// 1-core box and a many-core one.
func TestBoundsIgnoreGOMAXPROCS(t *testing.T) {
	g := testGraph(t, 64, 64) // 4096 nodes: right at the sharding threshold
	reference := ForWorkers(g, 7).bounds

	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	constrained := ForWorkers(g, 7).bounds

	if len(reference) != len(constrained) {
		t.Fatalf("shard count changed under GOMAXPROCS=1: %d vs %d",
			len(reference)-1, len(constrained)-1)
	}
	for s := range reference {
		if reference[s] != constrained[s] {
			t.Fatalf("bound %d changed under GOMAXPROCS=1: %d vs %d",
				s, reference[s], constrained[s])
		}
	}
}

func TestLayoutCoversAllNodesAndArcs(t *testing.T) {
	g := testGraph(t, 40, 25) // 1000 nodes
	for _, k := range []int{1, 2, 3, 7, 16, 1000, 5000} {
		l, err := NewLayout(g, k)
		if err != nil {
			t.Fatal(err)
		}
		if l.Shards() > g.NumNodes() {
			t.Fatalf("k=%d: %d shards exceed node count", k, l.Shards())
		}
		prevNode, prevArc := 0, 0
		for s := 0; s < l.Shards(); s++ {
			lo, hi := l.NodeRange(s)
			alo, ahi := l.ArcRange(s)
			if lo != prevNode || alo != prevArc {
				t.Fatalf("k=%d shard %d: ranges not contiguous", k, s)
			}
			if hi < lo || ahi < alo {
				t.Fatalf("k=%d shard %d: negative range", k, s)
			}
			for i := lo; i < hi; i++ {
				if l.ShardOf(i) != s {
					t.Fatalf("k=%d: ShardOf(%d) = %d, want %d", k, i, l.ShardOf(i), s)
				}
			}
			prevNode, prevArc = hi, ahi
		}
		if prevNode != g.NumNodes() || prevArc != g.NumArcs() {
			t.Fatalf("k=%d: layout covers %d nodes/%d arcs, want %d/%d",
				k, prevNode, prevArc, g.NumNodes(), g.NumArcs())
		}
	}
}

func TestRunVisitsEveryNodeOnce(t *testing.T) {
	g := testGraph(t, 80, 60) // 4800 nodes > MinShardNodes
	for _, workers := range []int{1, 2, 7, 64} {
		l := ForWorkers(g, workers)
		visited := make([]int32, g.NumNodes())
		var mu sync.Mutex
		shardSeen := make(map[int]bool)
		l.Run(func(s, lo, hi int) {
			mu.Lock()
			if shardSeen[s] {
				mu.Unlock()
				t.Errorf("workers=%d: shard %d ran twice", workers, s)
				return
			}
			shardSeen[s] = true
			mu.Unlock()
			for i := lo; i < hi; i++ {
				visited[i]++
			}
		})
		for i, v := range visited {
			if v != 1 {
				t.Fatalf("workers=%d: node %d visited %d times", workers, i, v)
			}
		}
	}
}

// TestRunWorkersAtLeastNAllLive pins the contract the actor runtime rests
// on: with workers >= n every body is live at once, even on one P, so
// bodies that wait for each other (here a barrier all n must reach)
// cannot deadlock. It also checks every index runs exactly once.
func TestRunWorkersAtLeastNAllLive(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, n := range []int{0, 1, 2, 7} {
		ran := make([]int32, n)
		var met sync.WaitGroup
		met.Add(n)
		Run(n, n, ran, func(ran []int32, i int) {
			met.Done()
			met.Wait()
			ran[i]++
		})
		for i, c := range ran {
			if c != 1 {
				t.Fatalf("n=%d: index %d ran %d times", n, i, c)
			}
		}
	}
}

// TestSumDeterministicAcrossWorkers: the float reduction grouping is fixed
// by the layout, so the sum is bit-identical for every GOMAXPROCS, and so
// for every number of goroutines the shards run on — the property the
// invariant checker's conservation pass relies on.
func TestSumDeterministicAcrossWorkers(t *testing.T) {
	g := testGraph(t, 100, 50) // 5000 nodes
	x := make([]float64, g.NumNodes())
	xi := make([]int64, g.NumNodes())
	for i := range x {
		// Deliberately ill-conditioned magnitudes so grouping changes would
		// actually show up in the float sum.
		x[i] = float64((i%97)-48) * 1e12 / float64(i+1)
		xi[i] = int64(i*i) - int64(len(x))
	}
	l := ForWorkers(g, 7)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	want := SumFloat64(l, x)
	wantInt := SumInt64(l, xi)
	for _, procs := range []int{2, 3, 7, 32} {
		runtime.GOMAXPROCS(procs)
		if got := SumFloat64(l, x); got != want {
			t.Fatalf("GOMAXPROCS=%d: float sum %.17g != %.17g", procs, got, want)
		}
		if got := SumInt64(l, xi); got != wantInt {
			t.Fatalf("GOMAXPROCS=%d: int sum %d != %d", procs, got, wantInt)
		}
	}
	// And across shard counts the int sum (exact) must agree too.
	l2, err := NewLayout(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := SumInt64(l2, xi); got != wantInt {
		t.Fatalf("3-shard int sum %d != %d", got, wantInt)
	}
}

// TestRunSequentialFastPathAllocFree: a layout whose shards run on one
// goroutine — a multi-shard layout under GOMAXPROCS 1, or a one-shard
// layout at any GOMAXPROCS — runs them inline with no allocation.
func TestRunSequentialFastPathAllocFree(t *testing.T) {
	g := testGraph(t, 80, 60)
	var sink int
	body := func(s, lo, hi int) { sink += hi - lo }
	check := func(name string, l *Layout) {
		t.Helper()
		allocs := testing.AllocsPerRun(100, func() {
			l.Run(body)
		})
		if allocs != 0 {
			t.Errorf("%s: sequential Run allocates %.1f per call, want 0", name, allocs)
		}
	}
	check("one shard", ForWorkers(g, 1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	check("4 shards under GOMAXPROCS=1", ForWorkers(g, 4))
	_ = sink
}

func TestArcBalancedOnSkewedGraph(t *testing.T) {
	// A star graph: node 0 holds half of all arcs. Arc balancing must give
	// the hub its own small node range instead of splitting nodes evenly.
	g, err := graph.Star(8192)
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLayout(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	alo, ahi := l.ArcRange(0)
	total := g.NumArcs()
	if ahi-alo > total*3/4 {
		t.Fatalf("shard 0 owns %d of %d arcs; arc balancing ineffective", ahi-alo, total)
	}
	lo, hi := l.NodeRange(0)
	if hi-lo >= g.NumNodes()/4 {
		t.Fatalf("hub shard spans %d nodes; expected a small node range", hi-lo)
	}
}
