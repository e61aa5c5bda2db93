package graph

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"testing"
)

// graphCase is one graph of a digest corpus: label names it in failures
// (a spec and seed, or a generator call), build constructs it.
type graphCase struct {
	label string
	build func() (*Graph, error)
}

// specCases builds every spec at every seed through FromSpec.
func specCases(seeds []uint64, specs ...string) []graphCase {
	var cases []graphCase
	for _, s := range specs {
		for _, seed := range seeds {
			cases = append(cases, graphCase{fmt.Sprintf("%s@%d", s, seed), func() (*Graph, error) { return FromSpec(s, seed) }})
		}
	}
	return cases
}

// seedRange returns the seeds 0..n-1.
func seedRange(n int) []uint64 {
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = uint64(i)
	}
	return seeds
}

// writeGraph hashes a graph's name and its three CSR arrays.
func writeGraph(h hash.Hash64, g *Graph) {
	fmt.Fprintf(h, "%q %d %d\n", g.Name(), g.NumNodes(), g.NumArcs())
	for _, arr := range [][]int32{g.offsets, g.neighbors, g.mate} {
		buf := make([]byte, 0, 4*len(arr))
		for _, v := range arr {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
		}
		h.Write(buf)
	}
}

// TestGraphStructureDigests pins the arrays every generator builds, not
// only what a spec is called (TestSpecDigests in internal/sim hashes
// accept/reject and Name()): one FNV-64a digest per generator family over
// Name(), offsets, neighbors and mate of each graph in its corpus, in
// corpus order, a rejected case hashing as "err". Every built graph must
// pass Validate. A construction change that keeps every graph
// bit-identical keeps every digest; one that moves an arc, a mate or a
// repair draw moves its family's. The two benchmark-sized graphs are
// built only outside -short.
func TestGraphStructureDigests(t *testing.T) {
	sides := []int{1, 2, 3, 7}
	var tori, grids []string
	for _, w := range sides {
		for _, h := range sides {
			tori = append(tori, fmt.Sprintf("torus2d:%dx%d", w, h))
			grids = append(grids, fmt.Sprintf("grid:%dx%d", w, h))
		}
	}
	var hypercubes, classic, regular []string
	for dim := 1; dim <= 10; dim++ {
		hypercubes = append(hypercubes, fmt.Sprintf("hypercube:%d", dim))
	}
	for n := 2; n <= 12; n++ {
		classic = append(classic, fmt.Sprintf("cycle:%d", n), fmt.Sprintf("path:%d", n),
			fmt.Sprintf("star:%d", n), fmt.Sprintf("complete:%d", n))
		for d := 1; d < n; d++ {
			if n*d%2 == 0 {
				regular = append(regular, fmt.Sprintf("regular:%d:%d", n, d))
			}
		}
	}
	// One sparse and one dense larger shape; the dense one runs a long
	// repair loop.
	regular = append(regular, "regular:2000:5", "regular:200:150")
	classicCases := specCases([]uint64{1}, classic...)
	for _, kn := range [][2]int{{3, 4}, {3, 9}, {4, 10}, {6, 12}} {
		classicCases = append(classicCases, graphCase{fmt.Sprintf("Lollipop(%d,%d)", kn[0], kn[1]),
			func() (*Graph, error) { return Lollipop(kn[0], kn[1]) }})
	}
	for _, p := range []float64{0, 0.05, 0.3, 1} {
		for seed := uint64(0); seed < 5; seed++ {
			classicCases = append(classicCases, graphCase{fmt.Sprintf("ErdosRenyi(40,%g,%d)", p, seed),
				func() (*Graph, error) { return ErdosRenyi(40, p, seed) }})
		}
	}
	// At these sizes and the threshold radius most seeds leave small
	// components, so the giant-component patch runs (checked below).
	rggSizes := []string{"rgg:12", "rgg:50", "rgg:200", "rgg:400"}
	rggCases := specCases(seedRange(20), rggSizes...)
	for _, seed := range seedRange(20) {
		rggCases = append(rggCases, graphCase{fmt.Sprintf("RandomGeometric(200,%d,keep)", seed), func() (*Graph, error) {
			g, _, err := RandomGeometric(200, seed, GeometricOptions{KeepDisconnected: true})
			return g, err
		}})
	}
	families := []struct {
		name  string
		long  bool
		cases []graphCase
		want  string
	}{
		{"fuzz-seeds", false, specCases([]uint64{1}, "torus2d:8x8", "torus:4x4x4", "hypercube:6", "regular:12:4",
			"rgg:12", "cycle:9", "path:9", "complete:8", "grid:4x5", "star:7"), "bbe07e5842e57387"},
		{"torus2d", false, specCases([]uint64{0}, tori...), "b9f7c7ebd8ff3d31"},
		{"grid", false, specCases([]uint64{0}, grids...), "198f1a6b155b51f7"},
		{"torus", false, specCases([]uint64{0}, "torus:2x3x4"), "b3313b84d04d41b8"},
		{"hypercube", false, specCases([]uint64{0}, hypercubes...), "6d42f809154bfa13"},
		{"classic", false, classicCases, "0892d32aacefadad"},
		{"rgg", false, rggCases, "676b3204a9e8dd2e"},
		{"regular", false, specCases(seedRange(20), regular...), "4b6df3206aabd5da"},
		{"torus2d:1024x1024", true, specCases([]uint64{1}, "torus2d:1024x1024"), "95d530a37ac5f0a2"},
		{"regular:262144:8", true, specCases([]uint64{1}, "regular:262144:8"), "5a8d69fe6e4abc91"},
	}
	for _, f := range families {
		if f.long && testing.Short() {
			continue
		}
		h := fnv.New64a()
		built := 0
		for _, c := range f.cases {
			g, err := c.build()
			if err != nil {
				fmt.Fprintf(h, "%s err\n", c.label)
				continue
			}
			if err := g.Validate(); err != nil {
				t.Fatalf("%s: %v", c.label, err)
			}
			built++
			writeGraph(h, g)
		}
		got := fmt.Sprintf("%016x", h.Sum64())
		t.Logf("%s: %d of %d graphs built", f.name, built, len(f.cases))
		if got != f.want {
			t.Errorf("%s digest = %s, want %s", f.name, got, f.want)
		}
	}
	patched := 0
	for _, seed := range seedRange(20) {
		g, _, err := RandomGeometric(200, seed, GeometricOptions{KeepDisconnected: true})
		if err != nil {
			t.Fatal(err)
		}
		if !g.IsConnected() {
			patched++
		}
	}
	if patched == 0 {
		t.Error("no rgg:200 seed needs the giant-component patch; the rgg corpus no longer covers it")
	}
}
