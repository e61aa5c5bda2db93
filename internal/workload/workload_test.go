package workload

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"testing"

	"diffusionlb/internal/randx"
)

// sum totals a delta vector.
func sum(d []int64) int64 {
	var s int64
	for _, v := range d {
		s += v
	}
	return s
}

// deltasAt runs one round of m against loads and returns the deltas.
func deltasAt(t *testing.T, m Mutator, round int, loads []int64) []int64 {
	t.Helper()
	out := make([]int64, len(loads))
	m.Deltas(round, IntLoads(loads), out)
	return out
}

func TestBurstFiresOnceAtItsRound(t *testing.T) {
	b := NewBurst(5, 2, 1000)
	loads := make([]int64, 8)
	for round := 1; round <= 10; round++ {
		out := make([]int64, 8)
		fired := b.Deltas(round, IntLoads(loads), out)
		if round == 5 {
			if !fired || out[2] != 1000 || sum(out) != 1000 {
				t.Fatalf("round 5: fired=%v out=%v", fired, out)
			}
		} else if fired || sum(out) != 0 {
			t.Fatalf("round %d: unexpected burst %v", round, out)
		}
	}
	if got := b.Name(); got != "burst:5:1000:2" {
		t.Errorf("Name = %q", got)
	}
}

func TestHotspotPeriodicAndDeterministic(t *testing.T) {
	loads := make([]int64, 16)
	h := NewHotspot(3, 50, -1, 42)
	targets := map[int]int{}
	for round := 1; round <= 30; round++ {
		out := deltasAt(t, h, round, loads)
		if round%3 != 0 {
			if sum(out) != 0 {
				t.Fatalf("round %d: hotspot off-period fired %v", round, out)
			}
			continue
		}
		if sum(out) != 50 {
			t.Fatalf("round %d: burst total %d, want 50", round, sum(out))
		}
		for i, v := range out {
			if v != 0 {
				targets[round] = i
			}
		}
	}
	if len(targets) != 10 {
		t.Fatalf("expected 10 bursts, got %d", len(targets))
	}
	distinct := map[int]bool{}
	for _, n := range targets {
		distinct[n] = true
	}
	if len(distinct) < 2 {
		t.Error("random hotspot always hit the same node")
	}
	// A fresh mutator with the same seed replays the exact same targets —
	// the checkpoint/restore property.
	h2 := NewHotspot(3, 50, -1, 42)
	for round := 30; round >= 1; round-- { // out of order on purpose
		out := deltasAt(t, h2, round, loads)
		if round%3 == 0 {
			if out[targets[round]] != 50 {
				t.Fatalf("round %d: replay hit %v, want node %d", round, out, targets[round])
			}
		}
	}
	// Pinned node.
	hp := NewHotspot(2, 7, 4, 1)
	out := deltasAt(t, hp, 2, loads)
	if out[4] != 7 || sum(out) != 7 {
		t.Fatalf("pinned hotspot: %v", out)
	}
}

func TestPoissonStreamsPerRoundNode(t *testing.T) {
	loads := make([]int64, 64)
	p := NewPoisson(2.5, 0, 9)
	var total int64
	rounds := 200
	perRound := make([][]int64, rounds+1)
	for round := 1; round <= rounds; round++ {
		out := deltasAt(t, p, round, loads)
		for _, v := range out {
			if v < 0 {
				t.Fatalf("negative arrival %d", v)
			}
		}
		total += sum(out)
		perRound[round] = out
	}
	// Mean should be close to rate; with 64*200 = 12800 draws of
	// Poisson(2.5) the sample mean is within a few percent whp.
	mean := float64(total) / float64(64*rounds)
	if mean < 2.3 || mean > 2.7 {
		t.Errorf("sample mean %.3f, want ≈ 2.5", mean)
	}
	// Counter-stream contract: replaying any round in isolation gives the
	// same vector.
	p2 := NewPoisson(2.5, 0, 9)
	for _, round := range []int{137, 1, 60} {
		out := deltasAt(t, p2, round, loads)
		for i, v := range out {
			if v != perRound[round][i] {
				t.Fatalf("round %d node %d: replay %d, want %d", round, i, v, perRound[round][i])
			}
		}
	}
	// Until stops the arrivals.
	pu := NewPoisson(2.5, 10, 9)
	if out := deltasAt(t, pu, 11, loads); sum(out) != 0 {
		t.Errorf("arrivals past until: %v", out)
	}
	if out := deltasAt(t, pu, 10, loads); sum(out) == 0 {
		t.Errorf("no arrivals at the until round (rate 2.5 over 64 nodes — astronomically unlikely)")
	}
}

// TestPoissonDrawDigests pins the Poisson arrival stream bit for bit: an
// FNV-64a digest over rounds 1–40 of every delta and every fired flag on
// 257 nodes, for rates below, at and above the 16-token chunk of the
// sampler, with and without Until. A change to the draw (its seeding, its
// chunking or its uniforms) moves a digest; re-pin only on purpose.
func TestPoissonDrawDigests(t *testing.T) {
	cases := []struct {
		rate   float64
		until  int
		digest string
	}{
		{0.05, 0, "f1ac3da25ddd9863"}, {0.05, 25, "743ce8b84e6c0704"},
		{0.5, 0, "6b8894d23683a041"}, {0.5, 25, "12eec3ef872a5c8f"},
		{2.5, 0, "785fc3a8d3ab0e7c"}, {2.5, 25, "1222c984fea397f9"},
		{16, 0, "af7179aaa222c7df"}, {16, 25, "f8235ec23d731e93"},
		{16.5, 0, "459bb2cd9da77662"}, {16.5, 25, "5d875987f8c955b1"},
		{40, 0, "d9c88a1d43d2150a"}, {40, 25, "d130c7a365e2a68a"},
		{900, 0, "c6ac38d475822763"}, {900, 25, "36d00ec9cfa9736b"},
	}
	const n, rounds = 257, 40
	loads := make(IntLoads, n)
	out := make([]int64, n)
	var b [8]byte
	for _, tc := range cases {
		p := NewPoisson(tc.rate, tc.until, 0x5eed_0f_a11)
		h := fnv.New64a()
		for round := 1; round <= rounds; round++ {
			clear(out)
			fired := p.Deltas(round, loads, out)
			if fired {
				h.Write([]byte{1})
			} else {
				h.Write([]byte{0})
			}
			for _, v := range out {
				binary.LittleEndian.PutUint64(b[:], uint64(v))
				h.Write(b[:])
			}
		}
		if got := fmt.Sprintf("%016x", h.Sum64()); got != tc.digest {
			t.Errorf("poisson rate %v until %d: digest %s, want %s", tc.rate, tc.until, got, tc.digest)
		}
	}
}

func TestPoissonLargeRateDoesNotUnderflow(t *testing.T) {
	loads := make([]int64, 4)
	p := NewPoisson(900, 0, 3)
	out := deltasAt(t, p, 1, loads)
	for i, v := range out {
		// Poisson(900) is within ±5σ ≈ ±150 of 900 essentially always.
		if v < 700 || v > 1100 {
			t.Errorf("node %d: draw %d implausible for rate 900", i, v)
		}
	}
}

func TestChurnConservesAndClampsDepartures(t *testing.T) {
	loads := []int64{0, 0, 0, 0, 0, 0, 0, 0}
	c := NewChurn(2, 100, 100, 0, 5)
	// With zero load everywhere, departures must all be skipped: total
	// delta is exactly the arrivals that happen to land before removals
	// drain them — never below zero per node.
	out := deltasAt(t, c, 2, loads)
	for i, v := range out {
		if loads[i]+v < 0 {
			t.Fatalf("node %d driven negative: %d", i, v)
		}
	}
	// Off-period rounds do nothing.
	if s := sum(deltasAt(t, c, 3, loads)); s != 0 {
		t.Errorf("off-period churn moved %d tokens", s)
	}
	// With ample load, arrivals and departures cancel in total.
	rich := []int64{1000, 1000, 1000, 1000, 1000, 1000, 1000, 1000}
	out = deltasAt(t, c, 4, rich)
	if s := sum(out); s != 0 {
		t.Errorf("churn with ample load changed total by %d, want 0", s)
	}
	// Deterministic replay.
	c2 := NewChurn(2, 100, 100, 0, 5)
	out2 := deltasAt(t, c2, 4, rich)
	for i := range out {
		if out[i] != out2[i] {
			t.Fatalf("churn replay diverged at node %d", i)
		}
	}
}

func TestAdversaryFeedsMostLoaded(t *testing.T) {
	loads := []int64{3, 9, 1, 9, 5, 0}
	a := NewAdversary(10, 1)
	out := deltasAt(t, a, 1, loads)
	// Ties break toward the lowest index: node 1, not node 3.
	if out[1] != 10 || sum(out) != 10 {
		t.Fatalf("adversary k=1: %v", out)
	}
	a3 := NewAdversary(10, 3)
	out = deltasAt(t, a3, 1, loads)
	// Top 3 by load are nodes 1, 3 (load 9) and 4 (load 5); the remainder
	// lands on the heaviest.
	if out[1]+out[3]+out[4] != 10 || out[0] != 0 || out[2] != 0 || out[5] != 0 {
		t.Fatalf("adversary k=3: %v", out)
	}
	for _, i := range []int{1, 3, 4} {
		if out[i] < 3 {
			t.Errorf("node %d got %d, want ≥ 3 (round-robin)", i, out[i])
		}
	}
	// k larger than n spreads over everything.
	aAll := NewAdversary(6, 100)
	out = deltasAt(t, aAll, 1, loads)
	if sum(out) != 6 {
		t.Fatalf("adversary k>n total %d", sum(out))
	}
}

func TestComposeSumsParts(t *testing.T) {
	m, err := FromSpec("burst:2:100:1+burst:2:50:3", 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	loads := make([]int64, 8)
	out := make([]int64, 8)
	if !m.Deltas(2, IntLoads(loads), out) {
		t.Fatal("composed mutator did not fire")
	}
	if out[1] != 100 || out[3] != 50 {
		t.Fatalf("composed deltas %v", out)
	}
	if m.Name() != "burst:2:100:1+burst:2:50:3" {
		t.Errorf("composed Name = %q", m.Name())
	}
}

func TestFromSpecParsesAndValidates(t *testing.T) {
	good := map[string]string{
		"burst:100:50000":          "burst:100:50000:0",
		"burst:100:50000:7":        "burst:100:50000:7",
		"hotspot:25:1000":          "hotspot:25:1000",
		"hotspot:25:1000:3":        "hotspot:25:1000:3",
		"poisson:0.5":              "poisson:0.5",
		"poisson:0.5:200":          "poisson:0.5:200",
		"churn:50:200:200":         "churn:50:200:200",
		"churn:50:200:200:400":     "churn:50:200:200:400",
		"adversary:100":            "adversary:100:1",
		"adversary:100:16":         "adversary:100:16",
		"burst:10:5:1+poisson:1.5": "burst:10:5:1+poisson:1.5",
	}
	for spec, want := range good {
		m, err := FromSpec(spec, 32, 1)
		if err != nil {
			t.Errorf("FromSpec(%q): %v", spec, err)
			continue
		}
		if m.Name() != want {
			t.Errorf("FromSpec(%q).Name() = %q, want %q", spec, m.Name(), want)
		}
	}
	bad := []string{
		"x", "burst", "burst:0:5", "burst:1:5:99", "burst:1:5:-1",
		"burst:1:-5", "hotspot:0:5", "hotspot:2:-5", "hotspot:2:5:99",
		"hotspot:2:5:-2", "poisson", "poisson:nan", "poisson:-1",
		"poisson:1e9", "poisson:0.5:-3", "churn:0:1:1", "churn:2:-1:1",
		"churn:2:1:1:-4", "adversary:-5", "adversary:5:0",
		"adversary:1:2:3", "burst:1:1+bogus:2",
	}
	for _, spec := range bad {
		if _, err := FromSpec(spec, 32, 1); !errors.Is(err, ErrBadSpec) {
			t.Errorf("FromSpec(%q) should fail with ErrBadSpec", spec)
		}
	}
	// Empty spec = no workload.
	if m, err := FromSpec("", 32, 1); err != nil || m != nil {
		t.Errorf("FromSpec(\"\") = %v, %v", m, err)
	}
	if err := ValidateSpec("poisson:0.5+churn:50:10:10"); err != nil {
		t.Errorf("ValidateSpec: %v", err)
	}
	if err := ValidateSpec("nope:1"); err == nil {
		t.Error("ValidateSpec should reject unknown kinds")
	}
}

func TestComposedPartsGetIndependentSeeds(t *testing.T) {
	// Two identical poisson parts composed must not produce identical
	// per-part draws (each part is salted by its position).
	m, err := FromSpec("poisson:5+poisson:5", 16, 77)
	if err != nil {
		t.Fatal(err)
	}
	comp := m.(Compose)
	loads := make([]int64, 16)
	a := make([]int64, 16)
	b := make([]int64, 16)
	comp[0].Deltas(1, IntLoads(loads), a)
	comp[1].Deltas(1, IntLoads(loads), b)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("composed identical parts drew identical streams")
	}
}

func TestSliceLoadsViews(t *testing.T) {
	f := SliceLoads{1.5, 2.5}
	if f.Len() != 2 || f.At(1) != 2.5 {
		t.Errorf("SliceLoads view broken")
	}
	i := IntLoads{3, 4}
	if i.Len() != 2 || i.At(0) != 3 {
		t.Errorf("IntLoads view broken")
	}
}

func TestSeedStreamsMatchRandxContract(t *testing.T) {
	// The reseedable scratch generator must produce exactly the
	// randx.PCGPair counter stream the discrete rounding uses, and
	// reseeding must fully reset it (no state leaks between rounds).
	s := boot()
	first := s.at(5, 17, 3).Uint64()
	s.at(99, 1).Uint64() // disturb the generator state
	if again := s.at(5, 17, 3).Uint64(); again != first {
		t.Fatalf("reseeding did not reset the stream: %d != %d", again, first)
	}
	a, b := randx.PCGPair(5, 17, 3)
	want := rand.New(rand.NewPCG(a, b)).Uint64()
	if first != want {
		t.Fatalf("seededRNG stream %d != PCGPair stream %d", first, want)
	}
}

// boot is a tiny helper so the test reads naturally.
func boot() seededRNG { return newSeededRNG() }
