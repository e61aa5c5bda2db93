// Package workload generates deterministic dynamic load patterns for the
// balancing engines: batch arrivals and departures (churn), hotspot bursts
// at chosen or randomly drawn nodes, Poisson-like per-node arrivals, and an
// adversarial injector that always feeds the currently most-loaded region.
//
// The paper evaluates FOS/SOS only on static load vectors; this package
// opens the dynamic setting studied by Berenbrink et al. ("Dynamic Averaging
// Load Balancing on Arbitrary Graphs", 2023) and Sauerwald & Sun ("Tight
// Bounds for Randomized Load Balancing", 2012): between rounds an external
// process mutates the load vector and the scheme has to keep rebalancing.
//
// Determinism contract: a Mutator is a pure function of (seed, round, loads)
// — every random draw comes from a counter-based randx stream seeded by
// (masterSeed, round[, node]), never from mutable generator state carried
// across rounds. Replaying round t therefore always produces the same
// deltas, which keeps simulations bit-identical across worker counts and
// preserves checkpoint/restore semantics: a run resumed from a snapshot at
// any round boundary injects exactly what the uninterrupted run would have.
//
// A Mutator may reuse internal scratch (a reseeded RNG), so, like
// core.Process, it is driven by one goroutine at a time.
package workload

import (
	"math"
	"math/rand/v2"

	"diffusionlb/internal/randx"
	"diffusionlb/internal/spec"
)

// Loads is a read-only view of a process's current per-node loads
// (integer token counts or continuous values, exposed uniformly).
type Loads interface {
	// Len returns the number of nodes.
	Len() int
	// At returns the current load of node i.
	At(i int) float64
}

// SliceLoads adapts a plain float64 vector to the Loads view.
type SliceLoads []float64

// Len implements Loads.
func (s SliceLoads) Len() int { return len(s) }

// At implements Loads.
func (s SliceLoads) At(i int) float64 { return s[i] }

// IntLoads adapts an int64 load vector to the Loads view.
type IntLoads []int64

// Len implements Loads.
func (s IntLoads) Len() int { return len(s) }

// At implements Loads.
func (s IntLoads) At(i int) float64 { return float64(s[i]) }

// Mutator produces the per-node load deltas to inject after a completed
// round. Implementations follow the package determinism contract.
type Mutator interface {
	// Name identifies the workload in reports (the canonical spec string).
	Name() string
	// Deltas adds the injection for the completed round `round` (1-based,
	// matching core.Process.Round after the step) into out, which has
	// length loads.Len() and is pre-zeroed by the caller, and reports
	// whether any entry is non-zero.
	Deltas(round int, loads Loads, out []int64) bool
}

// seededRNG is the reusable scratch generator shared by the randomized
// mutators: reseeding per (round[, node]) keeps draws counter-based while
// avoiding a generator allocation per call.
type seededRNG struct {
	pcg *rand.PCG
	rng *rand.Rand
}

func newSeededRNG() seededRNG {
	pcg := rand.NewPCG(0, 0)
	return seededRNG{pcg: pcg, rng: rand.New(pcg)}
}

func (s seededRNG) at(seed uint64, coords ...uint64) *rand.Rand {
	s.pcg.Seed(randx.PCGPair(seed, coords...))
	return s.rng
}

// at2 is the allocation-free fast path for the per-round streams; it
// matches at() bit for bit.
func (s seededRNG) at2(seed, a uint64) *rand.Rand {
	s.pcg.Seed(randx.PCGPair2(seed, a))
	return s.rng
}

// after is the per-node fast path of a round whose (seed, round) prefix
// is already hashed: after(randx.Mix2(seed, round), node) matches
// at(seed, round, node) bit for bit.
func (s seededRNG) after(prefix, c uint64) *rand.Rand {
	s.pcg.Seed(randx.PCGPairAfter(prefix, c))
	return s.rng
}

// Burst adds Amount tokens at one node after round Round — a one-shot
// hotspot. It is fully deterministic and needs no seed.
type Burst struct {
	Round  int
	Node   int
	Amount int64
}

var _ Mutator = Burst{}

// NewBurst builds a one-shot hotspot burst.
func NewBurst(round, node int, amount int64) Burst {
	return Burst{Round: round, Node: node, Amount: amount}
}

// Name implements Mutator.
func (b Burst) Name() string { return spec.Name("burst", b.Round, b.Amount, b.Node) }

// Deltas implements Mutator. A Node outside [0, n) panics when the burst
// fires rather than silently degrading the run to a static simulation;
// FromSpec validates the bounds up front.
func (b Burst) Deltas(round int, loads Loads, out []int64) bool {
	if round != b.Round || b.Amount == 0 {
		return false
	}
	out[b.Node] += b.Amount
	return true
}

// Hotspot adds Amount tokens every Period rounds at Node, or, when Node is
// negative, at a node drawn from the (seed, round) stream — so each burst
// hits a fresh deterministic location.
type Hotspot struct {
	Period int
	Amount int64
	Node   int

	seed uint64
	rng  seededRNG
}

var _ Mutator = (*Hotspot)(nil)

// NewHotspot builds a recurring burst; node < 0 draws the target per burst.
func NewHotspot(period int, amount int64, node int, seed uint64) *Hotspot {
	return &Hotspot{Period: period, Amount: amount, Node: node, seed: seed, rng: newSeededRNG()}
}

// Name implements Mutator.
func (h *Hotspot) Name() string {
	if h.Node < 0 {
		return spec.Name("hotspot", h.Period, h.Amount)
	}
	return spec.Name("hotspot", h.Period, h.Amount, h.Node)
}

// Deltas implements Mutator. Like Burst, a fixed Node outside [0, n)
// panics when a burst fires; FromSpec validates the bounds up front.
func (h *Hotspot) Deltas(round int, loads Loads, out []int64) bool {
	if h.Period <= 0 || round%h.Period != 0 || h.Amount == 0 {
		return false
	}
	node := h.Node
	if node < 0 {
		node = h.rng.at2(h.seed, uint64(round)).IntN(len(out))
	}
	out[node] += h.Amount
	return true
}

// Poisson injects Poisson(Rate)-distributed token arrivals at every node
// each round (stopping after round Until when Until > 0). Node i's arrival
// count in round t is drawn from the (seed, t, i) stream, the same
// counter-stream construction the discrete rounding uses, so results are
// bit-identical for any worker count. Each Deltas call hashes the (seed, t)
// prefix of those streams once and computes the sampler's threshold
// exp(−step) for the rate's last chunk once, not once per node.
type Poisson struct {
	Rate  float64
	Until int

	seed uint64
	rng  seededRNG
}

var _ Mutator = (*Poisson)(nil)

// NewPoisson builds per-node Poisson-like arrivals with the given mean rate
// per node per round; until <= 0 means the arrivals never stop.
func NewPoisson(rate float64, until int, seed uint64) *Poisson {
	return &Poisson{Rate: rate, Until: until, seed: seed, rng: newSeededRNG()}
}

// Name implements Mutator.
func (p *Poisson) Name() string {
	if p.Until <= 0 {
		return spec.Name("poisson", p.Rate)
	}
	return spec.Name("poisson", p.Rate, p.Until)
}

// Deltas implements Mutator.
func (p *Poisson) Deltas(round int, loads Loads, out []int64) bool {
	if p.Rate <= 0 || (p.Until > 0 && round > p.Until) {
		return false
	}
	last := poissonLastLimit(p.Rate)
	prefix := randx.Mix2(p.seed, uint64(round))
	any := false
	for i := range out {
		k := poissonDraw(p.rng.after(prefix, uint64(i)), p.Rate, last)
		if k > 0 {
			out[i] += k
			any = true
		}
	}
	return any
}

// poissonChunk is the largest rate one Knuth product covers, so that its
// threshold exp(−step) never underflows; poissonChunkLimit is exp(−16).
const poissonChunk = 16.0

var poissonChunkLimit = math.Exp(-poissonChunk)

// poissonLastLimit returns the Knuth threshold exp(−r) of the last chunk
// r ≤ 16 of a Poisson(rate) draw, reached by the same subtractions as the
// draw's own loop; every other chunk has poissonChunkLimit.
func poissonLastLimit(rate float64) float64 {
	for rate > poissonChunk {
		rate -= poissonChunk
	}
	return math.Exp(-rate)
}

// poissonDraw samples Poisson(rate) with Knuth's product-of-uniforms
// algorithm, one product per chunk of rate; last is
// poissonLastLimit(rate). The draw consumes a deterministic, rate-dependent
// number of uniforms from rng.
func poissonDraw(rng *rand.Rand, rate, last float64) int64 {
	var k int64
	for rate > 0 {
		step, l := rate, last
		if step > poissonChunk {
			step, l = poissonChunk, poissonChunkLimit
		}
		rate -= step
		p := 1.0
		for {
			p *= rng.Float64()
			if p <= l {
				break
			}
			k++
		}
	}
	return k
}

// Churn applies batch arrivals and departures every Period rounds: Arrive
// tokens land on uniformly drawn nodes and Depart tokens are removed from
// uniformly drawn nodes, skipping nodes a removal would drive below zero
// (departing work must exist somewhere). Node draws come from the
// (seed, round) stream. Until > 0 stops the churn after that round.
type Churn struct {
	Period int
	Arrive int64
	Depart int64
	Until  int

	seed uint64
	rng  seededRNG
}

var _ Mutator = (*Churn)(nil)

// NewChurn builds periodic batch arrivals/departures.
func NewChurn(period int, arrive, depart int64, until int, seed uint64) *Churn {
	return &Churn{Period: period, Arrive: arrive, Depart: depart, Until: until, seed: seed, rng: newSeededRNG()}
}

// Name implements Mutator.
func (c *Churn) Name() string {
	if c.Until <= 0 {
		return spec.Name("churn", c.Period, c.Arrive, c.Depart)
	}
	return spec.Name("churn", c.Period, c.Arrive, c.Depart, c.Until)
}

// Deltas implements Mutator.
func (c *Churn) Deltas(round int, loads Loads, out []int64) bool {
	if c.Period <= 0 || round%c.Period != 0 || (c.Until > 0 && round > c.Until) {
		return false
	}
	rng := c.rng.at2(c.seed, uint64(round))
	any := false
	for t := int64(0); t < c.Arrive; t++ {
		out[rng.IntN(len(out))]++
		any = true
	}
	for t := int64(0); t < c.Depart; t++ {
		// One uniform draw per departure token regardless of the skip, so
		// the stream position depends only on (Arrive, Depart, round) —
		// the arrivals above consumed Arrive draws first — never on the
		// load state.
		i := rng.IntN(len(out))
		if loads.At(i)+float64(out[i]) >= 1 {
			out[i]--
			any = true
		}
	}
	return any
}

// Adversary feeds the currently most-loaded region: every round it spreads
// Amount tokens round-robin over the Top most-loaded nodes (ties broken
// toward the lowest index), the worst case for a diffusion scheme because
// new work always lands where the backlog already is. It is deterministic
// and needs no seed.
type Adversary struct {
	Amount int64
	Top    int

	idx []int // scratch: indices of the current top-loaded nodes
}

var _ Mutator = (*Adversary)(nil)

// NewAdversary builds the most-loaded-region injector; top <= 0 means 1.
func NewAdversary(amount int64, top int) *Adversary {
	if top <= 0 {
		top = 1
	}
	return &Adversary{Amount: amount, Top: top}
}

// Name implements Mutator.
func (a *Adversary) Name() string { return spec.Name("adversary", a.Amount, a.Top) }

// Deltas implements Mutator.
func (a *Adversary) Deltas(round int, loads Loads, out []int64) bool {
	if a.Amount == 0 {
		return false
	}
	n := loads.Len()
	k := a.Top
	if k > n {
		k = n
	}
	// Selection scan: keep the k heaviest nodes seen so far in ascending
	// load order (idx[0] is the lightest of the kept set). O(n·k) with the
	// small k this models; ties resolve to earlier indices because a later
	// equal load does not evict an earlier one.
	a.idx = a.idx[:0]
	for i := 0; i < n; i++ {
		li := loads.At(i)
		if len(a.idx) < k {
			a.idx = append(a.idx, i)
			for p := len(a.idx) - 1; p > 0 && loads.At(a.idx[p-1]) > li; p-- {
				a.idx[p-1], a.idx[p] = a.idx[p], a.idx[p-1]
			}
			continue
		}
		if li <= loads.At(a.idx[0]) {
			continue
		}
		pos := 0
		for pos+1 < k && loads.At(a.idx[pos+1]) < li {
			a.idx[pos] = a.idx[pos+1]
			pos++
		}
		a.idx[pos] = i
	}
	// Round-robin from the heaviest end so a remainder lands on the peak.
	per := a.Amount / int64(len(a.idx))
	rem := a.Amount % int64(len(a.idx))
	for j := len(a.idx) - 1; j >= 0; j-- {
		d := per
		if rem > 0 {
			d++
			rem--
		}
		out[a.idx[j]] += d
	}
	return true
}

// Compose applies several mutators in order, summing their deltas. Later
// mutators see the pending deltas of earlier ones only through out (the
// Loads view stays the pre-injection state), matching how a single combined
// injection is applied.
type Compose []Mutator

var _ Mutator = Compose{}

// Name implements Mutator.
func (c Compose) Name() string {
	name := ""
	for i, m := range c {
		if i > 0 {
			name += "+"
		}
		name += m.Name()
	}
	return name
}

// Deltas implements Mutator.
func (c Compose) Deltas(round int, loads Loads, out []int64) bool {
	any := false
	for _, m := range c {
		if m.Deltas(round, loads, out) {
			any = true
		}
	}
	return any
}
