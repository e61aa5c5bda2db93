// Package scenario couples environment and workload dynamics on a single
// deterministic timeline: one Event can atomically fire a speed change
// (envdyn semantics) *and* a derived load change on the same node set in
// the same round. The paper analyzes second-order diffusion against a fixed
// ideal load vector; internal/workload moves the loads and internal/envdyn
// moves the speeds, but real failures move both at once — a node that
// drains its capacity also sheds its load (migration on leave), and a
// throttled region is often the same region absorbing a burst. This is the
// joint-perturbation regime of Berenbrink et al. ("Dynamic Averaging Load
// Balancing on Arbitrary Graphs", 2023) and Sauerwald & Sun ("Tight Bounds
// for Randomized Load Balancing", 2012).
//
// Both sides of an event select their node set through the shared
// internal/nodeset picker with the same (frac, sel, seed), so the speed
// change and the load change target the identical nodes bit-reproducibly.
//
// Determinism contract: the speed side is a pure function of (seed, round)
// like an envdyn.Dynamics; the load side is a pure function of
// (seed, round, loads) like a workload.Mutator. Replaying round t from the
// same state therefore always produces the same coupled event, which keeps
// simulations bit-identical across worker counts and preserves
// checkpoint/restore semantics — a run resumed from a snapshot cut even in
// the middle of a drain ramp continues exactly like the uninterrupted run.
//
// Like the two subsystems it couples, a Scenario may reuse internal scratch
// (cached node sets), so it is driven by one goroutine at a time.
package scenario

import (
	"diffusionlb/internal/envdyn"
	"diffusionlb/internal/graph"
	"diffusionlb/internal/hetero"
	"diffusionlb/internal/nodeset"
	"diffusionlb/internal/randx"
	"diffusionlb/internal/spec"
	"diffusionlb/internal/workload"
)

// saltWave keeps per-wave cascade selection streams disjoint from the
// top-level selection stream derived from the same seed.
const saltWave = 0x7761_7665_0000_0001 // "wave"

// Event is one coupled timeline entry. Factors is the speed side (envdyn
// semantics: multiply per-node speed multipliers for the completed round
// into mult, pre-filled with 1 by the caller); Deltas is the load side
// (workload semantics: add per-node load deltas into out, pre-zeroed by the
// caller), which additionally sees the graph — migration moves load along
// edges — and the immutable base speed assignment used for node selection.
type Event interface {
	// Name identifies the event in reports (the canonical spec string,
	// re-parsable by FromSpec for parser-built values).
	Name() string
	// Factors implements the speed side; it reports whether it scaled
	// anything.
	Factors(round int, base *hetero.Speeds, mult []float64) bool
	// Deltas implements the load side; it reports whether any entry moved.
	// Later events of a Timeline see earlier events' pending deltas only
	// through out (loads stays the pre-injection state), matching
	// workload.Compose.
	Deltas(round int, g *graph.Graph, base *hetero.Speeds, loads workload.Loads, out []int64) bool
}

// rampShare splits a remaining amount evenly over the remaining ramp
// rounds: the final round (remaining == 1) takes everything, so a full ramp
// always completes exactly. Non-positive amounts share nothing.
func rampShare(amount int64, remaining int) int64 {
	if amount <= 0 || remaining < 1 {
		return 0
	}
	if remaining == 1 {
		return amount
	}
	return amount / int64(remaining)
}

// Drain is migration-on-leave: the selected nodes' speed ramps to the model
// floor of 1 over Ramp rounds from round At (exactly envdyn.Drain), and in
// the same rounds each draining node sheds its load to its non-draining
// neighbors — the remaining load split evenly over the remaining ramp
// rounds, so the last ramp round leaves the node empty. With Restore > 0
// the speed ramps back over RestoreRamp rounds and the node pulls load back
// from its neighbors toward their mean, closing the gap on the same
// schedule (the join proxy).
type Drain struct {
	// At is the first drain round (>= 1).
	At int
	// Ramp is the drain ramp length in rounds (>= 1).
	Ramp int
	// Restore, when > 0, is the first ramp-up round (>= At+Ramp).
	Restore int
	// RestoreRamp is the ramp-up length in rounds (>= 1).
	RestoreRamp int
	// Frac is the affected fraction of nodes (at least one node).
	Frac float64
	// Sel picks the affected set: fast (default), slow or random.
	Sel string
	// Seed feeds the random selection stream.
	Seed uint64

	env envdyn.Drain     // speed side (same parameters, same selection)
	s   nodeset.Selector // load-side selection, identical by construction
}

var _ Event = (*Drain)(nil)

// syncEnv mirrors the public fields into the embedded envdyn drain, which
// owns the speed ramp and the canonical drain rendering.
func (d *Drain) syncEnv() {
	d.env.At, d.env.Ramp, d.env.Restore, d.env.RestoreRamp = d.At, d.Ramp, d.Restore, d.RestoreRamp
	d.env.Frac, d.env.Sel, d.env.Seed = d.Frac, d.Sel, d.Seed
}

// Name implements Event. The scenario drain spec is byte-identical to the
// envdyn one (the grammars share envdyn.ReadDrain), so rendering delegates
// too.
func (d *Drain) Name() string {
	d.syncEnv()
	return d.env.Name()
}

// Factors implements Event by delegating to the envdyn drain ramp.
func (d *Drain) Factors(round int, base *hetero.Speeds, mult []float64) bool {
	d.syncEnv()
	return d.env.Factors(round, base, mult)
}

// Drain phases for the load side.
const (
	phaseNone = iota
	phaseDrain
	phaseRestore
)

// phase returns which migration phase the round is in and the 1-based ramp
// round within it.
func (d *Drain) phase(round int) (int, int) {
	if d.At < 1 || round < d.At {
		return phaseNone, 0
	}
	ramp := d.Ramp
	if ramp < 1 {
		ramp = 1
	}
	if k := round - d.At + 1; k <= ramp && (d.Restore <= 0 || round < d.Restore) {
		return phaseDrain, k
	}
	if d.Restore > 0 && round >= d.Restore {
		rr := d.RestoreRamp
		if rr < 1 {
			rr = 1
		}
		if k := round - d.Restore + 1; k <= rr {
			return phaseRestore, k
		}
	}
	return phaseNone, 0
}

// Deltas implements Event: the migration half of the drain. All moves are
// between a draining node and its non-draining neighbors, so total load is
// conserved exactly; departures are capped so no neighbor is driven below
// zero during a restore pull-back.
func (d *Drain) Deltas(round int, g *graph.Graph, base *hetero.Speeds, loads workload.Loads, out []int64) bool {
	phase, k := d.phase(round)
	if phase == phaseNone {
		return false
	}
	n := loads.Len()
	d.s.Frac, d.s.Sel, d.s.Seed = d.Frac, d.Sel, d.Seed
	nodes := d.s.Pick(base, n)
	offsets, arcs := g.Offsets(), g.Arcs()
	any := false
	for _, i := range nodes {
		// Eligible destinations/sources: neighbors outside the draining set.
		cnt := 0
		for a := offsets[i]; a < offsets[i+1]; a++ {
			if !d.s.Contains(int(arcs[a])) {
				cnt++
			}
		}
		if cnt == 0 {
			continue // fully surrounded by draining nodes: nothing to do
		}
		var give int64 // positive: i sheds load; negative: i pulls back
		switch phase {
		case phaseDrain:
			ramp := d.Ramp
			if ramp < 1 {
				ramp = 1
			}
			// Shed from the pending-inclusive load: earlier timeline events
			// (an overlapping drain, a burst) may already have deltas on
			// this node, and shedding more than what will actually be there
			// would drive it negative.
			give = rampShare(int64(loads.At(i))+out[i], ramp-k+1)
		case phaseRestore:
			var sum int64
			for a := offsets[i]; a < offsets[i+1]; a++ {
				if j := int(arcs[a]); !d.s.Contains(j) {
					sum += int64(loads.At(j))
				}
			}
			rr := d.RestoreRamp
			if rr < 1 {
				rr = 1
			}
			give = -rampShare(sum/int64(cnt)-int64(loads.At(i)), rr-k+1)
		}
		if give == 0 {
			continue
		}
		mag := give
		if mag < 0 {
			mag = -mag
		}
		per, rem := mag/int64(cnt), mag%int64(cnt)
		for a := offsets[i]; a < offsets[i+1]; a++ {
			j := int(arcs[a])
			if d.s.Contains(j) {
				continue
			}
			dv := per
			if rem > 0 {
				dv++
				rem--
			}
			if give < 0 {
				// Pull-back: never drive a neighbor below zero (including
				// deltas already pending on it this round).
				if avail := int64(loads.At(j)) + out[j]; dv > avail {
					dv = avail
				}
			}
			if dv <= 0 {
				continue
			}
			if give > 0 {
				out[j] += dv
				out[i] -= dv
			} else {
				out[j] -= dv
				out[i] += dv
			}
			any = true
		}
	}
	return any
}

// Correlated aims a throttle and a hotspot burst at the same region: from
// round At the selected nodes run at Factor times their base speed (exactly
// envdyn.Throttle; Until > 0 restores them), and in round At itself Load
// tokens land on the same node set, spread evenly with the remainder toward
// the lowest-indexed nodes. The default selection is the fast nodes — the
// natural correlated failure, where the region absorbing the burst is the
// region being throttled.
type Correlated struct {
	// At is the event round (>= 1).
	At int
	// Until, when > 0, ends the throttle from that round on.
	Until int
	// Frac is the affected fraction of nodes (at least one node).
	Frac float64
	// Factor is the speed multiplier while the throttle is active.
	Factor float64
	// Load is the total token burst injected over the set in round At.
	Load int64
	// Sel picks the affected set: fast (default), slow or random.
	Sel string
	// Seed feeds the random selection stream.
	Seed uint64

	env envdyn.Throttle
	s   nodeset.Selector
}

var _ Event = (*Correlated)(nil)

// Name implements Event.
func (c *Correlated) Name() string {
	var b spec.Builder
	b.Kind("correlated")
	b.Add("at", c.At)
	b.Add("frac", c.Frac)
	b.Add("factor", c.Factor)
	b.Add("load", c.Load)
	if c.Until > 0 {
		b.Add("until", c.Until)
	}
	b.Sel(c.Sel, nodeset.Fast)
	return b.String()
}

// Factors implements Event by delegating to the envdyn throttle.
func (c *Correlated) Factors(round int, base *hetero.Speeds, mult []float64) bool {
	c.env.At, c.env.Until, c.env.Frac, c.env.Factor = c.At, c.Until, c.Frac, c.Factor
	c.env.Sel, c.env.Seed = c.Sel, c.Seed
	return c.env.Factors(round, base, mult)
}

// Deltas implements Event: the burst half of the correlated event.
func (c *Correlated) Deltas(round int, g *graph.Graph, base *hetero.Speeds, loads workload.Loads, out []int64) bool {
	if round != c.At || c.Load <= 0 {
		return false
	}
	c.s.Frac, c.s.Sel, c.s.Seed = c.Frac, c.Sel, c.Seed
	nodes := c.s.Pick(base, loads.Len())
	per, rem := c.Load/int64(len(nodes)), c.Load%int64(len(nodes))
	for _, i := range nodes {
		dv := per
		if rem > 0 {
			dv++
			rem--
		}
		out[i] += dv
	}
	return true
}

// Cascade chains Waves correlated events: wave w starts at
// At + w·Gap + jitter_w, where jitter_w is drawn from the (seed, w) counter
// stream in [0, Jitter]. Each wave selects its own node set from a per-wave
// salted seed (with the default random selection, successive waves hit
// different regions — a rolling failure), throttles it by Factor for Dur
// rounds (0 = permanently) and lands Load tokens on it. The wave schedule
// is fixed at construction from the seed alone, so the cascade is a pure
// function of (seed, round) like every other event.
type Cascade struct {
	// At is the first wave's base round (>= 1).
	At int
	// Waves is the number of chained events (>= 1).
	Waves int
	// Gap is the base round gap between wave starts (>= 1).
	Gap int
	// Jitter is the maximum extra per-wave start offset (>= 0).
	Jitter int
	// Frac is the per-wave affected fraction of nodes.
	Frac float64
	// Factor is the per-wave speed multiplier.
	Factor float64
	// Load is the per-wave token burst (0 = throttle-only waves).
	Load int64
	// Dur is how many rounds each wave's throttle lasts (0 = forever).
	Dur int
	// Sel picks each wave's set: random (default), fast or slow.
	Sel string
	// Seed feeds the jitter and per-wave selection streams.
	Seed uint64

	waves []*Correlated
}

var _ Event = (*Cascade)(nil)

// ensure materializes the wave schedule; it depends only on the fields, so
// building it lazily keeps hand-constructed values working.
func (c *Cascade) ensure() {
	if c.waves != nil {
		return
	}
	waves := c.Waves
	if waves < 1 {
		waves = 1
	}
	c.waves = make([]*Correlated, 0, waves)
	for w := 0; w < waves; w++ {
		at := c.At + w*c.Gap
		if c.Jitter > 0 {
			at += int(randx.Mix3(c.Seed, saltWave, uint64(w)) % uint64(c.Jitter+1))
		}
		until := 0
		if c.Dur > 0 {
			until = at + c.Dur
		}
		c.waves = append(c.waves, &Correlated{
			At: at, Until: until, Frac: c.Frac, Factor: c.Factor, Load: c.Load,
			Sel:  c.sel(),
			Seed: randx.Mix3(c.Seed, saltWave, uint64(waves+w)),
		})
	}
}

func (c *Cascade) sel() string {
	if c.Sel == "" {
		return nodeset.Random
	}
	return c.Sel
}

// Name implements Event.
func (c *Cascade) Name() string {
	var b spec.Builder
	b.Kind("cascade")
	b.Add("at", c.At)
	b.Add("waves", c.Waves)
	b.Add("gap", c.Gap)
	b.Add("frac", c.Frac)
	b.Add("factor", c.Factor)
	if c.Load > 0 {
		b.Add("load", c.Load)
	}
	if c.Dur > 0 {
		b.Add("dur", c.Dur)
	}
	if c.Jitter > 0 {
		b.Add("jitter", c.Jitter)
	}
	b.Sel(c.Sel, nodeset.Random)
	return b.String()
}

// Factors implements Event.
func (c *Cascade) Factors(round int, base *hetero.Speeds, mult []float64) bool {
	c.ensure()
	any := false
	for _, w := range c.waves {
		if w.Factors(round, base, mult) {
			any = true
		}
	}
	return any
}

// Deltas implements Event.
func (c *Cascade) Deltas(round int, g *graph.Graph, base *hetero.Speeds, loads workload.Loads, out []int64) bool {
	c.ensure()
	any := false
	for _, w := range c.waves {
		if w.Deltas(round, g, base, loads, out) {
			any = true
		}
	}
	return any
}

// Timeline applies several events in order: speed factors compose
// multiplicatively (like envdyn.Compose), load deltas sum (like
// workload.Compose).
type Timeline []Event

var _ Event = Timeline{}

// Name implements Event.
func (t Timeline) Name() string {
	name := ""
	for i, e := range t {
		if i > 0 {
			name += "+"
		}
		name += e.Name()
	}
	return name
}

// Factors implements Event.
func (t Timeline) Factors(round int, base *hetero.Speeds, mult []float64) bool {
	any := false
	for _, e := range t {
		if e.Factors(round, base, mult) {
			any = true
		}
	}
	return any
}

// Deltas implements Event.
func (t Timeline) Deltas(round int, g *graph.Graph, base *hetero.Speeds, loads workload.Loads, out []int64) bool {
	any := false
	for _, e := range t {
		if e.Deltas(round, g, base, loads, out) {
			any = true
		}
	}
	return any
}

// Scenario is the driver-facing bundle: one coupled timeline exposed as the
// two halves the simulation stack already knows how to drive — an
// envdyn.Dynamics for the operator-reweighting speed side and a
// workload.Mutator for the injection load side. Both halves share the
// underlying events (and therefore their cached node sets), so the coupled
// semantics survive the split.
type Scenario struct {
	ev Event
}

// New bundles events into a scenario (several events become a Timeline).
func New(events ...Event) *Scenario {
	if len(events) == 1 {
		return &Scenario{ev: events[0]}
	}
	return &Scenario{ev: Timeline(events)}
}

// Name returns the canonical spec string of the timeline.
func (s *Scenario) Name() string { return s.ev.Name() }

// Event returns the underlying timeline.
func (s *Scenario) Event() Event { return s.ev }

// Dynamics returns the speed half as an envdyn.Dynamics (for the operator
// reweighting machinery).
func (s *Scenario) Dynamics() envdyn.Dynamics { return dynamicsHalf{s} }

// Mutator returns the load half bound to a graph and base speed assignment
// as a workload.Mutator (for the injection machinery). base may be nil
// (homogeneous).
func (s *Scenario) Mutator(g *graph.Graph, base *hetero.Speeds) workload.Mutator {
	return mutatorHalf{s: s, g: g, base: base}
}

type dynamicsHalf struct{ s *Scenario }

func (d dynamicsHalf) Name() string { return d.s.Name() }
func (d dynamicsHalf) Factors(round int, base *hetero.Speeds, mult []float64) bool {
	return d.s.ev.Factors(round, base, mult)
}

type mutatorHalf struct {
	s    *Scenario
	g    *graph.Graph
	base *hetero.Speeds
}

func (m mutatorHalf) Name() string { return m.s.Name() }
func (m mutatorHalf) Deltas(round int, loads workload.Loads, out []int64) bool {
	return m.s.ev.Deltas(round, m.g, m.base, loads, out)
}
