// Package envdyn generates deterministic environment dynamics for the
// balancing engines: time-varying processor speeds. It is the symmetric
// counterpart of internal/workload — workload mutates the load vector
// between rounds, envdyn mutates the speed vector (and therefore the ideal
// load distribution the schemes chase).
//
// The paper's heterogeneous model (Section II-c) fixes speeds for the whole
// run; this package opens the regime of Berenbrink et al. ("Dynamic
// Averaging Load Balancing on Arbitrary Graphs", 2023), where the target
// itself moves: nodes get throttled or boosted (thermal/power management),
// drain toward speed 1 as a proxy for leaving the network, ramp back up as
// a proxy for joining, or jitter around their base speed.
//
// A Dynamics produces per-node speed multipliers; node i's effective speed
// in round t is max(1, s_i·m_i(t)) with s_i the base speed, so the model
// invariant min speed = 1 always holds. Multipliers compose by
// multiplication (Compose), mirroring workload's additive Compose.
//
// Determinism contract: a Dynamics is a pure function of (seed, round) —
// every random draw comes from a counter-based randx stream keyed by
// (masterSeed, round[, node]), never from mutable generator state that the
// caller cannot replay. Replaying round t therefore always produces the
// same speeds, which keeps simulations bit-identical across worker counts
// and preserves checkpoint/restore semantics: a run resumed from a snapshot
// at any round boundary sees exactly the speed trajectory the uninterrupted
// run saw. (Jitter keeps an incremental walk cache as an optimization, but
// the cache is rebuilt from the counter streams whenever a round is queried
// out of order, so the contract holds.)
//
// Like workload.Mutator, a Dynamics may reuse internal scratch, so it is
// driven by one goroutine at a time.
package envdyn

import (
	"fmt"
	"math"

	"diffusionlb/internal/hetero"
	"diffusionlb/internal/nodeset"
	"diffusionlb/internal/randx"
	"diffusionlb/internal/spec"
)

// Dynamics produces the per-node speed multipliers of a round.
// Implementations follow the package determinism contract.
type Dynamics interface {
	// Name identifies the dynamics in reports (the canonical spec string,
	// re-parsable by FromSpec for parser-built values).
	Name() string
	// Factors multiplies this component's per-node speed multipliers for
	// the completed round `round` (1-based, matching the driver's round
	// counter) into mult, which has one entry per node and is pre-filled
	// with 1 by the caller, and reports whether it scaled anything. base is
	// the immutable base speed assignment the run started with (used for
	// speed-ranked node selection, never mutated).
	Factors(round int, base *hetero.Speeds, mult []float64) bool
}

// Selection names for the affected node set, shared with internal/scenario
// through the common internal/nodeset picker (coupled events must target the
// identical set on both the speed and the load side).
const (
	// SelFast selects the fastest base-speed nodes (ties toward the lowest
	// index) — the natural target for throttling.
	SelFast = nodeset.Fast
	// SelSlow selects the slowest base-speed nodes.
	SelSlow = nodeset.Slow
	// SelRandom selects nodes drawn from the seed's selection stream.
	SelRandom = nodeset.Random
)

// Throttle scales the speeds of a selected node set by Factor while active:
// one-shot (from round At on, optionally ending at round Until) or
// recurring (active during the first Dur rounds of every Every-round
// period). Factor < 1 models thermal or power throttling; the Boost flag
// only changes the reported name for Factor > 1 scenarios — the arithmetic
// is identical. FromSpec validates parameters; a hand-constructed value
// with a non-positive Factor or an empty schedule simply never fires.
type Throttle struct {
	// At is the one-shot activation round (>= 1); ignored when Every > 0.
	At int
	// Until, when > 0, deactivates the one-shot throttle from that round on.
	Until int
	// Every, when > 0, makes the throttle recurring with this period.
	Every int
	// Dur is the active prefix length of each period (recurring mode).
	Dur int
	// Frac is the affected fraction of nodes (at least one node).
	Frac float64
	// Factor is the speed multiplier while active.
	Factor float64
	// Sel picks the affected set: SelFast (default), SelSlow or SelRandom.
	Sel string
	// Boost renders the name as "boost" instead of "throttle".
	Boost bool
	// Seed feeds the SelRandom selection stream.
	Seed uint64

	s nodeset.Selector
}

var _ Dynamics = (*Throttle)(nil)

// active reports whether the throttle applies in the given round.
func (t *Throttle) active(round int) bool {
	if t.Every > 0 {
		// Rounds are 1-based: active on the first Dur rounds of each
		// Every-round period, i.e. rounds kP+1 .. kP+Dur.
		return (round-1)%t.Every < t.Dur
	}
	if t.At < 1 || round < t.At {
		return false
	}
	return t.Until <= 0 || round < t.Until
}

// Name implements Dynamics.
func (t *Throttle) Name() string {
	kind := "throttle"
	if t.Boost {
		kind = "boost"
	}
	var b spec.Builder
	b.Kind(kind)
	if t.Every > 0 {
		b.Add("every", t.Every)
		b.Add("dur", t.Dur)
	} else {
		b.Add("at", t.At)
	}
	b.Add("frac", t.Frac)
	b.Add("factor", t.Factor)
	if t.Every <= 0 && t.Until > 0 {
		b.Add("until", t.Until)
	}
	b.Sel(t.Sel, SelFast)
	return b.String()
}

// Factors implements Dynamics.
func (t *Throttle) Factors(round int, base *hetero.Speeds, mult []float64) bool {
	if t.Factor <= 0 || t.Factor == 1 || !t.active(round) {
		return false
	}
	t.s.Frac, t.s.Sel, t.s.Seed = t.Frac, t.Sel, t.Seed
	for _, i := range t.s.Pick(base, len(mult)) {
		mult[i] *= t.Factor
	}
	return true
}

// Drain ramps the selected nodes' speed multiplier linearly from 1 to 0
// over Ramp rounds starting at round At, so their effective speed sinks to
// the clamp floor of 1 — the proxy for nodes leaving the network (they stop
// attracting load beyond the minimum). With Restore > 0 the multiplier
// ramps back from 0 to 1 over RestoreRamp rounds starting at round Restore
// — the join proxy. Ramp lengths of 1 switch instantaneously.
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
	// Sel picks the affected set: SelFast (default), SelSlow or SelRandom.
	Sel string
	// Seed feeds the SelRandom selection stream.
	Seed uint64

	s nodeset.Selector
}

var _ Dynamics = (*Drain)(nil)

// multAt returns the drain multiplier for a round.
func (d *Drain) multAt(round int) float64 {
	if d.At < 1 || round < d.At {
		return 1
	}
	if d.Restore > 0 && round >= d.Restore {
		rr := d.RestoreRamp
		if rr < 1 {
			rr = 1
		}
		q := float64(round-d.Restore+1) / float64(rr)
		if q >= 1 {
			return 1
		}
		return q
	}
	ramp := d.Ramp
	if ramp < 1 {
		ramp = 1
	}
	p := float64(round-d.At+1) / float64(ramp)
	if p >= 1 {
		return 0
	}
	return 1 - p
}

// Name implements Dynamics.
func (d *Drain) Name() string {
	var b spec.Builder
	b.Kind("drain")
	b.Add("at", d.At)
	b.Add("frac", d.Frac)
	if d.Ramp > 1 {
		b.Add("ramp", d.Ramp)
	}
	if d.Restore > 0 {
		b.Add("restore", d.Restore)
		if d.RestoreRamp > 1 {
			b.Add("rramp", d.RestoreRamp)
		}
	}
	b.Sel(d.Sel, SelFast)
	return b.String()
}

// Factors implements Dynamics.
func (d *Drain) Factors(round int, base *hetero.Speeds, mult []float64) bool {
	m := d.multAt(round)
	if m == 1 {
		return false
	}
	d.s.Frac, d.s.Sel, d.s.Seed = d.Frac, d.Sel, d.Seed
	for _, i := range d.s.Pick(base, len(mult)) {
		mult[i] *= m
	}
	return true
}

// Jitter applies a bounded random-walk multiplier exp(Sigma·w_i(t)) to the
// selected nodes, where each w_i performs an independent ±1 walk whose
// round-t step is drawn from the (seed, t, i) counter stream, reflected so
// the multiplier stays within [1/Cap, Cap]. It models slow environmental
// speed drift (shared tenancy, DVFS) rather than discrete events.
//
// The walk state is cached incrementally for sequential driving; querying a
// round out of order rebuilds the walk from the counter streams, so the
// value stays a pure function of (seed, round).
type Jitter struct {
	// Sigma is the per-step log-speed scale (> 0).
	Sigma float64
	// Cap bounds the multiplier to [1/Cap, Cap] (default 4).
	Cap float64
	// Frac is the affected fraction of nodes (default 1 = every node).
	Frac float64
	// Sel picks the affected set: SelRandom (default), SelFast or SelSlow.
	Sel string
	// Seed feeds the walk and selection streams.
	Seed uint64

	s         nodeset.Selector
	walk      []int
	walkRound int
}

var _ Dynamics = (*Jitter)(nil)

// Name implements Dynamics.
func (j *Jitter) Name() string {
	var b spec.Builder
	b.Kind("jitter")
	b.Add("sigma", j.Sigma)
	if j.Cap > 0 && j.Cap != 4 {
		b.Add("cap", j.Cap)
	}
	if frac := j.frac(); frac != 1 {
		b.Add("frac", frac)
	}
	b.Sel(j.Sel, SelRandom)
	return b.String()
}

func (j *Jitter) frac() float64 {
	if j.Frac <= 0 {
		return 1
	}
	return j.Frac
}

func (j *Jitter) capOrDefault() float64 {
	if j.Cap <= 1 {
		return 4
	}
	return j.Cap
}

// Factors implements Dynamics.
func (j *Jitter) Factors(round int, base *hetero.Speeds, mult []float64) bool {
	if j.Sigma <= 0 || round < 1 {
		return false
	}
	n := len(mult)
	j.s.Frac, j.s.Sel, j.s.Seed = j.frac(), j.selOrDefault(), j.Seed
	nodes := j.s.Pick(base, n)
	// Reflect the walk at ±maxW so it can always wander back within a few
	// rounds. maxW truncates (and is floored at 1 when Sigma > ln Cap), so
	// the multiplier is additionally clamped to the documented band below.
	cap := j.capOrDefault()
	maxW := int(math.Log(cap) / j.Sigma)
	if maxW < 1 {
		maxW = 1
	}
	if j.walk == nil || len(j.walk) != n || j.walkRound > round {
		j.walk = make([]int, n)
		j.walkRound = 0
	}
	for j.walkRound < round {
		j.walkRound++
		r := uint64(j.walkRound)
		for _, i := range nodes {
			w := j.walk[i]
			if randx.Mix3(j.Seed, r, uint64(i))&1 == 0 {
				w--
			} else {
				w++
			}
			if w > maxW {
				w = maxW - 1
			} else if w < -maxW {
				w = -(maxW - 1)
			}
			j.walk[i] = w
		}
	}
	any := false
	for _, i := range nodes {
		if j.walk[i] != 0 {
			m := math.Exp(j.Sigma * float64(j.walk[i]))
			if m > cap {
				m = cap
			} else if m < 1/cap {
				m = 1 / cap
			}
			mult[i] *= m
			any = true
		}
	}
	return any
}

func (j *Jitter) selOrDefault() string {
	if j.Sel == "" {
		return SelRandom
	}
	return j.Sel
}

// Compose applies several dynamics in order, multiplying their factors —
// the counterpart of workload.Compose's delta summing.
type Compose []Dynamics

var _ Dynamics = Compose{}

// Name implements Dynamics.
func (c Compose) Name() string {
	name := ""
	for i, d := range c {
		if i > 0 {
			name += "+"
		}
		name += d.Name()
	}
	return name
}

// Factors implements Dynamics.
func (c Compose) Factors(round int, base *hetero.Speeds, mult []float64) bool {
	any := false
	for _, d := range c {
		if d.Factors(round, base, mult) {
			any = true
		}
	}
	return any
}

// Applier evaluates a Dynamics against a base speed assignment round by
// round, clamps effective speeds at the model minimum of 1, and reports
// when the effective vector actually changes — the driver-facing half of
// the subsystem (sim.Runner owns one per run). Like a Dynamics it is driven
// by one goroutine at a time.
type Applier struct {
	base *hetero.Speeds
	dyn  Dynamics
	mult []float64
	eff  []float64
	prev []float64
	sp   *hetero.Speeds
}

// NewApplier builds an applier for n nodes over the given base speeds (nil
// means homogeneous).
func NewApplier(base *hetero.Speeds, n int, dyn Dynamics) (*Applier, error) {
	if n <= 0 {
		return nil, fmt.Errorf("%w: %d nodes", ErrBadSpec, n)
	}
	if dyn == nil {
		return nil, fmt.Errorf("%w: nil dynamics", ErrBadSpec)
	}
	if base == nil {
		base = hetero.Homogeneous(n)
	}
	if base.Len() != n {
		return nil, fmt.Errorf("%w: %d base speeds for %d nodes", ErrBadSpec, base.Len(), n)
	}
	return &Applier{
		base: base,
		dyn:  dyn,
		mult: make([]float64, n),
		eff:  make([]float64, n),
		prev: base.Slice(),
		sp:   base,
	}, nil
}

// Base returns the base speed assignment.
func (a *Applier) Base() *hetero.Speeds { return a.base }

// SpeedsAt returns the effective speed assignment for the completed round
// and the number of nodes whose speed differs from the previously returned
// round's. A changed count of 0 means the returned value is the same
// assignment as before: the caller can skip reweighting entirely. The
// effective speeds are a pure function of the round, so an Applier rebuilt
// after a checkpoint restore reports the change relative to the base and
// converges to the identical trajectory.
func (a *Applier) SpeedsAt(round int) (*hetero.Speeds, int, error) {
	for i := range a.mult {
		a.mult[i] = 1
	}
	a.dyn.Factors(round, a.base, a.mult)
	changed := 0
	for i := range a.eff {
		e := a.base.Of(i) * a.mult[i]
		if e < 1 {
			e = 1
		}
		a.eff[i] = e
		//lint:allow floateq change detection on exactly recomputed speeds; a tolerance would mask real steps
		if e != a.prev[i] {
			changed++
		}
	}
	if changed == 0 {
		return a.sp, 0, nil
	}
	copy(a.prev, a.eff)
	sp, err := hetero.New(a.eff)
	if err != nil {
		return nil, 0, fmt.Errorf("envdyn: %q at round %d: %w", a.dyn.Name(), round, err)
	}
	a.sp = sp
	return sp, changed, nil
}
