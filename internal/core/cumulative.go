package core

import (
	"fmt"
	"math"

	"diffusionlb/internal/shard"
	"diffusionlb/internal/spectral"
)

// CumulativeDiscrete implements the stateful discrete scheme of Akbari,
// Berenbrink and Sauerwald [2] that the paper contrasts with its stateless
// framework (Section II, Result I discussion): it simulates the continuous
// process alongside the discrete one and, every round, sends over each edge
// the integer flow that keeps the cumulative discrete flow as close as
// possible to the cumulative continuous flow,
//
//	y_D(t) = round(Φ(t) − D(t−1)),  Φ(t) = Σ_{s<=t} y_C(s),
//
// where D(t−1) is the total integer flow sent so far. This achieves O(d)
// deviation from the continuous process but is *not* stateless: it must
// track the continuous trajectory (equivalently the cumulative flows),
// which is exactly the bookkeeping the paper's framework avoids.
//
// The cumulative bookkeeping runs on the same shard layout as the wrapped
// continuous reference: cumFlows and sent are source-partitioned like the
// continuous flows, so the whole discretization is one fused pass per
// shard with preallocated reduction slots.
type CumulativeDiscrete struct {
	cont    *Continuous
	workers int
	lay     *shard.Layout
	offsets []int32

	x        []int64   // discrete loads
	sent     []int64   // cumulative integer flow per arc
	cumFlows []float64 // cumulative continuous flow Φ per arc

	round              int
	minTransient       int64
	minTransientSet    bool
	negTransientRounds int

	minT []int64 //lint:allow checkpointsync per-round reduction slot, overwritten by every Step

	passFn func(s, lo, hi int)
}

var _ Process = (*CumulativeDiscrete)(nil)
var _ Sharded = (*CumulativeDiscrete)(nil)

// NewCumulativeDiscrete builds the [2]-style process. The continuous
// reference starts from the same initial loads.
func NewCumulativeDiscrete(cfg Config, initial []int64) (*CumulativeDiscrete, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := cfg.Op.Graph().NumNodes()
	if len(initial) != n {
		return nil, fmt.Errorf("%w: %d initial loads for %d nodes", ErrBadConfig, len(initial), n)
	}
	xf := make([]float64, n)
	for i, v := range initial {
		xf[i] = float64(v)
	}
	cont, err := NewContinuous(cfg, xf)
	if err != nil {
		return nil, err
	}
	c := &CumulativeDiscrete{
		cont:     cont,
		workers:  cfg.Workers,
		lay:      cont.lay,
		offsets:  cfg.Op.Graph().Offsets(),
		x:        make([]int64, n),
		sent:     make([]int64, cfg.Op.Graph().NumArcs()),
		cumFlows: make([]float64, cfg.Op.Graph().NumArcs()),
		minT:     make([]int64, cont.lay.Shards()),
	}
	c.passFn = c.passApply
	copy(c.x, initial)
	return c, nil
}

// passApply advances one shard's cumulative bookkeeping: accumulate the
// round's continuous flows into Φ, send the rounded difference, apply it.
//
//lbvet:hotpath per-round fused kernel over every node and arc
func (c *CumulativeDiscrete) passApply(s, lo, hi int) {
	offsets := c.offsets
	contFlows := c.cont.flows
	localMin := int64(math.MaxInt64)
	for i := lo; i < hi; i++ {
		var outSum, sentSum int64
		for a := offsets[i]; a < offsets[i+1]; a++ {
			c.cumFlows[a] += contFlows[a]
			// Round half to even keeps the decision antisymmetric:
			// round(-x) == -round(x) for ties at .5 as well.
			f := int64(math.RoundToEven(c.cumFlows[a])) - c.sent[a]
			c.sent[a] += f
			outSum += f
			if f > 0 {
				sentSum += f
			}
		}
		if tr := c.x[i] - sentSum; tr < localMin {
			localMin = tr
		}
		c.x[i] -= outSum
	}
	c.minT[s] = localMin
}

// Step advances the continuous reference one round and sends the rounded
// cumulative-difference flows.
//
//lbvet:hotpath runs every round; must stay allocation-free in steady state
func (c *CumulativeDiscrete) Step() {
	c.cont.Step()
	c.lay.Run(c.workers, c.passFn)

	anyNeg := false
	for s := 0; s < c.lay.Shards(); s++ {
		if !c.minTransientSet || c.minT[s] < c.minTransient {
			c.minTransient = c.minT[s]
			c.minTransientSet = true
		}
		if c.minT[s] < 0 {
			anyNeg = true
		}
	}
	if anyNeg {
		c.negTransientRounds++
	}
	c.round++
}

// Round returns the number of completed rounds.
func (c *CumulativeDiscrete) Round() int { return c.round }

// Kind returns the scheme order of the underlying continuous process.
func (c *CumulativeDiscrete) Kind() Kind { return c.cont.Kind() }

// SetKind switches the underlying continuous process.
func (c *CumulativeDiscrete) SetKind(k Kind) { c.cont.SetKind(k) }

// Operator returns the diffusion operator.
func (c *CumulativeDiscrete) Operator() *spectral.Operator { return c.cont.Operator() }

// ShardLayout implements Sharded.
func (c *CumulativeDiscrete) ShardLayout() *shard.Layout { return c.lay }

// StepWorkers implements Sharded.
func (c *CumulativeDiscrete) StepWorkers() int { return c.workers }

// Loads returns the current integer load vector.
func (c *CumulativeDiscrete) Loads() LoadView { return LoadView{Int: c.x} }

// LoadsInt returns the raw integer load slice (read-only view).
func (c *CumulativeDiscrete) LoadsInt() []int64 { return c.x }

// Reference returns the internally simulated continuous process.
func (c *CumulativeDiscrete) Reference() *Continuous { return c.cont }

// MemoryFootprint returns the resident bytes of the cumulative bookkeeping
// plus the wrapped continuous reference.
func (c *CumulativeDiscrete) MemoryFootprint() int64 {
	return c.cont.MemoryFootprint() +
		int64(len(c.x)+len(c.sent)+len(c.cumFlows)+len(c.minT))*8
}

// MinTransient returns the smallest transient load observed so far.
func (c *CumulativeDiscrete) MinTransient() float64 {
	if !c.minTransientSet {
		return math.Inf(1)
	}
	return float64(c.minTransient)
}

// NegativeTransientRounds counts rounds with a negative transient load.
func (c *CumulativeDiscrete) NegativeTransientRounds() int { return c.negTransientRounds }

// Retarget implements Retargeter by forwarding to the internally simulated
// continuous reference (which owns the operator), so the cumulative-flow
// tracking follows the same reweighted trajectory.
func (c *CumulativeDiscrete) Retarget(op *spectral.Operator) error {
	return c.cont.Retarget(op)
}

// Retargets returns the number of operator changes applied so far.
func (c *CumulativeDiscrete) Retargets() int { return c.cont.Retargets() }

// Beta returns the current second-order parameter β.
func (c *CumulativeDiscrete) Beta() float64 { return c.cont.Beta() }

// SetBeta implements BetaSetter by forwarding to the internally simulated
// continuous reference (the only place β enters the scheme).
func (c *CumulativeDiscrete) SetBeta(beta float64) error { return c.cont.SetBeta(beta) }

// Inject implements Injector: deltas are applied to both the discrete loads
// and the internally simulated continuous reference, so the cumulative-flow
// tracking keeps measuring the same trajectory. Like Discrete.Inject, it
// rejects an injection that overflows int64 loads before anything changes.
func (c *CumulativeDiscrete) Inject(deltas []int64) error {
	if err := injectCheck(c.x, deltas); err != nil {
		return err
	}
	if err := c.cont.Inject(deltas); err != nil {
		return err
	}
	for i, dv := range deltas {
		c.x[i] += dv
	}
	return nil
}

// CumulativeCheckpoint captures the resumable state of a CumulativeDiscrete
// process: the wrapped continuous reference's checkpoint plus the integer
// loads and the cumulative per-arc bookkeeping that defines the scheme.
type CumulativeCheckpoint struct {
	Cont               ContinuousCheckpoint
	Round              int
	Loads              []int64
	Sent               []int64
	CumFlows           []float64
	MinTransient       int64
	MinTransientSet    bool
	NegTransientRounds int
}

// Checkpoint returns a deep copy of the resumable state; Restore on a
// process over the same graph yields a bit-identical continuation.
func (c *CumulativeDiscrete) Checkpoint() CumulativeCheckpoint {
	cp := CumulativeCheckpoint{
		Cont:               c.cont.Checkpoint(),
		Round:              c.round,
		Loads:              make([]int64, len(c.x)),
		Sent:               make([]int64, len(c.sent)),
		CumFlows:           make([]float64, len(c.cumFlows)),
		MinTransient:       c.minTransient,
		MinTransientSet:    c.minTransientSet,
		NegTransientRounds: c.negTransientRounds,
	}
	copy(cp.Loads, c.x)
	copy(cp.Sent, c.sent)
	copy(cp.CumFlows, c.cumFlows)
	return cp
}

// Restore replaces the process state with a checkpoint taken from a process
// over the same graph.
func (c *CumulativeDiscrete) Restore(cp CumulativeCheckpoint) error {
	if len(cp.Loads) != len(c.x) || len(cp.Sent) != len(c.sent) || len(cp.CumFlows) != len(c.cumFlows) {
		return fmt.Errorf("%w: checkpoint shape %d/%d/%d does not match process %d/%d/%d",
			ErrBadConfig, len(cp.Loads), len(cp.Sent), len(cp.CumFlows), len(c.x), len(c.sent), len(c.cumFlows))
	}
	if err := c.cont.Restore(cp.Cont); err != nil {
		return err
	}
	c.round = cp.Round
	copy(c.x, cp.Loads)
	copy(c.sent, cp.Sent)
	copy(c.cumFlows, cp.CumFlows)
	c.minTransient = cp.MinTransient
	c.minTransientSet = cp.MinTransientSet
	c.negTransientRounds = cp.NegTransientRounds
	return nil
}

// TotalLoad returns Σ x_i (conserved exactly).
func (c *CumulativeDiscrete) TotalLoad() int64 {
	return shard.SumInt64(c.lay, c.workers, c.x)
}
