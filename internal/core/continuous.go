package core

import (
	"fmt"
	"math"
	"slices"

	"diffusionlb/internal/shard"
)

// Continuous is the idealized diffusion process: loads are arbitrarily
// divisible float64 values and the exact scheduled flow is sent over every
// edge. It corresponds to the paper's "idealized scheme" (Figures 3 and 6)
// and serves as the reference process C for deviation measurements.
//
// Storage is shard-partitioned (internal/shard). Flows are source-node
// partitioned — node i owns exactly its own CSR arc range — so the flow
// computation and the flow application fuse into a single pass per shard
// (the apply of node i reads only arcs node i just wrote), and a
// steady-state round allocates nothing. On homogeneous speeds the
// normalization pass disappears entirely: z is the load vector itself.
type Continuous struct {
	roundState // operator, scheme, round counters and latched round parameters

	x     []float64 // loads at the beginning of the current round
	next  []float64 //lint:allow checkpointsync scratch for x(t+1), swapped into x at the end of every Step
	flows []float64 // y(t-1) per arc; valid iff flowsValid
	z     []float64 //lint:allow checkpointsync scratch x_i/s_i, recomputed by passZ before any read

	minTransient float64
	initialTotal float64

	// Per-shard reduction slots, sized at construction.
	minT []float64 //lint:allow checkpointsync per-round reduction slot, overwritten by every Step

	stepZ []float64 //lint:allow checkpointsync round-scoped alias of c.z (or c.x on homogeneous speeds)

	passZFn    func(s, lo, hi int)
	passFlowFn func(s, lo, hi int)
}

var _ Process = (*Continuous)(nil)
var _ Sharded = (*Continuous)(nil)

// NewContinuous builds a continuous process with the given initial loads
// (copied).
func NewContinuous(cfg Config, initial []float64) (*Continuous, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	g := cfg.Op.Graph()
	n := g.NumNodes()
	if len(initial) != n {
		return nil, fmt.Errorf("%w: %d initial loads for %d nodes", ErrBadConfig, len(initial), n)
	}
	lay := shard.ForWorkers(g, cfg.Workers)
	c := &Continuous{
		roundState:   newRoundState(cfg, lay),
		x:            make([]float64, n),
		next:         make([]float64, n),
		z:            make([]float64, n),
		flows:        make([]float64, g.NumArcs()),
		minTransient: math.Inf(1),
		minT:         make([]float64, lay.Shards()),
	}
	c.passZFn = c.passZ
	c.passFlowFn = c.passFlowApply
	copy(c.x, initial)
	for _, v := range c.x {
		c.initialTotal += v
	}
	return c, nil
}

// passZ fills the normalized loads z_i = x_i/s_i for one shard
// (heterogeneous speeds only; homogeneous rounds alias z to x).
//
//lbvet:hotpath per-round kernel over every node
func (c *Continuous) passZ(_, lo, hi int) {
	sp := c.stepSp
	for i := lo; i < hi; i++ {
		c.z[i] = c.x[i] / sp.Of(i)
	}
}

// passFlowApply is the fused flow+apply kernel: node i computes the flows
// of its own arc range (the SOS recurrence updates them in place) and
// immediately applies them to its load. Flows are source-partitioned, so
// the fusion introduces no cross-shard hazards: z and x are read-only here
// and every flow slot has exactly one writer.
//
//lbvet:hotpath per-round fused kernel over every arc
func (c *Continuous) passFlowApply(s, lo, hi int) {
	offsets, arcs := c.offsets, c.arcs
	alpha := c.stepAlpha
	z := c.stepZ
	flows := c.flows
	second, sigma, beta := c.stepSecond, c.stepSigma, c.stepBeta
	localMin := math.Inf(1)
	for i := lo; i < hi; i++ {
		zi := z[i]
		var outSum, sentSum float64
		for a := offsets[i]; a < offsets[i+1]; a++ {
			grad := alpha[a] * (zi - z[arcs[a]])
			f := grad
			if second {
				f = float64(sigma*flows[a]) + float64(beta*grad) // no fused multiply-add, as in Discrete
			}
			flows[a] = f
			outSum += f
			if f > 0 {
				sentSum += f
			}
		}
		if tr := c.x[i] - sentSum; tr < localMin {
			localMin = tr
		}
		c.next[i] = c.x[i] - outSum
	}
	c.minT[s] = localMin
}

// Step executes one synchronous continuous round.
//
//lbvet:hotpath runs every round; must stay allocation-free in steady state
func (c *Continuous) Step() {
	c.latchRound()

	// Normalized loads z_i = x_i/s_i (the heterogeneous flow potential).
	// Homogeneous speeds make z the load vector itself — the fused pass
	// only reads x, so aliasing is safe and skips a full pass over n.
	if c.stepHomog {
		c.stepZ = c.x
	} else {
		c.stepZ = c.z
		c.lay.Run(c.passZFn)
	}

	c.lay.Run(c.passFlowFn)

	anyNeg := false
	for _, m := range c.minT {
		if m < c.minTransient {
			c.minTransient = m
		}
		anyNeg = anyNeg || m < 0
	}

	c.x, c.next = c.next, c.x
	c.closeRound(anyNeg)
}

// GuaranteesNonNegative implements core.NonNegativeGuarantor: the FOS
// iteration applies the entrywise non-negative M, so a non-negative vector
// stays non-negative; SOS makes no such guarantee (Section V).
func (c *Continuous) GuaranteesNonNegative() bool { return c.kind == FOS }

// Loads returns the current load vector as a float view.
func (c *Continuous) Loads() LoadView { return LoadView{Float: c.x} }

// LoadsFloat returns the raw float load slice (read-only view).
func (c *Continuous) LoadsFloat() []float64 { return c.x }

// Flows returns the per-arc flows sent in the last completed round
// (read-only view; undefined before the first round).
func (c *Continuous) Flows() []float64 { return c.flows }

// MemoryFootprint returns the resident bytes of the process's own arrays;
// graph and operator storage are accounted separately.
func (c *Continuous) MemoryFootprint() int64 {
	return int64(len(c.x)+len(c.next)+len(c.z)+len(c.flows)+len(c.minT)) * 8
}

// MinTransient returns the smallest transient load observed so far
// (+Inf before the first round).
func (c *Continuous) MinTransient() float64 { return c.minTransient }

// Inject implements Injector: it adds deltas to the loads between rounds.
// The injected totals are folded into the conservation baseline, so
// ConservationError keeps measuring floating-point drift only, not the
// external load change.
func (c *Continuous) Inject(deltas []int64) error {
	if len(deltas) != len(c.x) {
		return fmt.Errorf("%w: %d deltas for %d nodes", ErrBadConfig, len(deltas), len(c.x))
	}
	for i, dv := range deltas {
		c.x[i] += float64(dv)
		c.initialTotal += float64(dv)
	}
	return nil
}

// ContinuousCheckpoint captures the resumable state of a Continuous
// process: the round header (see CheckpointHeader), loads, the SOS flow
// memory and the diagnostics counters, in the same shape as Discrete's
// Checkpoint.
type ContinuousCheckpoint struct {
	CheckpointHeader
	Loads        []float64
	Flows        []float64
	MinTransient float64
	InitialTotal float64
}

// Checkpoint returns a deep copy of the resumable state; Restore on a
// process over the same graph yields a bit-identical continuation.
func (c *Continuous) Checkpoint() ContinuousCheckpoint {
	return ContinuousCheckpoint{
		CheckpointHeader: c.roundState.Checkpoint(),
		Loads:            slices.Clone(c.x),
		Flows:            slices.Clone(c.flows),
		MinTransient:     c.minTransient,
		InitialTotal:     c.initialTotal,
	}
}

// Restore replaces the process state with a checkpoint taken from a process
// over the same graph.
func (c *Continuous) Restore(cp ContinuousCheckpoint) error {
	if len(cp.Loads) != len(c.x) || len(cp.Flows) != len(c.flows) {
		return fmt.Errorf("%w: checkpoint shape %d/%d does not match process %d/%d",
			ErrBadConfig, len(cp.Loads), len(cp.Flows), len(c.x), len(c.flows))
	}
	if err := c.roundState.Restore(cp.CheckpointHeader); err != nil {
		return err
	}
	copy(c.x, cp.Loads)
	copy(c.flows, cp.Flows)
	c.minTransient = cp.MinTransient
	c.initialTotal = cp.InitialTotal
	return nil
}

// ConservationError returns Σx(t) − Σx(0), the accumulated floating-point
// drift of the idealized scheme (exactly the right plot of Figure 6).
func (c *Continuous) ConservationError() float64 {
	var total float64
	for _, v := range c.x {
		total += v
	}
	return total - c.initialTotal
}
