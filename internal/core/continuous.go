package core

import (
	"fmt"
	"math"

	"diffusionlb/internal/hetero"
	"diffusionlb/internal/shard"
	"diffusionlb/internal/spectral"
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
	//lint:allow checkpointsync operator state is replayed by the resuming driver, see Checkpoint.Retargets
	op      *spectral.Operator
	kind    Kind
	beta    float64
	lay     *shard.Layout
	offsets []int32
	arcs    []int32

	x     []float64 // loads at the beginning of the current round
	next  []float64 //lint:allow checkpointsync scratch for x(t+1), swapped into x at the end of every Step
	flows []float64 // y(t-1) per arc; valid iff flowsValid
	z     []float64 //lint:allow checkpointsync scratch x_i/s_i, recomputed by passZ before any read
	// flowsValid records whether flows holds the previous round's flows;
	// an SOS round with invalid memory runs the FOS recurrence (this is
	// exactly the scheme's t=0 rule, and it reapplies after a SetKind).
	flowsValid bool

	round              int
	minTransient       float64
	negTransientRounds int
	initialTotal       float64
	retargetCount      int

	// Per-shard reduction slots, sized at construction.
	minT []float64 //lint:allow checkpointsync per-round reduction slot, overwritten by every Step
	negT []bool    //lint:allow checkpointsync per-round reduction slot, overwritten by every Step

	// Round-scoped parameters for the pass methods (see Discrete for why
	// these are fields and the passes are method values bound once).
	stepSp     *hetero.Speeds //lint:allow checkpointsync round-scoped parameter, set by Step before the passes run
	stepAlpha  []float64      //lint:allow checkpointsync round-scoped parameter, set by Step before the passes run
	stepZ      []float64      //lint:allow checkpointsync round-scoped alias of c.z (or c.x on homogeneous speeds)
	stepSecond bool           //lint:allow checkpointsync round-scoped parameter, set by Step before the passes run
	stepBeta   float64        //lint:allow checkpointsync round-scoped parameter, set by Step before the passes run
	stepSigma  float64        //lint:allow checkpointsync round-scoped parameter, set by Step before the passes run

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
		op:           cfg.Op,
		kind:         cfg.Kind,
		beta:         cfg.Beta,
		lay:          lay,
		offsets:      g.Offsets(),
		arcs:         g.Arcs(),
		x:            make([]float64, n),
		next:         make([]float64, n),
		z:            make([]float64, n),
		flows:        make([]float64, g.NumArcs()),
		minTransient: math.Inf(1),
		minT:         make([]float64, lay.Shards()),
		negT:         make([]bool, lay.Shards()),
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
	c.negT[s] = localMin < 0
}

// Step executes one synchronous continuous round.
//
//lbvet:hotpath runs every round; must stay allocation-free in steady state
func (c *Continuous) Step() {
	sp := speedsOf(c.op)
	c.stepSp = sp
	c.stepAlpha = c.op.AlphaView()
	c.stepSecond = c.kind == SOS && c.flowsValid
	c.stepBeta = c.beta
	c.stepSigma = c.beta - 1

	// Normalized loads z_i = x_i/s_i (the heterogeneous flow potential).
	// Homogeneous speeds make z the load vector itself — the fused pass
	// only reads x, so aliasing is safe and skips a full pass over n.
	if sp.IsHomogeneous() {
		c.stepZ = c.x
	} else {
		c.stepZ = c.z
		c.lay.Run(c.passZFn)
	}

	c.lay.Run(c.passFlowFn)

	anyNeg := false
	for s := 0; s < c.lay.Shards(); s++ {
		if c.minT[s] < c.minTransient {
			c.minTransient = c.minT[s]
		}
		anyNeg = anyNeg || c.negT[s]
	}
	if anyNeg {
		c.negTransientRounds++
	}

	c.x, c.next = c.next, c.x
	if c.kind == SOS {
		c.flowsValid = true
	}
	c.round++
}

// Round returns the number of completed rounds.
func (c *Continuous) Round() int { return c.round }

// Kind returns the current scheme order.
func (c *Continuous) Kind() Kind { return c.kind }

// GuaranteesNonNegative implements core.NonNegativeGuarantor: the FOS
// iteration applies the entrywise non-negative M, so a non-negative vector
// stays non-negative; SOS makes no such guarantee (Section V).
func (c *Continuous) GuaranteesNonNegative() bool { return c.kind == FOS }

// SetKind switches the scheme for subsequent rounds. Switching to SOS
// (re)starts its flow memory with an FOS round.
func (c *Continuous) SetKind(k Kind) {
	if k == c.kind {
		return
	}
	c.kind = k
	c.flowsValid = false
}

// Operator returns the diffusion operator.
func (c *Continuous) Operator() *spectral.Operator { return c.op }

// ShardLayout implements Sharded.
func (c *Continuous) ShardLayout() *shard.Layout { return c.lay }

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
	return int64(len(c.x)+len(c.next)+len(c.z)+len(c.flows)+len(c.minT))*8 +
		int64(len(c.negT))
}

// MinTransient returns the smallest transient load observed so far
// (+Inf before the first round).
func (c *Continuous) MinTransient() float64 { return c.minTransient }

// NegativeTransientRounds counts rounds with a negative transient load.
func (c *Continuous) NegativeTransientRounds() int { return c.negTransientRounds }

// Retarget implements Retargeter: it installs op (over the same graph
// shape) as the diffusion operator for subsequent rounds; loads, SOS flow
// memory and the round counter are untouched. The engine reads α through
// the operator's shard view every step, so no per-arc copying happens here.
//
//lbvet:hotpath speed events are O(1) on the engine side and may fire every round
func (c *Continuous) Retarget(op *spectral.Operator) error {
	if err := retargetCheck(op, len(c.x), len(c.flows)); err != nil {
		return err
	}
	c.op = op
	c.retargetCount++
	return nil
}

// Retargets returns the number of operator changes applied so far.
func (c *Continuous) Retargets() int { return c.retargetCount }

// Beta returns the current second-order parameter β.
func (c *Continuous) Beta() float64 { return c.beta }

// SetBeta implements BetaSetter: it installs β for subsequent rounds,
// leaving loads, flow memory and the round counter untouched.
func (c *Continuous) SetBeta(beta float64) error {
	if err := betaCheck(beta); err != nil {
		return err
	}
	c.beta = beta
	return nil
}

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
// process: loads, the SOS flow memory, and the diagnostics counters, in the
// same shape as Discrete's Checkpoint. Operator state is not captured — the
// resuming driver replays the speed trajectory (see Retargets).
type ContinuousCheckpoint struct {
	Round              int
	Kind               Kind
	FlowsValid         bool
	Loads              []float64
	Flows              []float64
	MinTransient       float64
	NegTransientRounds int
	InitialTotal       float64
	Retargets          int
	// Beta is the second-order parameter at the snapshot; Restore ignores a
	// zero value (older snapshots), keeping the process's current β.
	Beta float64
}

// Checkpoint returns a deep copy of the resumable state; Restore on a
// process over the same graph yields a bit-identical continuation.
func (c *Continuous) Checkpoint() ContinuousCheckpoint {
	cp := ContinuousCheckpoint{
		Round:              c.round,
		Kind:               c.kind,
		FlowsValid:         c.flowsValid,
		Loads:              make([]float64, len(c.x)),
		Flows:              make([]float64, len(c.flows)),
		MinTransient:       c.minTransient,
		NegTransientRounds: c.negTransientRounds,
		InitialTotal:       c.initialTotal,
		Retargets:          c.retargetCount,
		Beta:               c.beta,
	}
	copy(cp.Loads, c.x)
	copy(cp.Flows, c.flows)
	return cp
}

// Restore replaces the process state with a checkpoint taken from a process
// over the same graph.
func (c *Continuous) Restore(cp ContinuousCheckpoint) error {
	if len(cp.Loads) != len(c.x) || len(cp.Flows) != len(c.flows) {
		return fmt.Errorf("%w: checkpoint shape %d/%d does not match process %d/%d",
			ErrBadConfig, len(cp.Loads), len(cp.Flows), len(c.x), len(c.flows))
	}
	switch cp.Kind {
	case FOS, SOS:
	default:
		return fmt.Errorf("%w: checkpoint has invalid kind %d", ErrBadConfig, int(cp.Kind))
	}
	if cp.Beta != 0 {
		if err := betaCheck(cp.Beta); err != nil {
			return err
		}
		c.beta = cp.Beta
	}
	c.round = cp.Round
	c.kind = cp.Kind
	c.flowsValid = cp.FlowsValid
	copy(c.x, cp.Loads)
	copy(c.flows, cp.Flows)
	c.minTransient = cp.MinTransient
	c.negTransientRounds = cp.NegTransientRounds
	c.initialTotal = cp.InitialTotal
	c.retargetCount = cp.Retargets
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
