package core

import (
	"fmt"
	"math"
	"math/rand/v2"

	"diffusionlb/internal/hetero"
	"diffusionlb/internal/randx"
	"diffusionlb/internal/shard"
	"diffusionlb/internal/spectral"
)

// Discrete is a discrete diffusion process: loads are atomic int64 tokens.
// Each round it computes the continuous scheduled flows
// Ŷ(t) = C(x_D(t), y_D(t−1)) from its own integer state (Definition 1) and
// rounds them per node with the configured Rounder.
//
// The process is stateless in the paper's sense: round t depends only on
// x_D(t) and the integer flows actually sent in round t−1.
//
// Storage is shard-partitioned (internal/shard): the step path runs three
// passes over contiguous node shards — normalize, fused schedule+round,
// apply — with per-shard scratch and per-shard reduction slots combined in
// shard order, so a steady-state round allocates nothing and the results
// are bit-identical for every worker and shard count. The fused pass needs
// flow double buffering: rounding writes the mate arc, which may live in
// another shard whose SOS recurrence still has to read the previous round's
// flow there.
//
// The passes are also the only discrete kernel of the message-passing
// runtime (internal/actor), which steps them one shard at a time through
// a halo view built by NewHalo. The arc loops read z[heads[a]] and write
// next[mates[a]]; on the shared engine heads and mates are the graph's
// arcs and mate. A halo engine points each remote head (one in another
// shard) at a ghost slot z[n+g] that the transport fills from its
// neighbor's message, and each remote arc's mate at the arc itself. The
// owner writes next[mates[a]] = −f before next[a] = f, so on a self-mated
// arc the tail's own value wins and next[a] ends as the tokens a sent. The
// transport zeroes its remote arcs before the round pass, hands passApply
// a per-node credit of the tokens remote heads sent, and afterwards
// subtracts them from the remote arcs, so the SOS memory of a cut arc is
// "sent − credited" — in barrier mode exactly the shared engine's flow.
type Discrete struct {
	//lint:allow checkpointsync operator state is replayed by the resuming driver, see Checkpoint.Retargets
	op      *spectral.Operator
	kind    Kind
	beta    float64
	workers int
	rounder Rounder
	seed    uint64
	lay     *shard.Layout
	// CSR views, fixed for the life of the process (Retarget requires the
	// same graph shape and the layout pins the graph identity).
	offsets, arcs []int32
	// heads and mates are the halo view the arc loops index z and the mate
	// write through: the graph's arcs and mate on the shared engine, the
	// ghost-slot and self-mate maps on a halo engine (see NewHalo).
	heads, mates []int32
	// credit is a halo engine's per-node count of tokens its remote heads
	// sent this round; nil on the shared engine.
	//lint:allow checkpointsync per-round transport credit, consumed and zeroed by passApply, so zero at every round boundary
	credit []int64

	x     []int64 // loads at the beginning of the current round
	flows []int64 // y_D of the last completed round, per arc
	// flowsNext is y_D(t) being written by the fused pass.
	//lbvet:doublebuffer exact IEEE antisymmetry makes arc ownership unique: the owning node writes both directions of its arcs exactly once per round
	//lint:allow checkpointsync holds the stale previous buffer at round boundaries; Step promotes it into flows
	flowsNext []int64
	scheduled []float64 //lint:allow checkpointsync scratch Ŷ(t) per arc, recomputed by passRound before any read
	z         []float64 //lint:allow checkpointsync scratch x_i/s_i (then a halo engine's ghost slots), refilled every round before any read
	// flowsValid mirrors Continuous: SOS memory validity.
	flowsValid bool

	round              int
	minTransient       int64
	minTransientSet    bool
	negTransientRounds int
	minEndOfRound      int64 // minimum end-of-round load ever observed
	minEndSet          bool
	tokensMoved        int64 // Σ over rounds of all positive flows
	edgeMessages       int64 // directed transfers (arcs with positive flow)
	injectedTokens     int64 // Σ of positive Inject deltas (arrivals)
	removedTokens      int64 // Σ of negative Inject deltas (departures)
	retargetCount      int   // number of Retarget calls (speed events)

	// Per-shard scratch and reduction slots, sized by the layout's shard
	// count at construction so Step never allocates.
	sh   []discreteShard
	minT []int64 //lint:allow checkpointsync per-round reduction slot, overwritten by every Step
	minE []int64 //lint:allow checkpointsync per-round reduction slot, overwritten by every Step
	movd []int64 //lint:allow checkpointsync per-round reduction slot, overwritten by every Step
	msgs []int64 //lint:allow checkpointsync per-round reduction slot, overwritten by every Step

	// Round-scoped parameters the pass methods read; set by Step before the
	// passes run. Keeping the passes as method values bound once at
	// construction (instead of closures rebuilt per Step) is what makes the
	// steady-state step path allocation-free.
	stepSp      *hetero.Speeds //lint:allow checkpointsync round-scoped parameter, set by Step before the passes run
	stepAlpha   []float64      //lint:allow checkpointsync round-scoped parameter, set by Step before the passes run
	stepHomog   bool           //lint:allow checkpointsync round-scoped parameter, set by Step before the passes run
	stepSecond  bool           //lint:allow checkpointsync round-scoped parameter, set by Step before the passes run
	stepBeta    float64        //lint:allow checkpointsync round-scoped parameter, set by Step before the passes run
	stepSigma   float64        //lint:allow checkpointsync round-scoped parameter, set by Step before the passes run
	stepPrefix  uint64         //lint:allow checkpointsync round-scoped parameter, set by Step before the passes run
	stepNeedRNG bool           //lint:allow checkpointsync round-scoped parameter, set by Step before the passes run

	passZFn     func(s, lo, hi int)
	passRoundFn func(s, lo, hi int)
	passApplyFn func(s, lo, hi int)
}

// discreteShard is one shard's private scratch: compaction buffers for a
// node's positive scheduled flows and a reusable RNG. The PCG is re-seeded
// per node from (seed, round, node), so streams stay deterministic while
// avoiding a generator allocation per node per round.
type discreteShard struct {
	vals []float64
	out  []int64
	arcs []int32
	pcg  *rand.PCG
	rng  *rand.Rand
}

var _ Process = (*Discrete)(nil)
var _ Sharded = (*Discrete)(nil)

// NewDiscrete builds a discrete process from cfg, a rounder (nil means the
// paper's RandomizedRounder), a master seed for the rounding streams, and
// the initial integer loads (copied).
func NewDiscrete(cfg Config, rounder Rounder, seed uint64, initial []int64) (*Discrete, error) {
	return newDiscrete(cfg, rounder, seed, initial, nil, nil, 0)
}

// newDiscrete is NewDiscrete with an optional halo view (see NewHalo); nil
// heads and mates mean the graph's own arcs and mate.
func newDiscrete(cfg Config, rounder Rounder, seed uint64, initial []int64, heads, mates []int32, ghosts int) (*Discrete, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if rounder == nil {
		rounder = RandomizedRounder{}
	}
	g := cfg.Op.Graph()
	n := g.NumNodes()
	if len(initial) != n {
		return nil, fmt.Errorf("%w: %d initial loads for %d nodes", ErrBadConfig, len(initial), n)
	}
	var credit []int64
	if heads == nil {
		heads, mates = g.Arcs(), g.MateIndex()
	} else {
		if len(heads) != g.NumArcs() || len(mates) != g.NumArcs() || ghosts < 0 {
			return nil, fmt.Errorf("%w: halo maps %d/%d for %d arcs, %d ghosts",
				ErrBadConfig, len(heads), len(mates), g.NumArcs(), ghosts)
		}
		credit = make([]int64, n)
	}
	maxDeg := g.MaxDegree()
	lay := layoutFor(cfg)
	k := lay.Shards()
	d := &Discrete{
		op:        cfg.Op,
		kind:      cfg.Kind,
		beta:      cfg.Beta,
		workers:   cfg.Workers,
		rounder:   rounder,
		seed:      seed,
		lay:       lay,
		offsets:   g.Offsets(),
		arcs:      g.Arcs(),
		heads:     heads,
		mates:     mates,
		credit:    credit,
		x:         make([]int64, n),
		flows:     make([]int64, g.NumArcs()),
		flowsNext: make([]int64, g.NumArcs()),
		scheduled: make([]float64, g.NumArcs()),
		z:         make([]float64, n+ghosts),
		sh:        make([]discreteShard, k),
		minT:      make([]int64, k),
		minE:      make([]int64, k),
		movd:      make([]int64, k),
		msgs:      make([]int64, k),
	}
	for s := 0; s < k; s++ {
		pcg := rand.NewPCG(0, 0)
		d.sh[s] = discreteShard{
			vals: make([]float64, maxDeg),
			out:  make([]int64, maxDeg),
			arcs: make([]int32, maxDeg),
			pcg:  pcg,
			rng:  rand.New(pcg),
		}
	}
	d.passZFn = d.passZ
	d.passRoundFn = d.passRound
	d.passApplyFn = d.passApply
	copy(d.x, initial)
	return d, nil
}

// passZ fills the normalized loads z_i = x_i/s_i for one shard.
//
//lbvet:hotpath per-round kernel over every node
func (d *Discrete) passZ(_, lo, hi int) {
	if d.stepHomog {
		for i := lo; i < hi; i++ {
			d.z[i] = float64(d.x[i])
		}
		return
	}
	sp := d.stepSp
	for i := lo; i < hi; i++ {
		d.z[i] = float64(d.x[i]) / sp.Of(i)
	}
}

// passRound is the fused schedule+round kernel: for each node it computes
// the scheduled flows Ŷ of its arcs and immediately rounds them into the
// next flow buffer. Node i owns arc a=(i→j) iff Ŷ_a > 0, or Ŷ_a == 0 and
// i < j; the owner writes the integer flow to both mate(a) and a, in that
// order (see the halo note on Discrete). Exact IEEE antisymmetry
// (Ŷ_mate = −Ŷ_a) makes ownership unique, so every arc of flowsNext is
// written exactly once per round with no cross-shard races.
//
//lbvet:hotpath per-round fused kernel over every arc
func (d *Discrete) passRound(s, lo, hi int) {
	// Only offsets and heads are hoisted: the cold tie and write-back paths
	// read arcs and mates through d, so the arc loop keeps few slices live
	// and its accumulators stay in registers.
	offsets, heads := d.offsets, d.heads
	alpha := d.stepAlpha
	prev, next := d.flows, d.flowsNext
	second, sigma, beta := d.stepSecond, d.stepSigma, d.stepBeta
	sc := &d.sh[s]
	vals, out, arcIdx := sc.vals, sc.out, sc.arcs
	pcg, rng := sc.pcg, sc.rng
	for i := lo; i < hi; i++ {
		zi := d.z[i]
		cnt := 0
		for a := offsets[i]; a < offsets[i+1]; a++ {
			grad := alpha[a] * (zi - d.z[heads[a]])
			y := grad
			if second {
				y = sigma*float64(prev[a]) + beta*grad
			}
			d.scheduled[a] = y
			if y > 0 {
				vals[cnt] = y
				out[cnt] = 0
				arcIdx[cnt] = a
				cnt++
			} else if y == 0 && int32(i) < d.arcs[a] {
				next[d.mates[a]] = 0
				next[a] = 0
			}
		}
		if cnt == 0 {
			continue
		}
		if d.stepNeedRNG {
			pcg.Seed(randx.PCGPairAfter(d.stepPrefix, uint64(i)))
		}
		d.rounder.RoundNode(vals[:cnt], out[:cnt], rng)
		mates := d.mates
		for k := 0; k < cnt; k++ {
			a := arcIdx[k]
			next[mates[a]] = -out[k]
			next[a] = out[k]
		}
	}
}

// passApply applies the round's flows to one shard's loads (plus a halo
// engine's credit) and records the shard's transient/end-of-round minima
// and traffic counts in its reduction slots.
//
//lbvet:hotpath per-round kernel over every node and arc
func (d *Discrete) passApply(s, lo, hi int) {
	offsets := d.offsets
	flows := d.flowsNext
	localT, localE := int64(math.MaxInt64), int64(math.MaxInt64)
	var localMoved, localMsgs int64
	for i := lo; i < hi; i++ {
		var outSum, sentSum int64
		for a := offsets[i]; a < offsets[i+1]; a++ {
			f := flows[a]
			outSum += f
			if f > 0 {
				sentSum += f
				localMsgs++
			}
		}
		localMoved += sentSum
		if tr := d.x[i] - sentSum; tr < localT {
			localT = tr
		}
		nx := d.x[i] - outSum
		if d.credit != nil { // read through d: a hoisted slice spills the loop's sums
			nx += d.credit[i]
			d.credit[i] = 0
		}
		d.x[i] = nx
		if nx < localE {
			localE = nx
		}
	}
	d.minT[s] = localT
	d.minE[s] = localE
	d.movd[s] = localMoved
	d.msgs[s] = localMsgs
}

// Step executes one synchronous discrete round.
//
//lbvet:hotpath runs every round; TestStepSteadyStateAllocFree pins 0 allocs
func (d *Discrete) Step() {
	d.beginRound()
	d.lay.Run(d.workers, d.passZFn)
	d.lay.Run(d.workers, d.passRoundFn)
	d.lay.Run(d.workers, d.passApplyFn)
	d.endRound()
}

// beginRound latches the round-scoped parameters the passes read.
func (d *Discrete) beginRound() {
	sp := speedsOf(d.op)
	d.stepSp = sp
	d.stepHomog = sp.IsHomogeneous()
	d.stepAlpha = d.op.AlphaView()
	d.stepSecond = d.kind == SOS && d.flowsValid
	d.stepBeta = d.beta
	d.stepSigma = d.beta - 1
	// The node streams are PCGPair3(seed, round, node); their
	// (seed, round) prefix is hashed once here.
	d.stepPrefix = randx.Mix2(d.seed, uint64(d.round))
	d.stepNeedRNG = !d.rounder.Deterministic()
}

// endRound promotes the round's flows (SOS reads them as memory next round)
// and folds the per-shard reduction slots in shard order.
func (d *Discrete) endRound() {
	d.flows, d.flowsNext = d.flowsNext, d.flows
	k := d.lay.Shards()
	anyNeg := false
	for s := 0; s < k; s++ {
		d.tokensMoved += d.movd[s]
		d.edgeMessages += d.msgs[s]
		if !d.minTransientSet || d.minT[s] < d.minTransient {
			d.minTransient = d.minT[s]
			d.minTransientSet = true
		}
		if !d.minEndSet || d.minE[s] < d.minEndOfRound {
			d.minEndOfRound = d.minE[s]
			d.minEndSet = true
		}
		if d.minT[s] < 0 {
			anyNeg = true
		}
	}
	if anyNeg {
		d.negTransientRounds++
	}

	if d.kind == SOS {
		d.flowsValid = true
	}
	d.round++
}

// Halo is the transport-side handle of a Discrete built by NewHalo: the
// round's entry points, which a message-passing runtime calls one shard at
// a time around its own exchanges, and the arrays it fills between them.
// The engine itself exposes none of this, so only the holder of the handle
// can step it shard by shard.
type Halo struct{ d *Discrete }

// NewHalo builds a Discrete over cfg.Layout whose arc loops read z through
// heads and write the mate flow through mates (see the halo note on
// Discrete): heads[a] is the head of arc a, or n+g for a remote head whose
// normalized load the transport puts in ghost slot g < ghosts; mates[a] is
// the mate of arc a, or a itself for a remote arc. Both slices are owned by
// the engine from here on.
func NewHalo(cfg Config, rounder Rounder, seed uint64, initial []int64, heads, mates []int32, ghosts int) (*Discrete, Halo, error) {
	if heads == nil || mates == nil {
		return nil, Halo{}, fmt.Errorf("%w: nil halo maps", ErrBadConfig)
	}
	d, err := newDiscrete(cfg, rounder, seed, initial, heads, mates, ghosts)
	if err != nil {
		return nil, Halo{}, err
	}
	return d, Halo{d}, nil
}

// Begin latches the round's parameters; call it before any shard's passes.
func (h Halo) Begin() { h.d.beginRound() }

// PassZ normalizes shard s's loads into Z.
func (h Halo) PassZ(s, lo, hi int) { h.d.passZ(s, lo, hi) }

// PassRound schedules and rounds shard s's flows into Next; the ghost slots
// its remote heads read must be filled and its remote arcs zeroed.
func (h Halo) PassRound(s, lo, hi int) { h.d.passRound(s, lo, hi) }

// PassApply applies shard s's flows and Credit to its loads.
func (h Halo) PassApply(s, lo, hi int) { h.d.passApply(s, lo, hi) }

// End promotes the round's flows and folds the shard slots in shard order;
// call it after every shard's PassApply.
func (h Halo) End() { h.d.endRound() }

// Z returns the normalized loads followed by the ghost slots.
func (h Halo) Z() []float64 { return h.d.z }

// Next returns the flow buffer the current round writes, valid from Begin
// to End.
func (h Halo) Next() []int64 { return h.d.flowsNext }

// Credit returns the per-node credit PassApply adds to the loads and
// zeroes.
func (h Halo) Credit() []int64 { return h.d.credit }

// Round returns the number of completed rounds.
func (d *Discrete) Round() int { return d.round }

// Kind returns the current scheme order.
func (d *Discrete) Kind() Kind { return d.kind }

// SetKind switches the scheme for subsequent rounds; switching (back) to
// SOS restarts its memory with an FOS round.
func (d *Discrete) SetKind(k Kind) {
	if k == d.kind {
		return
	}
	d.kind = k
	d.flowsValid = false
}

// Operator returns the diffusion operator.
func (d *Discrete) Operator() *spectral.Operator { return d.op }

// ShardLayout implements Sharded.
func (d *Discrete) ShardLayout() *shard.Layout { return d.lay }

// StepWorkers implements Sharded.
func (d *Discrete) StepWorkers() int { return d.workers }

// Loads returns the current integer load vector.
func (d *Discrete) Loads() LoadView { return LoadView{Int: d.x} }

// LoadsInt returns the raw integer load slice (read-only view).
func (d *Discrete) LoadsInt() []int64 { return d.x }

// Flows returns the integer per-arc flows of the last completed round
// (read-only view; zero before the first round).
func (d *Discrete) Flows() []int64 { return d.flows }

// ScheduledFlows returns the per-arc continuous scheduled flows Ŷ of the
// last completed round (read-only view), i.e. what the rounding saw.
func (d *Discrete) ScheduledFlows() []float64 { return d.scheduled }

// Rounder returns the rounding scheme in use.
func (d *Discrete) Rounder() Rounder { return d.rounder }

// Seed returns the master seed of the rounding streams.
func (d *Discrete) Seed() uint64 { return d.seed }

// MemoryFootprint returns the resident bytes of the process's own arrays
// (loads, both flow buffers, scheduled flows, normalized loads, per-shard
// scratch) — the engine share of the bytes/node the scale benchmarks
// report; graph and operator storage are accounted by their own
// MemoryFootprint methods.
func (d *Discrete) MemoryFootprint() int64 {
	bytes := int64(len(d.x))*8 + int64(len(d.flows)+len(d.flowsNext))*8 +
		int64(len(d.scheduled))*8 + int64(len(d.z))*8
	for s := range d.sh {
		sc := &d.sh[s]
		bytes += int64(len(sc.vals))*8 + int64(len(sc.out))*8 + int64(len(sc.arcs))*4
	}
	bytes += int64(len(d.minT)+len(d.minE)+len(d.movd)+len(d.msgs)) * 8
	if d.credit != nil { // a halo engine owns its head and mate maps
		bytes += int64(len(d.heads)+len(d.mates))*4 + int64(len(d.credit))*8
	}
	return bytes
}

// MinTransient returns the smallest transient load x̆ observed so far
// (+Inf before the first round).
func (d *Discrete) MinTransient() float64 {
	if !d.minTransientSet {
		return math.Inf(1)
	}
	return float64(d.minTransient)
}

// MinTransientInt returns the exact integer minimum transient load and
// whether any round has completed.
func (d *Discrete) MinTransientInt() (int64, bool) { return d.minTransient, d.minTransientSet }

// MinEndOfRound returns the smallest end-of-round load observed so far.
func (d *Discrete) MinEndOfRound() (int64, bool) { return d.minEndOfRound, d.minEndSet }

// NegativeTransientRounds counts rounds with a negative transient load.
func (d *Discrete) NegativeTransientRounds() int { return d.negTransientRounds }

// Checkpoint captures the process state needed to resume the run exactly:
// the current loads, the last round's integer flows (the SOS memory), and
// the round counter. Diagnostics counters (minima, traffic) are included
// so a resumed run reports the same aggregates.
type Checkpoint struct {
	Round              int
	Kind               Kind
	FlowsValid         bool
	Loads              []int64
	Flows              []int64
	MinTransient       int64
	MinTransientSet    bool
	NegTransientRounds int
	MinEndOfRound      int64
	MinEndSet          bool
	TokensMoved        int64
	EdgeMessages       int64
	InjectedTokens     int64
	RemovedTokens      int64
	// Retargets counts the operator changes applied before the snapshot, so
	// a resumed dynamic-environment run reports the same diagnostics. The
	// operator state itself is NOT captured: the resuming driver replays the
	// deterministic speed trajectory (or re-applies the effective speeds)
	// before continuing.
	Retargets int
	// Beta is the second-order parameter at the snapshot, so a run cut
	// after a β re-optimization resumes with the re-optimized value instead
	// of the constructor's. Restore ignores a zero value (checkpoints from
	// older snapshots), keeping the process's current β.
	Beta float64
}

// Checkpoint returns a deep copy of the resumable state. Combined with the
// counter-based rounding streams (seeded by round number), Restore yields
// a bit-identical continuation — long paper-scale runs can be split across
// process lifetimes.
func (d *Discrete) Checkpoint() Checkpoint {
	cp := Checkpoint{
		Round:              d.round,
		Kind:               d.kind,
		FlowsValid:         d.flowsValid,
		Loads:              make([]int64, len(d.x)),
		Flows:              make([]int64, len(d.flows)),
		MinTransient:       d.minTransient,
		MinTransientSet:    d.minTransientSet,
		NegTransientRounds: d.negTransientRounds,
		MinEndOfRound:      d.minEndOfRound,
		MinEndSet:          d.minEndSet,
		TokensMoved:        d.tokensMoved,
		EdgeMessages:       d.edgeMessages,
		InjectedTokens:     d.injectedTokens,
		RemovedTokens:      d.removedTokens,
		Retargets:          d.retargetCount,
		Beta:               d.beta,
	}
	copy(cp.Loads, d.x)
	copy(cp.Flows, d.flows)
	return cp
}

// Restore replaces the process state with a checkpoint taken from a
// process over the same graph (and the same seed, for the continuation to
// be identical).
func (d *Discrete) Restore(cp Checkpoint) error {
	if len(cp.Loads) != len(d.x) || len(cp.Flows) != len(d.flows) {
		return fmt.Errorf("%w: checkpoint shape %d/%d does not match process %d/%d",
			ErrBadConfig, len(cp.Loads), len(cp.Flows), len(d.x), len(d.flows))
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
		d.beta = cp.Beta
	}
	d.round = cp.Round
	d.kind = cp.Kind
	d.flowsValid = cp.FlowsValid
	copy(d.x, cp.Loads)
	copy(d.flows, cp.Flows)
	d.minTransient = cp.MinTransient
	d.minTransientSet = cp.MinTransientSet
	d.negTransientRounds = cp.NegTransientRounds
	d.minEndOfRound = cp.MinEndOfRound
	d.minEndSet = cp.MinEndSet
	d.tokensMoved = cp.TokensMoved
	d.edgeMessages = cp.EdgeMessages
	d.injectedTokens = cp.InjectedTokens
	d.removedTokens = cp.RemovedTokens
	d.retargetCount = cp.Retargets
	return nil
}

// Retarget implements Retargeter: it installs op (over the same graph
// shape) as the diffusion operator for subsequent rounds. The engine reads
// α through the operator's shard view every step, so no per-arc copying
// happens here — a speed event is O(1) on the engine side. Loads, flow
// memory, the round counter and the rounding streams are untouched — see
// the interface contract for why this keeps dynamic-environment runs
// checkpoint/restore safe.
//
//lbvet:hotpath speed events are O(1) on the engine side and may fire every round
func (d *Discrete) Retarget(op *spectral.Operator) error {
	if err := retargetCheck(op, len(d.x), len(d.flows)); err != nil {
		return err
	}
	d.op = op
	d.retargetCount++
	return nil
}

// Retargets returns the number of operator changes applied so far.
func (d *Discrete) Retargets() int { return d.retargetCount }

// Beta returns the current second-order parameter β.
func (d *Discrete) Beta() float64 { return d.beta }

// SetBeta implements BetaSetter: it installs β for subsequent rounds,
// leaving loads, flow memory, the round counter and the rounding streams
// untouched.
func (d *Discrete) SetBeta(beta float64) error {
	if err := betaCheck(beta); err != nil {
		return err
	}
	d.beta = beta
	return nil
}

// Inject implements Injector: it adds deltas to the loads between rounds
// (batch arrivals, hotspot bursts, departures). Injection is not a round —
// the SOS flow memory, round counter and rounding streams are untouched —
// so dynamic runs keep the engine's determinism and checkpoint guarantees.
// An injection that would take a node's load or the total load out of
// int64 is rejected before anything changes.
func (d *Discrete) Inject(deltas []int64) error {
	if err := injectCheck(d.x, deltas); err != nil {
		return err
	}
	for i, dv := range deltas {
		d.x[i] += dv
		if dv > 0 {
			d.injectedTokens += dv
		} else {
			d.removedTokens -= dv
		}
	}
	return nil
}

// Injected returns the cumulative externally injected token counts: added
// is the sum of positive Inject deltas, removed the magnitude of negative
// ones. TotalLoad() == initial total + added − removed at every round
// boundary.
func (d *Discrete) Injected() (added, removed int64) {
	return d.injectedTokens, d.removedTokens
}

// Traffic returns the cumulative communication cost of the run so far:
// tokens is the total number of token transfers (each token crossing one
// edge counts once) and messages is the number of directed edge transfers
// (rounds × arcs that carried at least one token). The paper uses this
// cost to argue for diffusion over random-walk schemes (Section II).
func (d *Discrete) Traffic() (tokens, messages int64) {
	return d.tokensMoved, d.edgeMessages
}

// TotalLoad returns Σ x_i, which every step conserves exactly.
func (d *Discrete) TotalLoad() int64 {
	return shard.SumInt64(d.lay, d.workers, d.x)
}
