package core

import (
	"fmt"

	"diffusionlb/internal/hetero"
	"diffusionlb/internal/shard"
	"diffusionlb/internal/spectral"
)

// roundState is the state Discrete and Continuous keep and change between
// rounds the same way: the scheme the next round runs (operator, kind, β,
// SOS memory validity), where the run is (round, retarget and
// negative-transient-round counters) and the parameters a round latches
// before its passes run. Both engines embed it, so the methods below are
// theirs; the engine's own Step brackets its passes with latchRound and
// closeRound.
type roundState struct {
	//lint:allow checkpointsync operator state is replayed by the resuming driver, see CheckpointHeader.Retargets
	op   *spectral.Operator
	kind Kind
	beta float64
	lay  *shard.Layout
	// CSR views, fixed for the life of the process (Retarget requires the
	// same graph shape and the layout pins the graph identity).
	offsets, arcs []int32
	// flowsValid records whether the engine's flows hold the previous
	// round's flows; an SOS round with invalid memory runs the FOS
	// recurrence (this is exactly the scheme's t=0 rule, and it reapplies
	// after a SetKind).
	flowsValid bool

	round              int
	retargetCount      int // number of Retarget calls (speed events)
	negTransientRounds int

	// Round-scoped parameters the pass methods read; latchRound sets them
	// before the passes run. Keeping the passes as method values bound once
	// at construction (instead of closures rebuilt per Step) is what makes
	// the steady-state step path allocation-free.
	stepSp     *hetero.Speeds //lint:allow checkpointsync round-scoped parameter, set by latchRound before the passes run
	stepAlpha  []float64      //lint:allow checkpointsync round-scoped parameter, set by latchRound before the passes run
	stepHomog  bool           //lint:allow checkpointsync round-scoped parameter, set by latchRound before the passes run
	stepSecond bool           //lint:allow checkpointsync round-scoped parameter, set by latchRound before the passes run
	stepBeta   float64        //lint:allow checkpointsync round-scoped parameter, set by latchRound before the passes run
	stepSigma  float64        //lint:allow checkpointsync round-scoped parameter, set by latchRound before the passes run
}

// newRoundState starts the round state of an engine over lay, a partition
// of the validated cfg's graph.
func newRoundState(cfg Config, lay *shard.Layout) roundState {
	g := cfg.Op.Graph()
	return roundState{op: cfg.Op, kind: cfg.Kind, beta: cfg.Beta, lay: lay, offsets: g.Offsets(), arcs: g.Arcs()}
}

// latchRound latches the round-scoped parameters the passes read.
func (r *roundState) latchRound() {
	sp := speedsOf(r.op)
	r.stepSp = sp
	r.stepHomog = sp.IsHomogeneous()
	r.stepAlpha = r.op.AlphaView()
	r.stepSecond = r.kind == SOS && r.flowsValid
	r.stepBeta = r.beta
	r.stepSigma = r.beta - 1
}

// closeRound ends a round whose flows the engine has promoted: SOS reads
// them as memory next round. negative reports whether some node's
// transient load was negative.
func (r *roundState) closeRound(negative bool) {
	if negative {
		r.negTransientRounds++
	}
	if r.kind == SOS {
		r.flowsValid = true
	}
	r.round++
}

// Round returns the number of completed rounds.
func (r *roundState) Round() int { return r.round }

// Kind returns the current scheme order.
func (r *roundState) Kind() Kind { return r.kind }

// SetKind switches the scheme for subsequent rounds; switching (back) to
// SOS restarts its memory with an FOS round.
func (r *roundState) SetKind(k Kind) {
	if k == r.kind {
		return
	}
	r.kind = k
	r.flowsValid = false
}

// Operator returns the diffusion operator.
func (r *roundState) Operator() *spectral.Operator { return r.op }

// ShardLayout implements Sharded.
func (r *roundState) ShardLayout() *shard.Layout { return r.lay }

// NegativeTransientRounds counts rounds with a negative transient load.
func (r *roundState) NegativeTransientRounds() int { return r.negTransientRounds }

// Retarget implements Retargeter: it installs op (over the same graph
// shape) as the diffusion operator for subsequent rounds. The engine reads
// α through the operator's shard view every step, so no per-arc copying
// happens here — a speed event is O(1) on the engine side. Loads, flow
// memory, the round counter and the rounding streams are untouched — see
// the interface contract for why this keeps dynamic-environment runs
// checkpoint/restore safe.
//
//lbvet:hotpath speed events are O(1) on the engine side and may fire every round
func (r *roundState) Retarget(op *spectral.Operator) error {
	if err := retargetCheck(op, len(r.offsets)-1, len(r.arcs)); err != nil {
		return err
	}
	r.op = op
	r.retargetCount++
	return nil
}

// Retargets returns the number of operator changes applied so far.
func (r *roundState) Retargets() int { return r.retargetCount }

// Beta returns the current second-order parameter β.
func (r *roundState) Beta() float64 { return r.beta }

// SetBeta implements BetaSetter: it installs β for subsequent rounds,
// leaving loads, flow memory, the round counter and the rounding streams
// untouched.
func (r *roundState) SetBeta(beta float64) error {
	if err := betaCheck(beta); err != nil {
		return err
	}
	r.beta = beta
	return nil
}

// CheckpointHeader is the round state that Checkpoint and
// ContinuousCheckpoint share; both embed it, so its fields read as theirs
// (cp.Round, cp.Beta).
type CheckpointHeader struct {
	Round              int
	Kind               Kind
	FlowsValid         bool
	NegTransientRounds int
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

// Checkpoint returns the header of the engine's checkpoint.
func (r *roundState) Checkpoint() CheckpointHeader {
	return CheckpointHeader{
		Round:              r.round,
		Kind:               r.kind,
		FlowsValid:         r.flowsValid,
		NegTransientRounds: r.negTransientRounds,
		Retargets:          r.retargetCount,
		Beta:               r.beta,
	}
}

// Restore validates a checkpoint header and, only if it is valid, installs
// it; the engine's Restore checks its own shapes first, so a rejected
// checkpoint leaves the process untouched.
func (r *roundState) Restore(h CheckpointHeader) error {
	switch h.Kind {
	case FOS, SOS:
	default:
		return fmt.Errorf("%w: checkpoint has invalid kind %d", ErrBadConfig, int(h.Kind))
	}
	if h.Beta != 0 {
		if err := betaCheck(h.Beta); err != nil {
			return err
		}
		r.beta = h.Beta
	}
	r.round = h.Round
	r.kind = h.Kind
	r.flowsValid = h.FlowsValid
	r.negTransientRounds = h.NegTransientRounds
	r.retargetCount = h.Retargets
	return nil
}
