// Package core implements the paper's primary contribution: first- and
// second-order diffusion load balancing (FOS/SOS) on homogeneous and
// heterogeneous networks, in both the continuous (idealized, divisible-load)
// and the discrete (atomic-token) setting, together with the randomized
// rounding framework of Section III-B that turns any linear continuous
// scheme into a discrete one.
//
// The engines operate directly on the CSR arc layout of internal/graph and
// use the diffusion coefficients of a spectral.Operator (α_ij together with
// node speeds), so one code path covers all four combinations
// {FOS, SOS} × {homogeneous, heterogeneous}:
//
//	FOS:  y_ij(t) = α_ij (x_i(t)/s_i − x_j(t)/s_j)                  (eq. 1/31)
//	SOS:  y_ij(t) = (β−1) y_ij(t−1) + β α_ij (x_i(t)/s_i − x_j(t)/s_j),
//	      with an FOS step at t = 0                                  (eq. 3)
//
// A discrete process D with rounding scheme R_D computes the continuous
// scheduled flow Ŷ(t) = C(x_D(t), y_D(t−1)) from its own integer state and
// rounds it: y_D(t) = R_D(Ŷ(t)) (Definition 1). The package provides the
// paper's randomized rounding plus deterministic floor ("always round
// down"), round-to-nearest (the arbitrary rounding of Theorem 8), and
// independent Bernoulli rounding as baselines, and additionally the
// cumulative-flow discretization of Akbari–Berenbrink–Sauerwald [2] as the
// stateful O(d)-deviation comparator discussed in Section II.
//
// Negative load (Section V): both engines track the transient load x̆_i(t) —
// the load of node i after all outgoing flows of round t are sent but before
// any incoming flow is received — so that the minimum-initial-load bounds of
// Observation 5 and Theorems 10/11 can be checked experimentally.
//
// Determinism: every randomized rounding decision of round t at node i draws
// from an independent PCG stream seeded by (masterSeed, t, i). Results are
// therefore bit-identical for any worker count, which the engine tests
// verify.
package core

import (
	"errors"
	"fmt"
	"math/bits"

	"diffusionlb/internal/graph"
	"diffusionlb/internal/hetero"
	"diffusionlb/internal/shard"
	"diffusionlb/internal/spectral"
)

// Kind selects the diffusion scheme order.
type Kind int

// Scheme kinds. The zero value is invalid so that a Config must choose
// explicitly.
const (
	// FOS is the first order scheme (eq. 1).
	FOS Kind = iota + 1
	// SOS is the second order scheme (eq. 3) with an FOS first round.
	SOS
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case FOS:
		return "FOS"
	case SOS:
		return "SOS"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Errors shared by the engine constructors.
var (
	// ErrBadConfig reports an invalid engine configuration.
	ErrBadConfig = errors.New("core: bad configuration")
)

// Config configures a diffusion engine.
type Config struct {
	// Op supplies the graph, speeds and α coefficients. Required.
	Op *spectral.Operator
	// Kind selects FOS or SOS. Required.
	Kind Kind
	// Beta is the second-order parameter β ∈ (0, 2); required for SOS,
	// ignored for FOS. Use spectral.BetaOpt(λ) for the optimal value.
	Beta float64
	// Workers bounds the number of goroutines used per step. 0 or 1 means
	// sequential. Results are identical for every value.
	Workers int
	// Layout optionally shares a prebuilt shard layout across engines on
	// the same graph (sim.System holds one per topology, shared by every
	// run on it). nil builds shard.ForWorkers(Op.Graph(), Workers). A non-nil
	// layout must partition Op's graph; its shard count is free to differ
	// from ShardsFor(n, Workers) — results are shard-count-independent.
	Layout *shard.Layout
}

func (c Config) validate() error {
	if c.Op == nil {
		return fmt.Errorf("%w: nil operator", ErrBadConfig)
	}
	if c.Layout != nil && c.Layout.Graph() != c.Op.Graph() {
		return fmt.Errorf("%w: layout partitions a different graph", ErrBadConfig)
	}
	switch c.Kind {
	case FOS:
	case SOS:
		if c.Beta <= 0 || c.Beta >= 2 {
			return fmt.Errorf("%w: SOS needs beta in (0,2), got %g", ErrBadConfig, c.Beta)
		}
	default:
		return fmt.Errorf("%w: unknown scheme kind %d", ErrBadConfig, int(c.Kind))
	}
	if c.Workers < 0 {
		return fmt.Errorf("%w: negative worker count", ErrBadConfig)
	}
	return nil
}

// LoadView exposes the current load vector of a process. Exactly one of the
// fields is non-nil; both are read-only views that are invalidated by the
// next Step.
type LoadView struct {
	Int   []int64
	Float []float64
}

// Process is the common interface of all balancing engines (continuous,
// discrete, cumulative baseline). Implementations are not safe for
// concurrent use; a Process is driven by one goroutine (internally it may
// parallelize a step).
type Process interface {
	// Step executes one synchronous round.
	Step()
	// Round returns the number of completed rounds.
	Round() int
	// Kind returns the current scheme order (hybrid runs mutate it).
	Kind() Kind
	// SetKind switches the scheme order for subsequent rounds; switching to
	// SOS (re)starts it with an FOS round, mirroring the scheme definition.
	SetKind(Kind)
	// Operator returns the diffusion operator the process runs on.
	Operator() *spectral.Operator
	// Loads returns the current load vector.
	Loads() LoadView
	// MinTransient returns the smallest transient load x̆_i(t) observed in
	// any completed round (and +Inf-equivalent before the first round; see
	// implementations). Section V.
	MinTransient() float64
	// NegativeTransientRounds returns the number of completed rounds in
	// which some node's transient load was negative.
	NegativeTransientRounds() int
}

// Injector is implemented by processes that accept external load injection
// between rounds — the hook the dynamic-workload subsystem drives. Inject
// adds deltas[i] to node i's load; it is not a round: the round counter,
// the scheme's flow memory and the rounding streams are untouched, so a
// checkpoint taken at a round boundary resumes bit-identically as long as
// the caller replays the same injections (which workload mutators, being
// pure functions of (seed, round, loads), do).
type Injector interface {
	// Inject applies the per-node load deltas; len(deltas) must equal the
	// node count.
	Inject(deltas []int64) error
}

// NonNegativeGuarantor is implemented by processes that can certify whether
// their current scheme preserves non-negativity of the load vector — the
// capability gate for the runtime non-negativity invariant
// (internal/invariants). FOS applies the entrywise non-negative M, so
// x ≥ 0 implies Mx ≥ 0; SOS legitimately overshoots into negative loads
// (Section V — the negative-load experiments depend on it), so the
// invariant is only asserted when the process guarantees it AND the vector
// was non-negative before the step. The answer may change mid-run (hybrid
// switching), so drivers query it every round.
type NonNegativeGuarantor interface {
	// GuaranteesNonNegative reports whether the next Step preserves a
	// non-negative load vector.
	GuaranteesNonNegative() bool
}

// Retargeter is implemented by processes that can pick up a mid-run change
// of their diffusion operator — the hook the environment-dynamics subsystem
// drives: when processor speeds change, the driver reweights the operator
// in place (spectral.Operator.Reweight) and calls Retarget so the engine
// refreshes its operator-derived caches. Retarget is not a round: it
// preserves the load vector, the scheme's flow memory, the round counter
// and the rounding streams, so a checkpoint taken at a round boundary
// resumes bit-identically as long as the caller replays the same speed
// trajectory (which envdyn dynamics, being pure functions of (seed, round),
// do). Passing a different operator instance is allowed when it covers the
// same graph shape (node and arc counts).
type Retargeter interface {
	// Retarget installs op as the process's diffusion operator for
	// subsequent rounds.
	Retarget(op *spectral.Operator) error
}

// BetaSetter is implemented by processes whose second-order parameter β can
// be re-optimized mid-run — the hook the β re-optimization policy drives:
// after a large speed event moves the operator's spectrum, the driver
// re-runs the power iteration on the reweighted operator and installs the
// new β_opt in place. SetBeta is not a round: loads, SOS flow memory, the
// round counter and the rounding streams are untouched (β only changes how
// subsequent flows combine the memory with the gradient), so a checkpoint
// taken at a round boundary resumes bit-identically as long as the caller
// replays the same β trajectory — which a re-optimization driven by the
// deterministic speed trajectory does.
type BetaSetter interface {
	// SetBeta installs β ∈ (0, 2) for subsequent rounds. FOS processes
	// accept it too (β is stored for a later switch to SOS).
	SetBeta(beta float64) error
}

// InFlightReporter is implemented by processes whose transport can hold
// load in flight between rounds — the actor runtime's bounded-staleness
// mode, where flux debited from a sender may not be credited to the
// receiver until a later round. Conservation for such processes is
// Σ loads + InFlightLoad == const at every round boundary (the runtime
// invariant checker adds the in-flight term to its baseline comparison),
// and InFlightLoad == 0 at quiescence points — barrier-mode round
// boundaries, or after the staleness window drains.
type InFlightReporter interface {
	// InFlightLoad returns the total load currently held by the transport:
	// debited from senders, not yet credited to receivers.
	InFlightLoad() int64
}

// Sharded is implemented by processes that run on a shard.Layout — the hook
// drivers use to route operator-wide work (reweight validation, invariant
// column sums, conservation reductions) through the same partition the
// engine steps on, instead of a second single-threaded pass over all arcs.
type Sharded interface {
	// ShardLayout returns the layout the process's step path runs on.
	ShardLayout() *shard.Layout
	// StepWorkers returns the configured per-step worker bound.
	StepWorkers() int
}

// layoutFor resolves a validated Config's shard layout: the shared one when
// the caller supplied it, otherwise a fresh partition for the requested
// worker count.
func layoutFor(cfg Config) *shard.Layout {
	if cfg.Layout != nil {
		return cfg.Layout
	}
	return shard.ForWorkers(cfg.Op.Graph(), cfg.Workers)
}

// betaCheck validates the common SetBeta precondition.
func betaCheck(beta float64) error {
	if beta <= 0 || beta >= 2 {
		return fmt.Errorf("%w: SetBeta needs beta in (0,2), got %g", ErrBadConfig, beta)
	}
	return nil
}

// retargetCheck validates the common Retarget preconditions.
func retargetCheck(op *spectral.Operator, nodes, arcs int) error {
	if op == nil {
		return fmt.Errorf("%w: Retarget: nil operator", ErrBadConfig)
	}
	if !op.ShapeMatches(nodes, arcs) {
		return fmt.Errorf("%w: Retarget: operator shape %d nodes/%d arcs does not match process %d/%d",
			ErrBadConfig, op.Graph().NumNodes(), op.Graph().NumArcs(), nodes, arcs)
	}
	return nil
}

// injectCheck validates the common Inject preconditions on the integer
// loads x before anything is written: one delta per node, and every node's
// load and the total load still inside int64 afterwards. An overflowing
// injection would otherwise wrap the loads silently.
func injectCheck(x, deltas []int64) error {
	if len(deltas) != len(x) {
		return fmt.Errorf("%w: %d deltas for %d nodes", ErrBadConfig, len(deltas), len(x))
	}
	var lo uint64
	var hi int64 // Σ(x_i + δ_i) = hi·2⁶⁴ + lo, exact for any node count
	for i, dv := range deltas {
		v := x[i] + dv
		if dv > 0 && v < x[i] || dv < 0 && v > x[i] {
			return fmt.Errorf("%w: injecting %d at node %d overflows int64 loads", ErrBadConfig, dv, i)
		}
		var carry uint64
		lo, carry = bits.Add64(lo, uint64(v), 0)
		hi += int64(carry) + v>>63
	}
	if hi != int64(lo)>>63 {
		return fmt.Errorf("%w: injection overflows the int64 total load", ErrBadConfig)
	}
	return nil
}

// graphOf is a small helper used across the engine implementations.
func graphOf(op *spectral.Operator) *graph.Graph { return op.Graph() }

// speedsOf is a small helper used across the engine implementations.
func speedsOf(op *spectral.Operator) *hetero.Speeds { return op.Speeds() }
