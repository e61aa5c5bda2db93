// Package diffusionlb is a library for discrete diffusion load balancing in
// homogeneous and heterogeneous networks, reproducing Akbari, Berenbrink,
// Elsässer and Kaaser, "Discrete Load Balancing in Heterogeneous Networks
// with a Focus on Second-Order Diffusion" (ICDCS 2015, arXiv:1412.7018).
//
// The package is a facade over the internal implementation and is the
// intended import for applications; it re-exports:
//
//   - graph construction (tori, hypercubes, random regular graphs via the
//     configuration model, random geometric graphs, and classic families),
//   - processor speeds for the heterogeneous model,
//   - diffusion operators with their spectral data (λ, β_opt),
//   - first- and second-order schemes (FOS/SOS), continuous and discrete,
//     with the paper's randomized rounding and three baseline rounders,
//   - hybrid SOS→FOS switching policies,
//   - the simulation runner, metrics and series recording, and
//   - torus load-field visualization.
//
// # Quick start
//
//	g, _ := diffusionlb.Torus2D(100, 100)
//	sys, _ := diffusionlb.NewSystem(g, nil)
//	x0, _ := diffusionlb.PointLoad(g.NumNodes(), 1000*int64(g.NumNodes()), 0)
//	proc, _ := sys.NewDiscrete(diffusionlb.SOS, diffusionlb.RandomizedRounder{}, 1, x0)
//	runner := &diffusionlb.Runner{Proc: proc}
//	result, _ := runner.Run(1000)
//	result.Series.WriteTable(os.Stdout, 20)
package diffusionlb

import (
	"fmt"

	"diffusionlb/internal/actor"
	"diffusionlb/internal/baselines"
	"diffusionlb/internal/core"
	"diffusionlb/internal/envdyn"
	"diffusionlb/internal/graph"
	"diffusionlb/internal/hetero"
	"diffusionlb/internal/metrics"
	"diffusionlb/internal/scenario"
	"diffusionlb/internal/sim"
	"diffusionlb/internal/spectral"
	"diffusionlb/internal/viz"
	"diffusionlb/internal/workload"
)

// --- graphs ---

// Graph is an immutable simple undirected graph in CSR form.
type Graph = graph.Graph

// Point is a 2-D coordinate (random geometric graphs).
type Point = graph.Point

// GeometricOptions configures RandomGeometric.
type GeometricOptions = graph.GeometricOptions

// Graph constructors (see package graph for details).
var (
	// Torus2D builds the w×h torus, the paper's primary topology.
	Torus2D = graph.Torus2D
	// Torus builds a d-dimensional torus with the given side lengths.
	Torus = graph.Torus
	// Hypercube builds the 2^dim-node hypercube.
	Hypercube = graph.Hypercube
	// RandomRegular builds a random d-regular graph with the configuration
	// model [22].
	RandomRegular = graph.RandomRegular
	// RandomGeometric builds the paper's random geometric graph with
	// component patch-up.
	RandomGeometric = graph.RandomGeometric
	// Cycle, Path, Complete, Star, Grid2D, Lollipop and ErdosRenyi are
	// auxiliary families for tests and experiments.
	Cycle      = graph.Cycle
	Path       = graph.Path
	Complete   = graph.Complete
	Star       = graph.Star
	Grid2D     = graph.Grid2D
	Lollipop   = graph.Lollipop
	ErdosRenyi = graph.ErdosRenyi
	// NewGraphBuilder accumulates explicit edge lists.
	NewGraphBuilder = graph.NewBuilder
)

// --- speeds (heterogeneous model) ---

// Speeds is a per-node processor speed assignment (min speed 1).
type Speeds = hetero.Speeds

// Speed-vector constructors.
var (
	// HomogeneousSpeeds is the all-ones assignment.
	HomogeneousSpeeds = hetero.Homogeneous
	// NewSpeeds validates an explicit speed vector.
	NewSpeeds = hetero.New
	// TwoClassSpeeds, UniformRangeSpeeds, PowerLawSpeeds and
	// SingleFastSpeed generate common heterogeneity profiles.
	TwoClassSpeeds     = hetero.TwoClass
	UniformRangeSpeeds = hetero.UniformRange
	PowerLawSpeeds     = hetero.PowerLaw
	SingleFastSpeed    = hetero.SingleFast
)

// --- diffusion operator and spectral data ---

// Operator is the diffusion matrix M = I − L S⁻¹ in implicit form.
type Operator = spectral.Operator

// AlphaRule determines the per-edge diffusion coefficient α_ij.
type AlphaRule = spectral.AlphaRule

// MaxDegreeAlpha is the paper's default α_ij = 1/(max(d_i,d_j)+1).
type MaxDegreeAlpha = spectral.MaxDegreeAlpha

// PowerOptions tunes the eigenvalue power iteration.
type PowerOptions = spectral.PowerOptions

// BetaOpt returns β_opt = 2/(1+√(1−λ²)).
var BetaOpt = spectral.BetaOpt

// System bundles a graph with its diffusion operator, second eigenvalue
// and optimal β — the usual starting point for building processes.
type System struct {
	op     *spectral.Operator
	lambda float64
	beta   float64
}

// NewSystem builds the diffusion operator for g with optional speeds (nil
// means homogeneous) using the paper's default α rule, computes the second
// eigenvalue λ and β_opt, and returns the bundle.
func NewSystem(g *Graph, speeds *Speeds) (*System, error) {
	return NewSystemAlpha(g, speeds, nil)
}

// NewSystemAlpha is NewSystem with an explicit α rule.
func NewSystemAlpha(g *Graph, speeds *Speeds, rule AlphaRule) (*System, error) {
	op, err := spectral.NewOperator(g, speeds, rule)
	if err != nil {
		return nil, err
	}
	lam, _, err := op.SecondEigenvalue(spectral.PowerOptions{})
	if err != nil {
		return nil, fmt.Errorf("diffusionlb: computing lambda: %w", err)
	}
	beta, err := spectral.BetaOpt(lam)
	if err != nil {
		return nil, err
	}
	return &System{op: op, lambda: lam, beta: beta}, nil
}

// Operator returns the underlying diffusion operator.
func (s *System) Operator() *Operator { return s.op }

// Graph returns the underlying graph.
func (s *System) Graph() *Graph { return s.op.Graph() }

// Lambda returns the second largest eigenvalue (in magnitude) of M.
func (s *System) Lambda() float64 { return s.lambda }

// Beta returns β_opt for this system.
func (s *System) Beta() float64 { return s.beta }

// NewDiscrete builds a discrete (atomic-token) process of the given kind
// with the paper's β_opt, a rounding scheme (nil = randomized rounding of
// Section III-B) and a seed for the rounding streams.
func (s *System) NewDiscrete(kind Kind, rounder Rounder, seed uint64, initial []int64) (*Discrete, error) {
	return core.NewDiscrete(core.Config{Op: s.op, Kind: kind, Beta: s.beta}, rounder, seed, initial)
}

// NewContinuous builds the idealized (divisible-load) process.
func (s *System) NewContinuous(kind Kind, initial []float64) (*Continuous, error) {
	return core.NewContinuous(core.Config{Op: s.op, Kind: kind, Beta: s.beta}, initial)
}

// NewCumulative builds the stateful cumulative-flow baseline of [2].
func (s *System) NewCumulative(kind Kind, initial []int64) (*CumulativeDiscrete, error) {
	return core.NewCumulativeDiscrete(core.Config{Op: s.op, Kind: kind, Beta: s.beta}, initial)
}

// NewActor builds the message-passing runtime (internal/actor): K shard
// actors exchanging boundary state over channels, in barrier mode
// (opts.Stale == 0, bit-identical to NewDiscrete) or bounded-staleness
// mode, with the paper's β_opt.
func (s *System) NewActor(kind Kind, rounder Rounder, seed uint64, initial []int64, opts ActorOptions) (*ActorRuntime, error) {
	return actor.New(s.op, kind, s.beta, rounder, seed, initial, opts)
}

// --- schemes and processes ---

// Kind selects the diffusion scheme order.
type Kind = core.Kind

// Scheme kinds.
const (
	// FOS is the first order scheme.
	FOS = core.FOS
	// SOS is the second order scheme.
	SOS = core.SOS
)

// Config configures a process explicitly (alternative to System helpers).
type Config = core.Config

// Process is the common interface of all balancing engines.
type Process = core.Process

// ActorRuntime is the shard-actor message-passing runtime.
type ActorRuntime = actor.Runtime

// ActorOptions configures the actor runtime (actor count, staleness bound).
type ActorOptions = actor.Options

// ActorFromSpec parses an "actor:K[,stale=S]" runtime spec.
var ActorFromSpec = actor.FromSpec

// LoadView exposes a process's load vector (Int or Float).
type LoadView = core.LoadView

// Continuous is the idealized process.
type Continuous = core.Continuous

// Discrete is the atomic-token process.
type Discrete = core.Discrete

// CumulativeDiscrete is the [2]-style stateful baseline.
type CumulativeDiscrete = core.CumulativeDiscrete

// Checkpoint is a resumable snapshot of a Discrete process; combined with
// the counter-based rounding streams it makes split runs bit-identical to
// uninterrupted ones.
type Checkpoint = core.Checkpoint

// Process constructors for explicit configs.
var (
	NewContinuous         = core.NewContinuous
	NewDiscrete           = core.NewDiscrete
	NewCumulativeDiscrete = core.NewCumulativeDiscrete
)

// --- rounding schemes ---

// Rounder converts scheduled flows to integer token counts.
type Rounder = core.Rounder

// RandomizedRounder is the paper's randomized rounding (Section III-B).
type RandomizedRounder = core.RandomizedRounder

// FloorRounder always rounds down.
type FloorRounder = core.FloorRounder

// NearestRounder rounds to the nearest integer (Theorem 8 setting).
type NearestRounder = core.NearestRounder

// BernoulliRounder rounds each edge up independently (the [15] baseline).
type BernoulliRounder = core.BernoulliRounder

// RounderByName resolves "randomized", "floor", "nearest" or "bernoulli".
var RounderByName = core.RounderByName

// --- hybrid switching ---

// AdaptivePolicy decides after every round which scheme a hybrid run uses
// next. The paper's one-way rules below fire SOS→FOS at most once;
// HysteresisBand also re-arms SOS when a workload burst re-inflates the
// signal. Attach one as Runner.Adaptive, or drive a bare loop with
// RunAdaptive.
type AdaptivePolicy = core.AdaptivePolicy

// SwitchAtRound switches SOS→FOS after a fixed round.
type SwitchAtRound = core.SwitchAtRound

// SwitchOnLocalDiff switches SOS→FOS when φ_local drops to a threshold —
// the locally computable signal the paper recommends.
type SwitchOnLocalDiff = core.SwitchOnLocalDiff

// SwitchOnPotentialStall switches SOS→FOS when the potential stops
// improving.
type SwitchOnPotentialStall = core.SwitchOnPotentialStall

// NeverSwitch never switches.
type NeverSwitch = core.NeverSwitch

// HysteresisBand is the re-arming controller over φ_local with a
// [Lo, Hi] hysteresis band and a switch cooldown.
type HysteresisBand = core.HysteresisBand

// SwitchEvent records one scheme switch of a hybrid/adaptive run.
type SwitchEvent = core.SwitchEvent

// Driving helpers.
var (
	// Run drives a process for a fixed number of rounds.
	Run = core.Run
	// RunUntil drives a process until a predicate fires.
	RunUntil = core.RunUntil
	// RunAdaptive drives a process under a policy, returning the switch
	// history.
	RunAdaptive = core.RunAdaptive
	// ConvergedWithin builds a discrepancy-based stop predicate.
	ConvergedWithin = core.ConvergedWithin
	// ProportionallyConvergedWithin is the heterogeneous analogue.
	ProportionallyConvergedWithin = core.ProportionallyConvergedWithin
	// PolicyFromSpec parses the textual policy syntax shared with the
	// lbsim CLI and the sweep engine, e.g. "adaptive:16:64:100".
	PolicyFromSpec = core.PolicyFromSpec
	// ApplyAdaptive evaluates a policy against a process and actuates the
	// switch it requests.
	ApplyAdaptive = core.ApplyAdaptive
	// ResetPolicy clears a stateful policy's per-run state for reuse.
	ResetPolicy = core.ResetPolicy
)

// --- simulation harness ---

// Runner drives a process and records metrics.
type Runner = sim.Runner

// RunResult is the outcome of a Runner run.
type RunResult = sim.Result

// Series is a recorded table of per-round metrics.
type Series = sim.Series

// Metric samples one scalar per recorded round.
type Metric = sim.Metric

// Standard metrics and helpers.
var (
	NewSeries           = sim.NewSeries
	MetricFunc          = sim.MetricFunc
	MetricMaxMinusAvg   = sim.MaxMinusAvg
	MetricMaxLocalDiff  = sim.MaxLocalDiff
	MetricPotentialPerN = sim.PotentialPerN
	MetricDiscrepancy   = sim.Discrepancy
	MetricMinLoad       = sim.MinLoad
	MetricMinTransient  = sim.MinTransient
	MetricTotalLoad     = sim.TotalLoad
	MetricDeviationFrom = sim.DeviationFrom
	// MetricHeteroMaxMinusTarget is the speed-proportional φ_global.
	MetricHeteroMaxMinusTarget = sim.HeteroMaxMinusTarget
	DefaultMetrics             = sim.DefaultMetrics
)

// --- dynamic workloads ---

// WorkloadMutator produces deterministic per-node load deltas injected
// after each round (churn, hotspot bursts, arrivals); set it as the
// Runner's Workload field.
type WorkloadMutator = workload.Mutator

// WorkloadLoads is the read-only load view a mutator inspects.
type WorkloadLoads = workload.Loads

// IntWorkloadLoads and FloatWorkloadLoads adapt raw load slices to the
// WorkloadLoads view for callers driving mutators by hand.
type (
	IntWorkloadLoads   = workload.IntLoads
	FloatWorkloadLoads = workload.SliceLoads
)

// Injector is implemented by processes that accept external load injection
// between rounds (Discrete, Continuous and CumulativeDiscrete all do).
type Injector = core.Injector

// Workload constructors and helpers.
var (
	// WorkloadFromSpec parses the textual workload syntax shared with the
	// lbsim CLI and the sweep engine, e.g. "burst:100:50000+poisson:0.5".
	WorkloadFromSpec = workload.FromSpec
	// NewBurst, NewHotspot, NewPoisson, NewChurn and NewAdversary build
	// the individual dynamic-load patterns.
	NewBurst     = workload.NewBurst
	NewHotspot   = workload.NewHotspot
	NewPoisson   = workload.NewPoisson
	NewChurn     = workload.NewChurn
	NewAdversary = workload.NewAdversary
	// MetricPeakDiscrepancy tracks the running maximum discrepancy (peak
	// imbalance under churn).
	MetricPeakDiscrepancy = sim.PeakDiscrepancy
	// MetricInjectedLoad samples the cumulative net injected load.
	MetricInjectedLoad = sim.InjectedLoad
	// RoundsToRecover measures rounds-to-rebalance after a burst (or, on
	// the ideal_drift column, rounds-to-re-track after a speed event) from
	// a recorded series.
	RoundsToRecover = sim.RoundsToRecover
	// DynamicMetrics is the recovery metric trio dynamic runs record
	// (discrepancy, peak discrepancy, total load).
	DynamicMetrics = sim.DynamicMetrics
)

// WorkloadCompose applies several mutators in order, summing their deltas —
// the programmatic counterpart of joining specs with "+".
type WorkloadCompose = workload.Compose

// --- time-varying environments ---

// EnvironmentDynamics produces deterministic per-node speed multipliers per
// round (throttle/boost events, drain/restore ramps, jitter); set it as the
// Runner's Environment field and the operator is reweighted in place
// whenever the effective speeds change.
type EnvironmentDynamics = envdyn.Dynamics

// EnvThrottle, EnvDrain and EnvJitter are the individual speed dynamics;
// EnvCompose multiplies several together.
type (
	EnvThrottle = envdyn.Throttle
	EnvDrain    = envdyn.Drain
	EnvJitter   = envdyn.Jitter
	EnvCompose  = envdyn.Compose
)

// EnvApplier evaluates dynamics against base speeds round by round for
// callers driving processes by hand (the Runner owns one internally).
type EnvApplier = envdyn.Applier

// Retargeter is implemented by processes that pick up a mid-run operator
// change (all three engines do); the environment subsystem drives it.
type Retargeter = core.Retargeter

// SpeedEvent records one effective speed change of a dynamic-environment
// run (see RunResult.SpeedEvents).
type SpeedEvent = sim.SpeedEvent

// Environment constructors and helpers.
var (
	// EnvironmentFromSpec parses the textual environment syntax shared with
	// the lbsim CLI and the sweep engine, e.g.
	// "throttle:at=100,frac=0.25,factor=0.25+jitter:sigma=0.05".
	EnvironmentFromSpec = envdyn.FromSpec
	// NewEnvApplier builds an applier over base speeds.
	NewEnvApplier = envdyn.NewApplier
	// MetricIdealLoadDrift records max|x_i − x̄_i| against the operator's
	// current (possibly reweighted) speeds.
	MetricIdealLoadDrift = sim.IdealLoadDrift
	// MetricSpeedSum records Σ s_i of the current speeds.
	MetricSpeedSum = sim.SpeedSum
	// EnvironmentMetrics is the drift/speed-sum pair dynamic-environment
	// runs record.
	EnvironmentMetrics = sim.EnvironmentMetrics
)

// --- coupled scenarios (environment + workload on one timeline) ---

// Scenario is one coupled timeline of speed and load events — drains that
// migrate load away as capacity ramps out, correlated throttle+burst events
// aimed at one region, jittered cascades; set it as the Runner's Scenario
// field.
type Scenario = scenario.Scenario

// The concrete coupled events a timeline is built from; custom events
// implement scenario.Event and compose with ScenarioTimeline.
type (
	// ScenarioDrain is migration-on-leave: speed ramps out while the load
	// sheds to neighbors (and back on restore).
	ScenarioDrain = scenario.Drain
	// ScenarioCorrelated aims a throttle and a burst at the same node set.
	ScenarioCorrelated = scenario.Correlated
	// ScenarioCascade chains correlated events with counter-stream jitter.
	ScenarioCascade = scenario.Cascade
	// ScenarioTimeline composes several events into one timeline.
	ScenarioTimeline = scenario.Timeline
)

// CoupledEvent records one fired round of a scenario (see
// RunResult.ScenarioEvents).
type CoupledEvent = sim.ScenarioEvent

// BetaReopt configures the β re-optimization policy (Runner.BetaReopt):
// after the total speed drifts beyond the threshold, the power iteration is
// re-run on the reweighted operator and the new β_opt installed in place.
type BetaReopt = sim.BetaReopt

// BetaEvent records one β re-optimization (see RunResult.BetaEvents).
type BetaEvent = sim.BetaEvent

// BetaSetter is implemented by processes whose β can be re-optimized
// mid-run (all three engines do).
type BetaSetter = core.BetaSetter

// Scenario constructors and helpers.
var (
	// ScenarioFromSpec parses the textual scenario syntax shared with the
	// lbsim CLI and the sweep engine, e.g.
	// "drain:at=100,frac=0.125,ramp=8+correlated:at=200,frac=0.25,factor=0.25,load=50000".
	ScenarioFromSpec = scenario.FromSpec
	// NewScenario bundles events into a scenario.
	NewScenario = scenario.New
	// ScenarioMetrics is the coupled metric set scenario runs record (the
	// dynamic recovery trio plus the environment drift pair).
	ScenarioMetrics = sim.ScenarioMetrics
)

// --- initial load distributions ---

// Initial load distributions (Section VI).
var (
	// PointLoad puts all tokens on one node (the paper's default).
	PointLoad = metrics.PointLoad
	// UniformRandomLoad spreads tokens uniformly at random.
	UniformRandomLoad = metrics.UniformRandomLoad
	// BalancedPlusSpike is the Section V geometry: base load plus a spike.
	BalancedPlusSpike = metrics.BalancedPlusSpike
	// ProportionalLoad matches loads to speeds exactly.
	ProportionalLoad = metrics.ProportionalLoad
)

// --- non-diffusion baselines (Section II related work) ---

// MatchingBalancer is the random-matchings balancer of Ghosh and
// Muthukrishnan [17].
type MatchingBalancer = baselines.MatchingBalancer

// RandomWalkBalancer is the simplified random-walk balancer of Elsässer
// and Sauerwald [13].
type RandomWalkBalancer = baselines.RandomWalkBalancer

// Baseline constructors.
var (
	NewMatchingBalancer   = baselines.NewMatchingBalancer
	NewRandomWalkBalancer = baselines.NewRandomWalkBalancer
)

// MetricTokensMoved samples cumulative token-hops (communication cost).
var MetricTokensMoved = sim.TokensMoved

// --- visualization ---

// Frame is a rendered grayscale view of a torus load field.
type Frame = viz.Frame

// Shading selects the load-to-gray mapping.
type Shading = viz.Shading

// Shading modes.
const (
	// ShadeAdaptive normalizes per frame (Figures 9/10).
	ShadeAdaptive = viz.Adaptive
	// ShadeThreshold saturates at a fixed token distance (Figure 11).
	ShadeThreshold = viz.Threshold
)

// RenderInt shades an integer load field of a w×h torus.
func RenderInt(x []int64, w, h int, mode Shading, limit float64) (*Frame, error) {
	return viz.Render(x, w, h, mode, limit)
}

// RenderFloat shades a continuous load field of a w×h torus.
func RenderFloat(x []float64, w, h int, mode Shading, limit float64) (*Frame, error) {
	return viz.Render(x, w, h, mode, limit)
}
