package sim

import (
	"errors"
	"fmt"
	"math"
	"reflect"

	"diffusionlb/internal/core"
	"diffusionlb/internal/envdyn"
	"diffusionlb/internal/hetero"
	"diffusionlb/internal/invariants"
	"diffusionlb/internal/metrics"
	"diffusionlb/internal/scenario"
	"diffusionlb/internal/spectral"
	"diffusionlb/internal/telemetry"
	"diffusionlb/internal/workload"
)

// Metric samples one scalar per recorded round from a running process.
type Metric interface {
	// Name is the column name in the recorded series.
	Name() string
	// Compute samples the metric from the process.
	Compute(p core.Process) float64
}

// metricFunc adapts a closure into a Metric.
type metricFunc struct {
	name string
	fn   func(core.Process) float64
}

func (m metricFunc) Name() string                   { return m.name }
func (m metricFunc) Compute(p core.Process) float64 { return m.fn(p) }

// MetricFunc builds a Metric from a name and a closure.
func MetricFunc(name string, fn func(core.Process) float64) Metric {
	return metricFunc{name: name, fn: fn}
}

// MaxMinusAvg is φ_global = max load − average load (metric 2, Section VI).
func MaxMinusAvg() Metric { return projection{name: "max_minus_avg", q: qMaxMinusAvg} }

// MaxLocalDiff is φ_local = max load difference across an edge (metric 1).
func MaxLocalDiff() Metric { return projection{name: "max_local_diff", q: qMaxLocalDiff} }

// PotentialPerN is φ_t/n, the 2-norm potential of [19] divided by n as the
// paper plots it (metric 3).
func PotentialPerN() Metric { return projection{name: "potential_per_n", q: qPotentialPerN} }

// Discrepancy is max − min load.
func Discrepancy() Metric { return projection{name: "discrepancy", q: qDiscrepancy} }

// MinLoad is the minimum end-of-round load (negative-load diagnostics).
func MinLoad() Metric { return projection{name: "min_load", q: qMinLoad} }

// MinTransient is the running minimum transient load x̆ (Section V). Before
// the first round the process reports the +Inf sentinel; mapping it to 0
// would make the round-0 row indistinguishable from a true minimum
// transient of zero in negative-load plots, so the metric reports the
// current minimum load instead — the value the running minimum starts from.
func MinTransient() Metric { return projection{name: "min_transient", q: qMinTransient} }

// TotalLoad is Σ x_i, for conservation plots (Figure 6, right).
func TotalLoad() Metric { return projection{name: "total_load", q: qTotalLoad} }

// HeteroMaxMinusTarget is the speed-proportional φ_global.
func HeteroMaxMinusTarget() Metric { return projection{name: "max_minus_target", q: qMaxMinusTarget} }

// DeviationFrom records ‖x_P − x_ref‖_∞ against a reference process that
// the caller steps in lockstep (e.g. the idealized continuous run).
func DeviationFrom(ref core.Process, name string) Metric {
	return MetricFunc(name, func(p core.Process) float64 {
		a, b := p.Loads(), ref.Loads()
		var dev float64
		var err error
		switch {
		case a.Int != nil && b.Float != nil:
			dev, err = metrics.DeviationInf(a.Int, b.Float)
		case a.Int != nil && b.Int != nil:
			dev, err = metrics.DeviationInf(a.Int, b.Int)
		case a.Float != nil && b.Float != nil:
			dev, err = metrics.DeviationInf(a.Float, b.Float)
		default:
			dev, err = metrics.DeviationInf(a.Float, b.Int)
		}
		if err != nil {
			return math.NaN()
		}
		return dev
	})
}

// PeakDiscrepancy records the running maximum discrepancy over the recorded
// rounds — the headline "how bad did it get" number for dynamic workloads,
// where the plain discrepancy dips and spikes with every burst. The running
// maximum is taken over sampled rounds only, so with Every > 1 a spike
// between two recording points can be missed; record every round when the
// exact peak matters.
//
// Unlike the other Metric constructors this one carries state (the running
// peak), so a value is good for a single run: build a fresh PeakDiscrepancy
// per Runner, never share one metrics slice across runs.
func PeakDiscrepancy() Metric {
	peak := math.Inf(-1)
	return projection{name: "peak_discrepancy", q: qPeakDiscrepancy, peak: &peak}
}

// InjectedLoad samples the cumulative net externally injected load
// (arrivals − departures) of processes exposing Injected(); it reports 0
// for processes without injection accounting.
func InjectedLoad() Metric {
	return MetricFunc("injected_load", func(p core.Process) float64 {
		if ip, ok := p.(interface{ Injected() (int64, int64) }); ok {
			added, removed := ip.Injected()
			return float64(added - removed)
		}
		return 0
	})
}

// RoundsToRecover scans a recorded series for the first round at or after
// fromRound where the named column is at or below threshold, and returns
// how many rounds past fromRound that took (0 if already recovered at
// fromRound's row). It returns -1 when the series never recovers — the
// "rounds-to-rebalance after a burst" recovery metric, and on the
// ideal_drift column the rounds to re-track after a speed event. The
// resolution is the recording cadence of the series.
func RoundsToRecover(s *Series, col string, fromRound int, threshold float64) (int, error) {
	vals, err := s.Column(col)
	if err != nil {
		return -1, err
	}
	for i, v := range vals {
		if s.Round(i) >= fromRound && v <= threshold {
			return s.Round(i) - fromRound, nil
		}
	}
	return -1, nil
}

// IdealLoadDrift records max_i |x_i − x̄_i| against the proportional
// targets of the operator's *current* speeds — the re-tracking signal for
// time-varying environments: a speed event moves x̄, so the drift jumps the
// round the operator is reweighted without a single token having moved, and
// the recorded column shows how fast the scheme chases the new target.
func IdealLoadDrift() Metric { return projection{name: "ideal_drift", q: qIdealDrift} }

// SpeedSum records Σ s_i of the operator's current speeds, so recordings
// show the environment trajectory alongside the load metrics (it only moves
// when the environment does).
func SpeedSum() Metric {
	return MetricFunc("speed_sum", func(p core.Process) float64 {
		return p.Operator().Speeds().Sum()
	})
}

// EnvironmentMetrics is the pair every dynamic-environment run records on
// top of its base metrics: the ideal-load drift and the total speed. Both
// the sweep engine and the lbsim free-form mode append exactly this set
// when an environment is attached.
func EnvironmentMetrics() []Metric {
	return []Metric{IdealLoadDrift(), SpeedSum()}
}

// ScenarioMetrics is the set every coupled-scenario run records on top of
// its base metrics: the dynamic-workload recovery trio plus the
// environment drift pair — a scenario moves both the loads and the target.
// Like DynamicMetrics, the returned slice is good for one run.
func ScenarioMetrics() []Metric {
	return append(DynamicMetrics(), EnvironmentMetrics()...)
}

// TokensMoved samples the cumulative token-hop counter of processes that
// expose Traffic() (the discrete engines and the baselines); it reports 0
// for processes without traffic accounting.
func TokensMoved() Metric {
	return MetricFunc("token_hops", func(p core.Process) float64 {
		if tp, ok := p.(interface{ Traffic() (int64, int64) }); ok {
			tok, _ := tp.Traffic()
			return float64(tok)
		}
		return 0
	})
}

// DefaultMetrics is the trio the paper plots in Figure 1: max−avg, max
// local difference, potential/n.
func DefaultMetrics() []Metric {
	return []Metric{MaxMinusAvg(), MaxLocalDiff(), PotentialPerN()}
}

// DynamicMetrics is the recovery trio every dynamic-workload run records on
// top of its base metrics: the instantaneous discrepancy, its running peak,
// and the total load (which only the workload changes). Both the sweep
// engine and the lbsim free-form mode append exactly this set when a
// workload is attached. Like PeakDiscrepancy, the returned slice is good
// for one run.
func DynamicMetrics() []Metric {
	return []Metric{Discrepancy(), PeakDiscrepancy(), TotalLoad()}
}

// MetricsFor is the column set a free-form lbsim run and a sweep cell
// record: the default trio; the speed-proportional φ_global unless every
// speed is 1; the recovery trio with a workload; the drift pair with an
// environment; and with a scenario, which moves both loads and speeds, the
// drift pair plus the recovery trio unless the workload already added it.
// Nil arguments mean "not attached". Like DynamicMetrics, the returned
// slice is good for one run.
func MetricsFor(sp *hetero.Speeds, wl workload.Mutator, env envdyn.Dynamics, sc *scenario.Scenario) []Metric {
	ms := DefaultMetrics()
	if !sp.IsHomogeneous() {
		ms = append(ms, HeteroMaxMinusTarget())
	}
	if wl != nil {
		ms = append(ms, DynamicMetrics()...)
	}
	if env != nil {
		ms = append(ms, EnvironmentMetrics()...)
	}
	if sc != nil {
		if wl == nil {
			ms = append(ms, ScenarioMetrics()...)
		} else {
			ms = append(ms, EnvironmentMetrics()...)
		}
	}
	return ms
}

// Runner drives a process and records metrics.
type Runner struct {
	// Proc is the process to drive. Required.
	Proc core.Process
	// Metrics are the columns to record; DefaultMetrics() if nil.
	Metrics []Metric
	// Every is the recording cadence in rounds (default 1).
	Every int
	// Adaptive optionally drives the scheme kind every round: one of the
	// paper's one-way SOS→FOS rules (core.SwitchAtRound and friends), the
	// re-arming core.HysteresisBand, or a custom controller. It is
	// evaluated after workload injection, so the controller sees
	// post-burst loads the same round they land. Stateful policies are
	// tied to one trajectory: build a fresh one per run (e.g. via
	// core.PolicyFromSpec) or call core.ResetPolicy between runs.
	Adaptive core.AdaptivePolicy
	// Lockstep processes are stepped once per round before sampling; use
	// for reference processes consumed by DeviationFrom.
	Lockstep []core.Process
	// Workload, when set, mutates the load vector after every round
	// (dynamic arrivals, hotspot bursts, churn). Proc and every Lockstep
	// process must implement core.Injector — the same deltas go to all of
	// them, so reference trajectories see the same external load.
	Workload workload.Mutator
	// Environment, when set, drives time-varying processor speeds
	// (throttle/boost events, drain/restore ramps, jitter): each round —
	// after the step, before workload injection — the dynamics are
	// evaluated against the operator's starting speeds and, when the
	// effective vector changes, the operator is reweighted in place and
	// every process retargeted. Proc and every Lockstep process must
	// implement core.Retargeter and share one *spectral.Operator, so
	// reference trajectories chase the same moving target.
	Environment envdyn.Dynamics
	// Scenario, when set, drives one coupled timeline of speed *and* load
	// events (migration-on-drain, correlated throttle+burst, cascades):
	// each round the speed half is applied exactly like an Environment
	// (reweight + retarget) and the derived load half is injected
	// immediately after, before any Workload — one atomic unit, mirrored
	// into every Lockstep process, so reference trajectories and
	// checkpoint/restore cuts stay bit-identical. Proc and every Lockstep
	// process must implement both core.Retargeter and core.Injector (and
	// share the operator). Setting both Scenario and Environment is an
	// error: a scenario owns the speed timeline.
	Scenario *scenario.Scenario
	// BetaReopt, when set, re-optimizes the SOS β after large speed events:
	// whenever the operator's total speed has drifted beyond the threshold
	// since the last re-optimization, λ is recomputed by power iteration and
	// the new β_opt installed on Proc and every Lockstep process, which must
	// implement core.BetaSetter. A recently seen speed vector (a restore, a
	// recurring throttle) reuses its λ bit for bit from the operator's memo.
	// It composes with Environment or Scenario (without either it never
	// fires).
	BetaReopt *BetaReopt
	// OnRound, when set, is called after each round (after any lockstep
	// steps and workload injection), e.g. to dump visualization frames.
	OnRound func(round int, p core.Process)
	// Telemetry, when set, receives per-round gauges (discrepancy,
	// potential, speed sum, stale-β rounds), a round-latency histogram,
	// and lifecycle trace events. Recording is strictly write-only: the
	// run's trajectory is bit-identical with Telemetry set or nil (pinned
	// by TestTelemetryDifferentialDeterminism).
	Telemetry *telemetry.RunProbe
}

// reweight applies a speed event to p's operator, which every process
// shares, and retargets each of them onto it. It shards the O(n) diagonal
// revalidation over p's own step layout when p exposes one (core.Sharded)
// — at 2²⁰ nodes the validation scan is the entire cost of a speed event,
// since α is speed-independent and the engines read it through the
// operator view with no per-arc copying. The result is identical either
// way; only the scan parallelizes.
func reweight(p core.Process, sp *hetero.Speeds, retargeters []core.Retargeter) error {
	op := p.Operator()
	if sh, ok := p.(core.Sharded); ok {
		if err := op.ReweightPar(sp, sh.ShardLayout(), sh.StepWorkers()); err != nil {
			return err
		}
	} else if err := op.Reweight(sp); err != nil {
		return err
	}
	for _, rt := range retargeters {
		if err := rt.Retarget(op); err != nil {
			return err
		}
	}
	return nil
}

// SpeedEvent records one effective speed change of a dynamic-environment
// run.
type SpeedEvent struct {
	// Round is the completed round after which the new speeds applied.
	Round int `json:"round"`
	// Nodes is the number of nodes whose speed changed.
	Nodes int `json:"nodes"`
	// Sum is the new total speed Σ s_i.
	Sum float64 `json:"sum"`
}

// String renders the event compactly, e.g. "150:8 nodes,sum=96".
func (e SpeedEvent) String() string {
	return fmt.Sprintf("%d:%d nodes,sum=%g", e.Round, e.Nodes, e.Sum)
}

// ScenarioEvent records one fired round of a coupled scenario: the speed
// half and the load half of the same timeline, applied as one unit.
type ScenarioEvent struct {
	// Round is the completed round the event applied after.
	Round int `json:"round"`
	// Nodes is the number of nodes whose effective speed changed (0 for a
	// load-only round, e.g. a pure burst).
	Nodes int `json:"nodes"`
	// Moved is the total positive load the event relocated or injected this
	// round (migration counts each moved token once).
	Moved int64 `json:"moved"`
	// Sum is the total speed Σ s_i after the event.
	Sum float64 `json:"sum"`
}

// String renders the event compactly, e.g. "40:8 nodes,1200 moved,sum=96".
func (e ScenarioEvent) String() string {
	return fmt.Sprintf("%d:%d nodes,%d moved,sum=%g", e.Round, e.Nodes, e.Moved, e.Sum)
}

// BetaReopt configures the β re-optimization policy (Runner.BetaReopt).
type BetaReopt struct {
	// Threshold is the relative total-speed drift |Σs − Σs_last|/Σs_last
	// that triggers a re-optimization (default 0.05).
	Threshold float64
	// Cooldown is the minimum number of rounds between re-optimizations
	// (0 = none). While a qualifying drift waits out the cooldown, the run
	// is accumulating Result.StaleBetaRounds.
	Cooldown int
	// Power tunes the power iteration (zero value = spectral defaults).
	Power spectral.PowerOptions
}

// BetaReoptState drives the re-optimization trigger round by round: the
// drift baseline (total speed at the last re-opt) and the cooldown clock.
// The Runner owns one internally; manual drivers — in particular
// checkpoint resumes, which re-drive dynamics by hand exactly like the
// envdyn.Applier recipe — build their own and seed BaseSum/LastReopt from
// the original run's Result.BetaEvents, so the resumed trigger fires
// bit-identically with the uninterrupted run (Checkpoint.Beta carries the
// β value itself).
type BetaReoptState struct {
	cfg BetaReopt
	// BaseSum is the drift baseline: the total speed at the last re-opt
	// (or at the start of the run).
	BaseSum float64
	// LastReopt is the round of the last re-opt (-1 = none yet).
	LastReopt int
	// Stale counts the rounds a qualifying drift waited out the cooldown —
	// the rounds-spent-on-stale-β metric.
	Stale   int
	setters []core.BetaSetter
}

// NewBetaReoptState builds the trigger over a starting baseline and the
// processes whose β it re-optimizes.
func NewBetaReoptState(cfg BetaReopt, baseSum float64, setters ...core.BetaSetter) *BetaReoptState {
	return &BetaReoptState{cfg: cfg, BaseSum: baseSum, LastReopt: -1, setters: setters}
}

// Step evaluates the trigger after round's speed changes have been applied
// to op, installing the new β_opt on every setter when it fires. It
// returns the applied event, or nil.
func (s *BetaReoptState) Step(round int, op *spectral.Operator) (*BetaEvent, error) {
	sum := op.Speeds().Sum()
	if math.Abs(sum-s.BaseSum) <= s.cfg.threshold()*s.BaseSum {
		return nil, nil
	}
	if s.LastReopt >= 0 && round-s.LastReopt < s.cfg.Cooldown {
		s.Stale++
		return nil, nil
	}
	lam, _, err := op.SecondEigenvalue(s.cfg.Power)
	if err != nil {
		return nil, fmt.Errorf("sim: beta re-opt at round %d: %w", round, err)
	}
	beta, err := spectral.BetaOpt(lam)
	if err != nil {
		return nil, fmt.Errorf("sim: beta re-opt at round %d: %w", round, err)
	}
	for _, bs := range s.setters {
		if err := bs.SetBeta(beta); err != nil {
			return nil, fmt.Errorf("sim: beta re-opt at round %d: %w", round, err)
		}
	}
	s.BaseSum, s.LastReopt = sum, round
	return &BetaEvent{Round: round, Lambda: lam, Beta: beta, Sum: sum}, nil
}

// threshold resolves the default.
func (b *BetaReopt) threshold() float64 {
	if b.Threshold <= 0 {
		return 0.05
	}
	return b.Threshold
}

// BetaEvent records one β re-optimization.
type BetaEvent struct {
	// Round is the completed round after which the new β applied.
	Round int `json:"round"`
	// Lambda is the re-computed second eigenvalue of the current operator.
	Lambda float64 `json:"lambda"`
	// Beta is the installed β_opt.
	Beta float64 `json:"beta"`
	// Sum is the total speed the event re-baselined the drift trigger to —
	// what a checkpoint resume seeds BetaReoptState.BaseSum with.
	Sum float64 `json:"sum"`
}

// String renders the event compactly, e.g. "40:lambda=0.986,beta=1.72".
func (e BetaEvent) String() string {
	return fmt.Sprintf("%d:lambda=%.6g,beta=%.6g", e.Round, e.Lambda, e.Beta)
}

// Result is the outcome of a run.
type Result struct {
	// Series holds the recorded metric table.
	Series *Series
	// SwitchRound is the round of the first scheme switch (-1 if none) —
	// the whole history under a one-way rule.
	SwitchRound int
	// Switches is the full scheme-switch history; a re-arming policy may
	// switch any number of times. Nil when no policy fired.
	Switches []core.SwitchEvent
	// SpeedEvents is the history of effective speed changes applied by the
	// Environment (nil when none fired). Jittery environments produce one
	// entry per changing round.
	SpeedEvents []SpeedEvent
	// ScenarioEvents is the history of coupled scenario rounds (nil when no
	// Scenario is set or none fired): one entry per round in which the
	// timeline changed speeds, moved load, or both.
	ScenarioEvents []ScenarioEvent
	// BetaEvents is the history of β re-optimizations (nil when BetaReopt
	// is unset or never fired).
	BetaEvents []BetaEvent
	// StaleBetaRounds counts the rounds executed with a qualifying speed
	// drift while the BetaReopt cooldown delayed the re-optimization — the
	// rounds-spent-on-stale-β metric (always 0 without a cooldown).
	StaleBetaRounds int
	// Rounds is the total number of rounds executed.
	Rounds int
}

// Run executes the configured number of rounds and returns the recording.
// Every round runs its stages in this order: step Proc; step each Lockstep
// process; apply the Environment's or Scenario's speeds (reweight and
// retarget); re-optimize β; inject the Scenario's load half; inject the
// Workload; evaluate the Adaptive policy; call OnRound; record the
// telemetry gauges; sample the metrics when the round is due.
//
// The gauges and the built-in metrics read one observation of Proc per
// round, taken after OnRound: OnRound may still mutate the process, and the
// observation sees what it left. Each of its scans (Σx, min and max; the
// deviations from the speed-proportional targets; φ_local over the arcs)
// runs at most once per round, and only when a gauge or a due metric reads
// it. Any other Metric, including a wrapped built-in one, computes its own
// value from Proc.
func (r *Runner) Run(rounds int) (*Result, error) {
	if r.Proc == nil {
		return nil, errors.New("sim: Runner.Proc is nil")
	}
	if rounds < 0 {
		return nil, fmt.Errorf("sim: negative round count %d", rounds)
	}
	ms := r.Metrics
	if ms == nil {
		ms = DefaultMetrics()
	}
	every := r.Every
	if every <= 0 {
		every = 1
	}
	names := make([]string, len(ms))
	for i, m := range ms {
		names[i] = m.Name()
	}
	series := NewSeries(names...)
	res := &Result{Series: series, SwitchRound: -1}

	// The speed timeline comes from either Environment or Scenario (whose
	// speed half is an envdyn.Dynamics); both drive the same reweight +
	// retarget machinery.
	envDyn := r.Environment
	if r.Scenario != nil {
		if envDyn != nil {
			return nil, errors.New("sim: set either Runner.Environment or Runner.Scenario, not both (a scenario owns the speed timeline)")
		}
		envDyn = r.Scenario.Dynamics()
	}
	var (
		applier     *envdyn.Applier
		retargeters []core.Retargeter
		injectors   []core.Injector
		reoptState  *BetaReoptState
		scLoad, wl  *injection
		err         error
	)
	if envDyn != nil {
		what := fmt.Sprintf("dynamics %q", envDyn.Name())
		if retargeters, err = capable[core.Retargeter](r, what); err != nil {
			return nil, err
		}
		// A lockstep reference on a different operator instance would keep
		// balancing toward the stale targets and corrupt every deviation
		// metric; require the shared-operator setup the deviation
		// experiments use.
		op := r.Proc.Operator()
		for _, ref := range r.Lockstep {
			if ref.Operator() != op {
				return nil, fmt.Errorf("sim: %s set but lockstep process %T does not share the main operator", what, ref)
			}
		}
		if applier, err = envdyn.NewApplier(op.Speeds(), op.Graph().NumNodes(), envDyn); err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
	}
	// The scenario's load half is injected right after its speed half and
	// before any Workload, so the coupled event lands as one unit.
	if r.Scenario != nil {
		if injectors, err = capable[core.Injector](r, fmt.Sprintf("Scenario %q", r.Scenario.Name())); err != nil {
			return nil, err
		}
		op := r.Proc.Operator()
		scLoad = &injection{what: fmt.Sprintf("scenario %q", r.Scenario.Name()),
			mut: r.Scenario.Mutator(op.Graph(), op.Speeds()), deltas: make([]int64, op.Graph().NumNodes())}
	}
	if r.Workload != nil {
		if injectors, err = capable[core.Injector](r, fmt.Sprintf("Workload %q", r.Workload.Name())); err != nil {
			return nil, err
		}
		wl = &injection{what: fmt.Sprintf("workload %q", r.Workload.Name()), mut: r.Workload}
		wl.deltas = make([]int64, wl.view(r.Proc.Loads()).Len())
	}
	// β re-optimization trigger: the baseline starts at the initial total
	// speed.
	if r.BetaReopt != nil {
		setters, err := capable[core.BetaSetter](r, "BetaReopt")
		if err != nil {
			return nil, err
		}
		reoptState = NewBetaReoptState(*r.BetaReopt, r.Proc.Operator().Speeds().Sum(), setters...)
	}

	// Runtime contract checks (conservation, gated non-negativity,
	// column-stochasticity), compiled in with -tags=invariants only.
	var chk *invariantChecker
	if invariants.Enabled {
		chk = newInvariantChecker(r.Proc)
	}

	// One observation of Proc per round, shared by the gauges and the
	// built-in metrics; any other Metric computes its own value.
	obs := observation{p: r.Proc}
	row := make([]float64, len(ms)) // Series.Append copies it
	record := func(round int) error {
		for i, m := range ms {
			if pm, ok := m.(projection); ok {
				row[i] = pm.from(&obs)
			} else {
				row[i] = m.Compute(r.Proc)
			}
		}
		return series.Append(round, row...)
	}
	// Round 0 snapshot (initial state).
	if err := record(0); err != nil {
		return nil, err
	}
	for round := 1; round <= rounds; round++ {
		sw := r.Telemetry.StartRound()
		r.Proc.Step()
		if chk != nil {
			chk.afterStep(round)
		}
		for _, ref := range r.Lockstep {
			ref.Step()
		}
		// Speed dynamics before any injection: a burst landing in the same
		// round as a speed event is injected into the already-moved target,
		// and the policy below sees both.
		scChanged := 0
		if applier != nil {
			sp, changed, err := applier.SpeedsAt(round)
			if err == nil && changed > 0 {
				err = reweight(r.Proc, sp, retargeters)
			}
			if err != nil {
				return nil, fmt.Errorf("sim: dynamics %q at round %d: %w", envDyn.Name(), round, err)
			}
			if changed > 0 {
				if chk != nil {
					chk.afterReweight(round)
				}
				if r.Scenario != nil {
					scChanged = changed
				} else {
					res.SpeedEvents = append(res.SpeedEvents, SpeedEvent{Round: round, Nodes: changed, Sum: sp.Sum()})
					r.Telemetry.Reweight(round, changed, sp.Sum())
				}
			}
		}
		// β re-optimization: depends on the speeds alone, so it runs right
		// after the reweight and before any load moves.
		if reoptState != nil {
			ev, err := reoptState.Step(round, r.Proc.Operator())
			if err != nil {
				return nil, err
			}
			if ev != nil {
				res.BetaEvents = append(res.BetaEvents, *ev)
				r.Telemetry.BetaReopt(round, ev.Beta)
			}
			res.StaleBetaRounds = reoptState.Stale
		}
		if scLoad != nil {
			fired, err := scLoad.inject(round, r.Proc, injectors, chk)
			if err != nil {
				return nil, err
			}
			var moved int64
			if fired {
				for _, d := range scLoad.deltas {
					moved += max(d, 0)
				}
			}
			if scChanged > 0 || moved > 0 {
				res.ScenarioEvents = append(res.ScenarioEvents, ScenarioEvent{
					Round: round, Nodes: scChanged, Moved: moved,
					Sum: r.Proc.Operator().Speeds().Sum(),
				})
				r.Telemetry.Scenario(round, scChanged, float64(moved))
			}
		}
		if wl != nil {
			fired, err := wl.inject(round, r.Proc, injectors, chk)
			if err != nil {
				return nil, err
			}
			if fired && r.Telemetry != nil {
				var net int64
				for _, d := range wl.deltas {
					net += d
				}
				r.Telemetry.Inject(round, float64(net))
			}
		}
		// Policy evaluation deliberately follows workload injection above:
		// an adaptive controller must see the post-burst loads in the same
		// round the burst lands, or re-arming lags the recording by a round.
		if r.Adaptive != nil {
			if ev, ok := core.ApplyAdaptive(r.Proc, r.Adaptive); ok {
				ev.Round = round // the driver's round counter, not p.Round()
				res.Switches = append(res.Switches, ev)
				if res.SwitchRound < 0 {
					res.SwitchRound = round
				}
				r.Telemetry.Switch(round, int(ev.To))
			}
		}
		if r.OnRound != nil {
			r.OnRound(round, r.Proc)
		}
		// The round's observation starts here, after OnRound, which may
		// still mutate the process.
		obs.reset()
		// Per-round telemetry gauges: the scans are guarded on the probe so
		// a detached run pays nothing; the values are plain
		// read-and-record, feeding nothing back into the trajectory.
		if r.Telemetry != nil {
			sw.Stop()
			r.Telemetry.RoundCompleted(round, obs.discrepancy(), obs.potentialPerN(),
				r.Proc.Operator().Speeds().Sum(), float64(res.StaleBetaRounds))
		}
		if round%every == 0 || round == rounds {
			if err := record(round); err != nil {
				return nil, err
			}
		}
	}
	res.Rounds = rounds
	return res, nil
}

// capable returns Proc and every Lockstep process as T, in that order. A
// process without T is an error naming src, the Runner field that needs it:
// a lockstep reference that cannot follow the run's dynamics would silently
// drift and corrupt every deviation metric.
func capable[T any](r *Runner, src string) ([]T, error) {
	out := make([]T, 0, 1+len(r.Lockstep))
	for i, p := range append([]core.Process{r.Proc}, r.Lockstep...) {
		v, ok := p.(T)
		if !ok {
			role := "process"
			if i > 0 {
				role = "lockstep process"
			}
			return nil, fmt.Errorf("sim: %s set but %s %T does not implement %v", src, role, p, reflect.TypeFor[T]())
		}
		out = append(out, v)
	}
	return out, nil
}

// injection is one source of external load, the Scenario's load half or the
// Workload, with its reused delta buffer.
type injection struct {
	what   string // the source in errors, e.g. `workload "poisson:0.5"`
	mut    workload.Mutator
	deltas []int64
	// ints and floats hold the view of the process's loads that view hands
	// the Mutator as a pointer, so a draw boxes nothing.
	ints   workload.IntLoads
	floats workload.SliceLoads
}

// view points the injection's load view at lv and returns it. inject calls
// it at every draw: Continuous swaps its load buffers every Step, so the
// backing slice of one round is not the next round's.
func (in *injection) view(lv core.LoadView) workload.Loads {
	if lv.Int != nil {
		in.ints = lv.Int
		return &in.ints
	}
	in.floats = lv.Float
	return &in.floats
}

// inject draws the source's deltas for round from p's loads and, when it
// fires, injects them into every injector in order (Proc first, then the
// Lockstep processes), so references see the same external load. It
// reports whether the source fired.
func (in *injection) inject(round int, p core.Process, injectors []core.Injector, chk *invariantChecker) (bool, error) {
	clear(in.deltas)
	if !in.mut.Deltas(round, in.view(p.Loads()), in.deltas) {
		return false, nil
	}
	for i, inj := range injectors {
		if err := inj.Inject(in.deltas); err != nil {
			lockstep := ""
			if i > 0 {
				lockstep = " (lockstep)"
			}
			return false, fmt.Errorf("sim: %s at round %d%s: %w", in.what, round, lockstep, err)
		}
	}
	if chk != nil {
		chk.afterInject(in.deltas)
	}
	return true, nil
}
