package sim

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"diffusionlb/internal/actor"
	"diffusionlb/internal/core"
	"diffusionlb/internal/envdyn"
	"diffusionlb/internal/graph"
	"diffusionlb/internal/hetero"
	"diffusionlb/internal/metrics"
	"diffusionlb/internal/scenario"
	"diffusionlb/internal/spectral"
	"diffusionlb/internal/workload"
)

// RunSpec holds every input of one run, resolved: the specs of its parts in
// the lbsim CLI syntax, the seed each part draws from, and the numbers that
// fix the run. lbsim's free-form mode and sweep cells are front ends that
// fill one; they differ only in how they derive the seeds and in their λ
// source. System builds the topology half of the run, and Build the rest;
// the experiments use System alone.
type RunSpec struct {
	// Graph and Speeds are graph.FromSpec and hetero.SpeedsFromSpec specs
	// ("" speeds = homogeneous), each drawn from its own seed.
	Graph, Speeds         string
	GraphSeed, SpeedsSeed uint64
	// Lambda selects how System computes λ, and with it β_opt.
	Lambda LambdaSource
	// StepWorkers is the shared-memory engines' core.Config.Workers: it
	// fixes their shard count, a pure function of (n, StepWorkers), and
	// each step runs those shards on min(shards, GOMAXPROCS) goroutines
	// (0 = one shard, stepped inline). Results are identical for every
	// value.
	StepWorkers int

	// Scheme is "fos" or "sos" in any case. Rounder is a core.RounderByName
	// name, "continuous" (divisible load) or "cumulative" (the stateful
	// baseline of [2]). Runtime is "" for the shared-memory engine or an
	// actor.FromSpec spec, which needs a discrete rounder.
	Scheme, Rounder, Runtime string
	// Beta is the SOS β (0 = System's β_opt).
	Beta float64
	// Seed seeds the rounding streams and the actor staleness schedule.
	Seed uint64
	// Avg is the average initial load; all Avg·n tokens start on node 0.
	Avg int64

	// Workload, Env and Scenario are workload, envdyn and scenario specs
	// ("" = none), each drawn from its own seed. A scenario owns the speed
	// timeline, so Env and Scenario cannot both be set. Policy is a
	// core.PolicyFromSpec spec ("" = never switch).
	Workload, Env, Scenario, Policy     string
	WorkloadSeed, EnvSeed, ScenarioSeed uint64

	// BetaReopt is the relative total-speed drift that re-optimizes the SOS
	// β (0 = off; see Runner.BetaReopt).
	BetaReopt float64
	// Rounds is the round budget to pass to Runner.Run, and Every the
	// recording cadence (0 = max(1, Rounds/100)).
	Rounds, Every int
}

// LambdaSource selects how System computes the second eigenvalue λ. The
// sources differ in the last bits of λ, so each front end keeps its own.
type LambdaSource int

const (
	// LambdaPower runs the power iteration with the default
	// spectral.PowerOptions, as diffusionlb.NewSystem does.
	LambdaPower LambdaSource = iota
	// LambdaClosedForm takes the closed form on homogeneous 2-d tori and
	// hypercubes, and the power iteration at Tol 1e-10 everywhere else, as
	// sweep cells and the experiments do.
	LambdaClosedForm
)

// System is the read-only topology half of a run: the graph, the speeds
// (nil = homogeneous), the diffusion operator, λ and β_opt. Runs on one
// (graph, speeds) pair can share it, because Build gives every run that
// reweights the operator a private clone.
type System struct {
	Graph        *graph.Graph
	Speeds       *hetero.Speeds
	Op           *spectral.Operator
	Lambda, Beta float64
}

// ParseScheme maps a scheme name ("fos" or "sos", in any case) to its kind.
func ParseScheme(name string) (core.Kind, error) {
	switch strings.ToLower(name) {
	case "fos":
		return core.FOS, nil
	case "sos":
		return core.SOS, nil
	}
	return 0, fmt.Errorf("unknown scheme %q (fos|sos)", name)
}

// Validate runs every string and range check without building anything,
// so a typo is reported before the power iteration starts. The graph and
// speeds specs are the exception: System checks them as it builds them,
// which is also before λ.
func (r RunSpec) Validate() error {
	discrete := r.Rounder != "continuous" && r.Rounder != "cumulative"
	if _, ok := core.RounderByName(r.Rounder); discrete && !ok {
		return fmt.Errorf("unknown rounder %q", r.Rounder)
	}
	if r.Runtime != "" {
		if _, err := actor.FromSpec(r.Runtime); err != nil {
			return err
		}
		if !discrete {
			return fmt.Errorf("runtime %q cannot run the %q rounder (actor runtimes need a discrete rounder)", r.Runtime, r.Rounder)
		}
	}
	_, schemeErr := ParseScheme(r.Scheme)
	_, policyErr := core.PolicyFromSpec(r.Policy)
	for _, err := range []error{schemeErr, workload.ValidateSpec(r.Workload), envdyn.ValidateSpec(r.Env),
		scenario.ValidateSpec(r.Scenario), policyErr} {
		if err != nil {
			return err
		}
	}
	switch {
	case r.Env != "" && r.Scenario != "":
		return fmt.Errorf("env %q and scenario %q cannot combine: a scenario owns the speed timeline", r.Env, r.Scenario)
	case r.BetaReopt > 0 && r.Env == "" && r.Scenario == "":
		return fmt.Errorf("beta re-opt threshold %g needs an env or a scenario: without speed events it never fires", r.BetaReopt)
	case r.Beta < 0 || r.Beta >= 2: // 0 selects β_opt; SOS needs β inside (0, 2)
		return fmt.Errorf("beta %g outside [0, 2)", r.Beta)
	case r.Avg < 0 || r.BetaReopt < 0 || r.StepWorkers < 0 || r.Rounds < 0 || r.Every < 0:
		return fmt.Errorf("avg %d, beta re-opt threshold %g, step workers %d, rounds %d and every %d must all be >= 0",
			r.Avg, r.BetaReopt, r.StepWorkers, r.Rounds, r.Every)
	}
	return nil
}

// System builds the topology half of the run: the graph, the speeds, the
// operator under the paper's α rule, and λ and β_opt from the spec's λ
// source.
func (r RunSpec) System() (*System, error) {
	g, err := graph.FromSpec(r.Graph, r.GraphSeed)
	if err != nil {
		return nil, err
	}
	sp, err := hetero.SpeedsFromSpec(r.Speeds, g.NumNodes(), r.SpeedsSeed)
	if err != nil {
		return nil, err
	}
	op, err := spectral.NewOperator(g, sp, nil)
	if err != nil {
		return nil, err
	}
	lam, ok := 0.0, false
	var power spectral.PowerOptions
	if r.Lambda == LambdaClosedForm {
		lam, ok = closedFormLambda(r.Graph, sp)
		power.Tol = 1e-10
	}
	if !ok {
		if lam, _, err = op.SecondEigenvalue(power); err != nil {
			return nil, fmt.Errorf("sim: lambda for %s: %w", g.Name(), err)
		}
	}
	beta, err := spectral.BetaOpt(lam)
	if err != nil {
		return nil, err
	}
	return &System{Graph: g, Speeds: sp, Op: op, Lambda: lam, Beta: beta}, nil
}

// closedFormLambda returns λ in closed form for the graph specs that have
// one, homogeneous 2-d tori and hypercubes. The experiments' reports rest
// on this exact set: a cycle case would move the deviation experiment's
// cycle λ off its power-iteration value.
func closedFormLambda(gSpec string, sp *hetero.Speeds) (float64, bool) {
	kind, rest, _ := strings.Cut(gSpec, ":")
	lam, err := 0.0, errors.New("no closed form")
	switch strings.ToLower(kind) {
	case "torus2d":
		if p := strings.FieldsFunc(rest, func(r rune) bool { return r == 'x' || r == 'X' }); len(p) == 2 {
			w, err1 := strconv.Atoi(p[0])
			h, err2 := strconv.Atoi(p[1])
			if err1 == nil && err2 == nil {
				lam, err = spectral.AnalyticTorus2DLambda(w, h)
			}
		}
	case "hypercube":
		if dim, aErr := strconv.Atoi(rest); aErr == nil {
			lam, err = spectral.AnalyticHypercubeLambda(dim)
		}
	}
	return lam, err == nil && sp.IsHomogeneous()
}

// Build validates the spec and assembles the run on sys, which must come
// from a spec with the same graph and speeds: the process, its dynamics, a
// fresh policy and the MetricsFor column set. A run with env or scenario
// dynamics reweights its operator in place, so it gets a private clone of
// sys.Op. Run the result for r.Rounds rounds.
func (r RunSpec) Build(sys *System) (*Runner, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	n := sys.Graph.NumNodes()
	if r.Avg > math.MaxInt64/int64(n) {
		return nil, fmt.Errorf("initial load avg*n = %d*%d overflows int64", r.Avg, n)
	}
	x0, err := metrics.PointLoad(n, r.Avg*int64(n), 0)
	if err != nil {
		return nil, err
	}
	env, err := envdyn.FromSpec(r.Env, n, r.EnvSeed)
	if err != nil {
		return nil, err
	}
	scn, err := scenario.FromSpec(r.Scenario, n, r.ScenarioSeed)
	if err != nil {
		return nil, err
	}
	wl, err := workload.FromSpec(r.Workload, n, r.WorkloadSeed)
	if err != nil {
		return nil, err
	}
	// Stateful policies (stall history, hysteresis cooldown) must never
	// carry one run's trajectory into the next, so each run parses its own.
	policy, err := core.PolicyFromSpec(r.Policy)
	if err != nil {
		return nil, err
	}
	op := sys.Op
	if env != nil || scn != nil {
		op = op.Clone() // cheap: the graph is shared
	}
	proc, err := r.process(op, sys, x0)
	if err != nil {
		return nil, err
	}
	every := r.Every
	if every <= 0 {
		every = max(1, r.Rounds/100)
	}
	runner := &Runner{Proc: proc, Every: every, Adaptive: policy, Metrics: MetricsFor(sys.Speeds, wl, env, scn),
		Workload: wl, Environment: env, Scenario: scn}
	if r.BetaReopt > 0 {
		runner.BetaReopt = &BetaReopt{Threshold: r.BetaReopt}
	}
	return runner, nil
}

// process builds the engine that the validated spec's scheme, rounder and
// runtime select on op, starting from the integer loads x0.
func (r RunSpec) process(op *spectral.Operator, sys *System, x0 []int64) (core.Process, error) {
	kind, _ := ParseScheme(r.Scheme)
	beta := r.Beta
	if beta == 0 {
		beta = sys.Beta
	}
	cfg := core.Config{Op: op, Kind: kind, Beta: beta, Workers: r.StepWorkers}
	switch r.Rounder {
	case "continuous":
		xf := make([]float64, len(x0))
		for i, v := range x0 {
			xf[i] = float64(v)
		}
		return core.NewContinuous(cfg, xf)
	case "cumulative":
		return core.NewCumulativeDiscrete(cfg, x0)
	}
	rounder, _ := core.RounderByName(r.Rounder)
	if r.Runtime == "" {
		return core.NewDiscrete(cfg, rounder, r.Seed, x0)
	}
	opts, _ := actor.FromSpec(r.Runtime)
	return actor.New(op, kind, beta, rounder, r.Seed, x0, opts)
}
