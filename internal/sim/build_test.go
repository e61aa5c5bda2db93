package sim

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"diffusionlb/internal/actor"
	"diffusionlb/internal/core"
	"diffusionlb/internal/envdyn"
	"diffusionlb/internal/scenario"
	"diffusionlb/internal/spectral"
	"diffusionlb/internal/workload"
)

// testRunSpec is a small valid spec the tests below vary.
func testRunSpec() RunSpec {
	return RunSpec{Graph: "torus2d:8x8", Scheme: "sos", Rounder: "randomized", Seed: 7, Avg: 100, Rounds: 20}
}

// buildRun builds spec's system and runner, failing the test on error.
func buildRun(t *testing.T, spec RunSpec) (*System, *Runner) {
	t.Helper()
	sys, err := spec.System()
	if err != nil {
		t.Fatal(err)
	}
	runner, err := spec.Build(sys)
	if err != nil {
		t.Fatal(err)
	}
	return sys, runner
}

// TestBuildStepWorkers: the step-worker count reaches the engine as its
// shard count, and the sharded run reproduces the sequential one bit for
// bit.
func TestBuildStepWorkers(t *testing.T) {
	spec := testRunSpec()
	spec.Graph = "torus2d:64x64" // shard.MinShardNodes: smaller graphs run on one shard
	spec.Lambda = LambdaClosedForm
	spec.Workload = "hotspot:5:5000"
	spec.StepWorkers = 4
	_, runner := buildRun(t, spec)
	sh, ok := runner.Proc.(core.Sharded)
	if !ok {
		t.Fatalf("%T does not implement core.Sharded", runner.Proc)
	}
	if got := sh.ShardLayout().Shards(); got != 4 {
		t.Fatalf("4 step workers give %d shards, want 4", got)
	}
	spec.StepWorkers = 0
	_, seq := buildRun(t, spec)
	for _, r := range []*Runner{runner, seq} {
		if _, err := r.Run(spec.Rounds); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(runner.Proc.Loads().Int, seq.Proc.Loads().Int) {
		t.Fatal("4 step workers and 1 give different loads")
	}
}

// TestBuildAvgOverflow: an initial load Avg·n beyond int64 is an error,
// not a wrapped-around token count.
func TestBuildAvgOverflow(t *testing.T) {
	spec := testRunSpec()
	spec.Graph = "cycle:4"
	sys, err := spec.System()
	if err != nil {
		t.Fatal(err)
	}
	spec.Avg = math.MaxInt64/4 + 1
	if _, err := spec.Build(sys); err == nil {
		t.Fatalf("Avg %d on 4 nodes accepted", spec.Avg)
	}
	spec.Avg = math.MaxInt64 / 4
	runner, err := spec.Build(sys)
	if err != nil {
		t.Fatal(err)
	}
	if got := runner.Proc.Loads().Int[0]; got != spec.Avg*4 {
		t.Fatalf("node 0 starts with %d tokens, want %d", got, spec.Avg*4)
	}
}

// TestRunSpecValidate: every malformed field is rejected before anything
// is built, spec-parser errors keep their type, and Build rejects what
// Validate rejects.
func TestRunSpecValidate(t *testing.T) {
	if err := testRunSpec().Validate(); err != nil {
		t.Fatal(err)
	}
	sys, err := testRunSpec().System()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func(*RunSpec)
		is     error
	}{
		{"scheme", func(r *RunSpec) { r.Scheme = "third" }, nil},
		{"rounder", func(r *RunSpec) { r.Rounder = "dice" }, nil},
		{"runtime", func(r *RunSpec) { r.Runtime = "actor:0" }, actor.ErrBadSpec},
		{"actor-continuous", func(r *RunSpec) { r.Runtime, r.Rounder = "actor:2", "continuous" }, nil},
		{"actor-cumulative", func(r *RunSpec) { r.Runtime, r.Rounder = "actor:2", "cumulative" }, nil},
		{"beta-negative", func(r *RunSpec) { r.Beta = -0.5 }, nil},
		{"beta-two", func(r *RunSpec) { r.Beta = 2 }, nil},
		{"avg", func(r *RunSpec) { r.Avg = -1 }, nil},
		{"workload", func(r *RunSpec) { r.Workload = "tsunami:9" }, workload.ErrBadSpec},
		{"env", func(r *RunSpec) { r.Env = "warp:x=1" }, envdyn.ErrBadSpec},
		{"scenario", func(r *RunSpec) { r.Scenario = "drain:frac=0.5" }, scenario.ErrBadSpec},
		{"env-scenario", func(r *RunSpec) {
			r.Env, r.Scenario = "jitter:sigma=0.1", "drain:at=5,frac=0.25"
		}, nil},
		{"policy", func(r *RunSpec) { r.Policy = "warp:9" }, core.ErrBadPolicySpec},
		{"betareopt", func(r *RunSpec) { r.BetaReopt = -1 }, nil},
		{"betareopt-static", func(r *RunSpec) { r.BetaReopt = 0.05 }, nil},
		{"stepworkers", func(r *RunSpec) { r.StepWorkers = -1 }, nil},
		{"rounds", func(r *RunSpec) { r.Rounds = -1 }, nil},
		{"every", func(r *RunSpec) { r.Every = -5 }, nil},
	}
	for _, tc := range cases {
		spec := testRunSpec()
		tc.mutate(&spec)
		err := spec.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, spec)
			continue
		}
		if tc.is != nil && !errors.Is(err, tc.is) {
			t.Errorf("%s: error %v is not %v", tc.name, err, tc.is)
		}
		if _, err := spec.Build(sys); err == nil {
			t.Errorf("%s: Build accepted %+v", tc.name, spec)
		}
	}
}

// TestBuildProcesses: the rounder and runtime select the engine, Beta 0
// selects β_opt, and only runs with speed dynamics get a private operator.
func TestBuildProcesses(t *testing.T) {
	sys, err := testRunSpec().System()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		mutate func(*RunSpec)
		want   any
		ownOp  bool
	}{
		{func(r *RunSpec) {}, &core.Discrete{}, false},
		{func(r *RunSpec) { r.Rounder = "continuous" }, &core.Continuous{}, false},
		{func(r *RunSpec) { r.Rounder = "cumulative" }, &core.CumulativeDiscrete{}, false},
		{func(r *RunSpec) { r.Runtime = "actor:2,stale=1" }, &actor.Runtime{}, false},
		{func(r *RunSpec) { r.Env = "throttle:at=5,frac=0.25,factor=0.5" }, &core.Discrete{}, true},
		{func(r *RunSpec) { r.Scenario = "drain:at=5,frac=0.25" }, &core.Discrete{}, true},
		{func(r *RunSpec) { r.Rounder, r.Env = "continuous", "jitter:sigma=0.1" }, &core.Continuous{}, true},
	}
	for _, tc := range cases {
		spec := testRunSpec()
		tc.mutate(&spec)
		runner, err := spec.Build(sys)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.TypeOf(runner.Proc) != reflect.TypeOf(tc.want) {
			t.Errorf("%+v built %T, want %T", spec, runner.Proc, tc.want)
		}
		if own := runner.Proc.Operator() != sys.Op; own != tc.ownOp {
			t.Errorf("%+v: private operator %v, want %v", spec, own, tc.ownOp)
		}
		if b, ok := runner.Proc.(interface{ Beta() float64 }); ok && b.Beta() != sys.Beta {
			t.Errorf("%+v runs at beta %g, want beta_opt %g", spec, b.Beta(), sys.Beta)
		}
	}
	spec := testRunSpec()
	spec.Beta = 1.5
	if runner, err := spec.Build(sys); err != nil || runner.Proc.(*core.Discrete).Beta() != 1.5 {
		t.Fatalf("Beta 1.5 not installed: %v", err)
	}
}

// TestSystemLambdaSources: LambdaPower is the default power iteration;
// LambdaClosedForm is the closed form on homogeneous tori and hypercubes
// and the power iteration at Tol 1e-10 elsewhere.
func TestSystemLambdaSources(t *testing.T) {
	torus, err := spectral.AnalyticTorus2DLambda(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	cube, err := spectral.AnalyticHypercubeLambda(5)
	if err != nil {
		t.Fatal(err)
	}
	power := func(sys *System, opts spectral.PowerOptions) float64 {
		op, err := spectral.NewOperator(sys.Graph, sys.Speeds, nil)
		if err != nil {
			t.Fatal(err)
		}
		lam, _, err := op.SecondEigenvalue(opts)
		if err != nil {
			t.Fatal(err)
		}
		return lam
	}
	tight := spectral.PowerOptions{Tol: 1e-10}
	cases := []struct {
		graph, speeds string
		source        LambdaSource
		want          func(*System) float64
	}{
		{"torus2d:8x8", "", LambdaClosedForm, func(*System) float64 { return torus }},
		{"hypercube:5", "", LambdaClosedForm, func(*System) float64 { return cube }},
		{"torus2d:8x8", "twoclass:0.25:4", LambdaClosedForm, func(s *System) float64 { return power(s, tight) }},
		{"regular:64:4", "", LambdaClosedForm, func(s *System) float64 { return power(s, tight) }},
		{"torus2d:8x8", "", LambdaPower, func(s *System) float64 { return power(s, spectral.PowerOptions{}) }},
		{"hypercube:5", "", LambdaPower, func(s *System) float64 { return power(s, spectral.PowerOptions{}) }},
	}
	for _, tc := range cases {
		spec := RunSpec{Graph: tc.graph, Speeds: tc.speeds, Lambda: tc.source}
		sys, err := spec.System()
		if err != nil {
			t.Fatal(err)
		}
		if want := tc.want(sys); sys.Lambda != want {
			t.Errorf("%s %q source %d: lambda %v, want %v", tc.graph, tc.speeds, tc.source, sys.Lambda, want)
		}
		if beta, err := spectral.BetaOpt(sys.Lambda); err != nil || sys.Beta != beta {
			t.Errorf("%s: beta %v, want beta_opt %v (%v)", tc.graph, sys.Beta, beta, err)
		}
		if (sys.Speeds == nil) != (tc.speeds == "") {
			t.Errorf("%s %q: speeds %v", tc.graph, tc.speeds, sys.Speeds)
		}
	}
}
