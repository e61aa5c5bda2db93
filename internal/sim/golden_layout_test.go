package sim

import (
	"reflect"
	"runtime"
	"testing"

	"diffusionlb/internal/core"
	"diffusionlb/internal/envdyn"
	"diffusionlb/internal/graph"
	"diffusionlb/internal/hetero"
	"diffusionlb/internal/metrics"
	"diffusionlb/internal/spectral"
)

// TestResultHistoriesDeterministicAcrossShardCounts is the sim-level half
// of the golden equivalence suite: a full Runner trajectory — recorded
// metric series, speed events, β re-optimizations, scheme switches and
// final loads — must be bit-identical across shard counts 1, 2 and 7, with
// environment dynamics reweighting the operator mid-run and the BetaReopt
// trigger running its power iteration off the reweighted operator.
// GOMAXPROCS is pinned high so the multi-worker runs actually spawn shard
// goroutines.
func TestResultHistoriesDeterministicAcrossShardCounts(t *testing.T) {
	old := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(old)

	g, err := graph.Torus2D(64, 64)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumNodes()
	sp, err := hetero.TwoClass(n, 0.25, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	x0, err := metrics.ProportionalLoad(int64(n)*200, sp)
	if err != nil {
		t.Fatal(err)
	}

	run := func(workers int) (*Result, []int64) {
		// Each run needs its own operator: the environment reweights it in
		// place, so sharing one across runs would leak state between them.
		op, err := spectral.NewOperator(g, sp, nil)
		if err != nil {
			t.Fatal(err)
		}
		proc, err := core.NewDiscrete(core.Config{Op: op, Kind: core.SOS, Beta: 1.8, Workers: workers},
			core.RandomizedRounder{}, 11, x0)
		if err != nil {
			t.Fatal(err)
		}
		env, err := envdyn.FromSpec("throttle:at=15,frac=0.25,factor=0.25+jitter:sigma=0.05,frac=0.03", n, 5)
		if err != nil {
			t.Fatal(err)
		}
		policy, err := core.PolicyFromSpec("adaptive:16:64:10")
		if err != nil {
			t.Fatal(err)
		}
		res, err := (&Runner{
			Proc:        proc,
			Environment: env,
			Adaptive:    policy,
			Every:       1,
			Metrics:     append(DefaultMetrics(), EnvironmentMetrics()...),
			BetaReopt:   &BetaReopt{Threshold: 0.05, Cooldown: 10, Power: spectral.PowerOptions{Tol: 1e-8}},
		}).Run(50)
		if err != nil {
			t.Fatal(err)
		}
		return res, append([]int64(nil), proc.LoadsInt()...)
	}

	seqRes, seqLoads := run(1)
	if len(seqRes.SpeedEvents) == 0 {
		t.Fatal("environment produced no speed events; the fixture is not exercising reweights")
	}
	if len(seqRes.BetaEvents) == 0 {
		t.Fatal("no β re-optimizations fired; the throttle should cross the 5% speed-sum threshold")
	}
	for _, workers := range []int{2, 7} {
		parRes, parLoads := run(workers)
		if !reflect.DeepEqual(parRes.Series, seqRes.Series) {
			t.Errorf("Workers=%d metric series differ from sequential", workers)
		}
		if !reflect.DeepEqual(parRes.SpeedEvents, seqRes.SpeedEvents) {
			t.Errorf("Workers=%d speed events differ from sequential", workers)
		}
		if !reflect.DeepEqual(parRes.BetaEvents, seqRes.BetaEvents) {
			t.Errorf("Workers=%d β events differ from sequential", workers)
		}
		if !reflect.DeepEqual(parRes.Switches, seqRes.Switches) {
			t.Errorf("Workers=%d switch history differs from sequential", workers)
		}
		if parRes.StaleBetaRounds != seqRes.StaleBetaRounds {
			t.Errorf("Workers=%d StaleBetaRounds = %d, sequential %d",
				workers, parRes.StaleBetaRounds, seqRes.StaleBetaRounds)
		}
		if !reflect.DeepEqual(parLoads, seqLoads) {
			t.Errorf("Workers=%d final loads differ from sequential", workers)
		}
	}
}
