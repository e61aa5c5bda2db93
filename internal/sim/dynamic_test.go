package sim

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"diffusionlb/internal/core"
	"diffusionlb/internal/graph"
	"diffusionlb/internal/spectral"
	"diffusionlb/internal/workload"
)

// TestMinTransientRoundZeroReportsMinLoad is the regression test for the
// sentinel mapping bug: before the first round MinTransient() is +Inf and
// the metric used to record 0, which made the round-0 row of a
// negative-load plot indistinguishable from a true minimum transient of
// zero. It must report the current minimum load instead.
func TestMinTransientRoundZeroReportsMinLoad(t *testing.T) {
	// Point load: node 0 holds everything, the rest hold 0 — except we
	// shift everything up so the minimum is clearly non-zero.
	g, err := graph.Torus2D(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	op, err := spectral.NewOperator(g, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	x0 := make([]int64, 16)
	for i := range x0 {
		x0[i] = 25
	}
	x0[0] = 1600
	proc, err := core.NewDiscrete(core.Config{Op: op, Kind: core.FOS}, nil, 1, x0)
	if err != nil {
		t.Fatal(err)
	}
	runner := &Runner{Proc: proc, Metrics: []Metric{MinTransient()}}
	res, err := runner.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	col, err := res.Series.Column("min_transient")
	if err != nil {
		t.Fatal(err)
	}
	if res.Series.Round(0) != 0 {
		t.Fatalf("first row is round %d, want 0", res.Series.Round(0))
	}
	if col[0] != 25 {
		t.Errorf("round-0 min_transient = %g, want the current minimum load 25", col[0])
	}
	// Later rows report the true running minimum, which can only be ≤ the
	// round-0 minimum load.
	for i := 1; i < len(col); i++ {
		if col[i] > col[0] {
			t.Errorf("row %d: running minimum %g exceeds round-0 value %g", i, col[i], col[0])
		}
	}
}

func balancedDiscrete(t *testing.T, side int, kind core.Kind, avg int64) *core.Discrete {
	t.Helper()
	g, err := graph.Torus2D(side, side)
	if err != nil {
		t.Fatal(err)
	}
	op, err := spectral.NewOperator(g, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	x0 := make([]int64, g.NumNodes())
	for i := range x0 {
		x0[i] = avg
	}
	proc, err := core.NewDiscrete(core.Config{Op: op, Kind: kind, Beta: 1.8}, nil, 5, x0)
	if err != nil {
		t.Fatal(err)
	}
	return proc
}

// TestRunnerAppliesWorkload: a burst workload attached to the Runner must
// actually land in the process (total load grows by the burst) and the
// recovery metrics must see it.
func TestRunnerAppliesWorkload(t *testing.T) {
	proc := balancedDiscrete(t, 8, core.SOS, 100)
	wl, err := workload.FromSpec("burst:10:6400:0", proc.Operator().Graph().NumNodes(), 3)
	if err != nil {
		t.Fatal(err)
	}
	runner := &Runner{
		Proc:     proc,
		Workload: wl,
		Metrics:  []Metric{Discrepancy(), PeakDiscrepancy(), TotalLoad(), InjectedLoad()},
	}
	res, err := runner.Run(60)
	if err != nil {
		t.Fatal(err)
	}
	total, err := res.Series.Last("total_load")
	if err != nil {
		t.Fatal(err)
	}
	if total != 64*100+6400 {
		t.Errorf("final total load %g, want %d", total, 64*100+6400)
	}
	inj, err := res.Series.Last("injected_load")
	if err != nil {
		t.Fatal(err)
	}
	if inj != 6400 {
		t.Errorf("injected_load = %g, want 6400", inj)
	}
	// Peak discrepancy must remember the burst even after recovery.
	peak, err := res.Series.Last("peak_discrepancy")
	if err != nil {
		t.Fatal(err)
	}
	final, err := res.Series.Last("discrepancy")
	if err != nil {
		t.Fatal(err)
	}
	if peak < 6000 {
		t.Errorf("peak_discrepancy = %g, want ≥ 6000 (the burst)", peak)
	}
	if final >= peak {
		t.Errorf("discrepancy %g did not recover below the peak %g", final, peak)
	}
	// Rounds-to-recover: after the burst the scheme must get back under a
	// small threshold within the run.
	rec, err := RoundsToRecover(res.Series, "discrepancy", 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	if rec < 0 {
		t.Error("SOS never recovered from the burst within 60 rounds")
	}
	// An unknown column surfaces an error, never a silent -1.
	if _, err := RoundsToRecover(res.Series, "nope", 0, 1); err == nil {
		t.Error("RoundsToRecover should reject unknown columns")
	}
}

// TestRunnerEveryWithWorkload: with Every > 1 the workload must still be
// applied every round (not only on recorded rounds), and the recorded grid
// must be identical to an Every=1 run downsampled.
func TestRunnerEveryWithWorkload(t *testing.T) {
	build := func() (*core.Discrete, workload.Mutator) {
		proc := balancedDiscrete(t, 6, core.SOS, 50)
		wl, err := workload.FromSpec("poisson:0.5+churn:5:40:40", 36, 9)
		if err != nil {
			t.Fatal(err)
		}
		return proc, wl
	}
	run := func(every int) (*Result, *core.Discrete) {
		proc, wl := build()
		runner := &Runner{Proc: proc, Workload: wl, Every: every,
			Metrics: []Metric{Discrepancy(), TotalLoad()}}
		res, err := runner.Run(40)
		if err != nil {
			t.Fatal(err)
		}
		return res, proc
	}
	resFine, procFine := run(1)
	resCoarse, procCoarse := run(7)

	// The trajectories must be identical: sampling cadence cannot change
	// the dynamics.
	for i, v := range procFine.LoadsInt() {
		if procCoarse.LoadsInt()[i] != v {
			t.Fatalf("Every=7 diverged from Every=1 at node %d: %d vs %d",
				i, procCoarse.LoadsInt()[i], v)
		}
	}
	// Every recorded coarse row matches the fine row of the same round.
	fineByRound := map[int][]float64{}
	for i := 0; i < resFine.Series.Len(); i++ {
		fineByRound[resFine.Series.Round(i)] = resFine.Series.Row(i)
	}
	for i := 0; i < resCoarse.Series.Len(); i++ {
		round := resCoarse.Series.Round(i)
		fine, ok := fineByRound[round]
		if !ok {
			t.Fatalf("coarse run recorded round %d the fine run did not", round)
		}
		for c, v := range resCoarse.Series.Row(i) {
			if fine[c] != v {
				t.Fatalf("round %d column %d: coarse %g != fine %g", round, c, v, fine[c])
			}
		}
	}
	// The final round is always recorded even when 40 % 7 != 0.
	if last := resCoarse.Series.Round(resCoarse.Series.Len() - 1); last != 40 {
		t.Fatalf("coarse run's last recorded round = %d, want 40", last)
	}
}

// TestRunnerWorkloadRequiresInjector: attaching a workload to a process
// without the Inject hook is a configuration error, not a silent no-op.
func TestRunnerWorkloadRequiresInjector(t *testing.T) {
	proc := balancedDiscrete(t, 4, core.FOS, 10)
	wl, err := workload.FromSpec("poisson:1", 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	runner := &Runner{Proc: noInject{proc}, Workload: wl}
	if _, err := runner.Run(5); err == nil {
		t.Fatal("Runner should reject a workload on a process without Inject")
	}
	// A lockstep reference without Inject would silently drift instead of
	// seeing the same arrivals — also a configuration error.
	runner = &Runner{Proc: proc, Lockstep: []core.Process{noInject{proc}}, Workload: wl}
	if _, err := runner.Run(5); err == nil {
		t.Fatal("Runner should reject a workload with a non-injectable lockstep process")
	}
}

// noInject hides the Inject method of an embedded process.
type noInject struct{ *core.Discrete }

func (n noInject) Inject() {} // different arity: does not satisfy core.Injector

// TestRunnerWorkloadReachesLockstep: lockstep references implementing
// Injector receive the same deltas, so deviation metrics compare
// like-for-like trajectories under dynamic load.
func TestRunnerWorkloadReachesLockstep(t *testing.T) {
	proc := balancedDiscrete(t, 6, core.FOS, 100)
	xf := make([]float64, 36)
	for i := range xf {
		xf[i] = 100
	}
	ref, err := core.NewContinuous(core.Config{Op: proc.Operator(), Kind: core.FOS}, xf)
	if err != nil {
		t.Fatal(err)
	}
	wl, err := workload.FromSpec("burst:3:3600:5", 36, 1)
	if err != nil {
		t.Fatal(err)
	}
	runner := &Runner{
		Proc:     proc,
		Lockstep: []core.Process{ref},
		Workload: wl,
		Metrics:  []Metric{DeviationFrom(ref, "dev")},
	}
	res, err := runner.Run(30)
	if err != nil {
		t.Fatal(err)
	}
	var refTotal float64
	for _, v := range ref.LoadsFloat() {
		refTotal += v
	}
	if math.Abs(refTotal-(3600+3600)) > 1e-6 {
		t.Errorf("lockstep reference total %g, want 7200 (burst injected)", refTotal)
	}
	// If the burst only hit one side the deviation would be ~3600; with
	// both injected it stays at rounding-scale.
	dev, err := res.Series.Last("dev")
	if err != nil {
		t.Fatal(err)
	}
	if dev > 100 {
		t.Errorf("deviation %g — burst did not reach the lockstep reference", dev)
	}
}

// TestRunnerWorkloadCheckpointResume drives the full stack: a Runner-owned
// dynamic run, interrupted by Checkpoint/Restore, continues bit-identically
// — satellite coverage for checkpoint interleaved with workload injection.
func TestRunnerWorkloadCheckpointResume(t *testing.T) {
	const rounds, cut = 80, 30
	spec, seed := "hotspot:4:500+churn:6:30:30", uint64(21)

	newProc := func() *core.Discrete { return balancedDiscrete(t, 6, core.SOS, 200) }

	// Uninterrupted reference.
	ref := newProc()
	wlRef, err := workload.FromSpec(spec, 36, seed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (&Runner{Proc: ref, Workload: wlRef}).Run(rounds); err != nil {
		t.Fatal(err)
	}

	// Interrupted run: stop at the cut, checkpoint, restore into a fresh
	// process and a fresh (same-seed) workload, continue manually from the
	// cut round.
	first := newProc()
	wlA, err := workload.FromSpec(spec, 36, seed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (&Runner{Proc: first, Workload: wlA}).Run(cut); err != nil {
		t.Fatal(err)
	}
	cp := first.Checkpoint()

	second := newProc()
	if err := second.Restore(cp); err != nil {
		t.Fatal(err)
	}
	wlB, err := workload.FromSpec(spec, 36, seed)
	if err != nil {
		t.Fatal(err)
	}
	deltas := make([]int64, 36)
	for second.Round() < rounds {
		second.Step()
		for i := range deltas {
			deltas[i] = 0
		}
		if wlB.Deltas(second.Round(), workload.IntLoads(second.LoadsInt()), deltas) {
			if err := second.Inject(deltas); err != nil {
				t.Fatal(err)
			}
		}
	}

	for i, v := range ref.LoadsInt() {
		if second.LoadsInt()[i] != v {
			t.Fatalf("resumed dynamic run diverged at node %d: %d vs %d",
				i, second.LoadsInt()[i], v)
		}
	}
}

// TestAdaptivePolicySeesPostInjectionLoads pins the evaluation order: the
// workload injects before the policy decides, so a controller sees the
// burst in the same round it lands. A balanced SOS start would otherwise
// look plateaued at round 1 and switch to FOS — exactly the lag the
// re-arming design exists to avoid.
func TestAdaptivePolicySeesPostInjectionLoads(t *testing.T) {
	g, err := graph.Torus2D(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	op, err := spectral.NewOperator(g, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	x0 := make([]int64, 16)
	for i := range x0 {
		x0[i] = 100
	}
	// β near the 4x4-torus optimum so the burst drains within the run.
	proc, err := core.NewDiscrete(core.Config{Op: op, Kind: core.SOS, Beta: 1.1}, nil, 1, x0)
	if err != nil {
		t.Fatal(err)
	}
	wl := workload.NewBurst(1, 0, 100_000)
	policy, err := core.PolicyFromSpec("adaptive:16:64:0")
	if err != nil {
		t.Fatal(err)
	}
	res, err := (&Runner{Proc: proc, Workload: wl, Adaptive: policy, Every: 1}).Run(200)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range res.Switches {
		if ev.Round == 1 && ev.To == core.FOS {
			t.Fatalf("policy switched to FOS at round 1 — it decided on pre-injection loads (history %v)", res.Switches)
		}
	}
	if len(res.Switches) == 0 || res.Switches[len(res.Switches)-1].To != core.FOS {
		t.Fatalf("run should eventually plateau-switch to FOS after draining the burst; history %v", res.Switches)
	}
}

// TestSwitchHistoryDeterministicAcrossStepWorkers is the adaptive-hybrid
// acceptance criterion: Result.Switches is bit-identical for every per-step
// worker count. The 64x64 torus has exactly 4096 nodes — the parallelFor
// fan-out threshold — so Workers>1 genuinely runs the goroutine path.
func TestSwitchHistoryDeterministicAcrossStepWorkers(t *testing.T) {
	old := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(old)
	g, err := graph.Torus2D(64, 64)
	if err != nil {
		t.Fatal(err)
	}
	op, err := spectral.NewOperator(g, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumNodes()
	x0 := make([]int64, n)
	for i := range x0 {
		x0[i] = 1000
	}
	run := func(workers int) *Result {
		proc, err := core.NewDiscrete(core.Config{Op: op, Kind: core.SOS, Beta: 1.9, Workers: workers},
			core.RandomizedRounder{}, 7, x0)
		if err != nil {
			t.Fatal(err)
		}
		wl, err := workload.FromSpec(fmt.Sprintf("burst:30:%d:0+churn:5:100:100", 50*n), n, 9)
		if err != nil {
			t.Fatal(err)
		}
		policy, err := core.PolicyFromSpec("adaptive:16:64:10")
		if err != nil {
			t.Fatal(err)
		}
		res, err := (&Runner{Proc: proc, Workload: wl, Adaptive: policy, Every: 1,
			Metrics: []Metric{Discrepancy()}}).Run(80)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq := run(1)
	// The scenario must actually exercise re-arming, or the determinism
	// claim is vacuous: plateau switch to FOS, then the round-30 burst
	// re-arms SOS.
	if len(seq.Switches) < 2 || seq.Switches[1].To != core.SOS {
		t.Fatalf("scenario did not re-arm: switches %v", seq.Switches)
	}
	for _, workers := range []int{4, 8} {
		par := run(workers)
		if !reflect.DeepEqual(par.Switches, seq.Switches) {
			t.Fatalf("Workers=%d switch history %v differs from sequential %v",
				workers, par.Switches, seq.Switches)
		}
	}
}
