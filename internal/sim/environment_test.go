package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"diffusionlb/internal/core"
	"diffusionlb/internal/envdyn"
	"diffusionlb/internal/graph"
	"diffusionlb/internal/hetero"
	"diffusionlb/internal/metrics"
	"diffusionlb/internal/spectral"
	"diffusionlb/internal/workload"
)

// envFixture builds a torus with two-class speeds, a proportionally
// balanced start and a one-shot throttle environment.
type envFixture struct {
	g       *graph.Graph
	sp      *hetero.Speeds
	x0      []int64
	n       int
	envSpec string
	event   int
}

func newEnvFixture(t testing.TB, side, event int) *envFixture {
	t.Helper()
	g, err := graph.Torus2D(side, side)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumNodes()
	sp, err := hetero.TwoClass(n, 0.25, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	x0, err := metrics.ProportionalLoad(int64(n)*1000, sp)
	if err != nil {
		t.Fatal(err)
	}
	return &envFixture{
		g: g, sp: sp, x0: x0, n: n,
		envSpec: fmt.Sprintf("throttle:at=%d,frac=0.125,factor=0.25", event),
		event:   event,
	}
}

func (f *envFixture) operator(t testing.TB) *spectral.Operator {
	t.Helper()
	op, err := spectral.NewOperator(f.g, f.sp, nil)
	if err != nil {
		t.Fatal(err)
	}
	return op
}

func (f *envFixture) dynamics(t testing.TB) envdyn.Dynamics {
	t.Helper()
	dyn, err := envdyn.FromSpec(f.envSpec, f.n, 5)
	if err != nil {
		t.Fatal(err)
	}
	return dyn
}

// TestRunnerAppliesEnvironment: the throttle event must reweight the shared
// operator (speed_sum drops), record a SpeedEvent, and re-inflate the
// ideal-load drift, which the scheme then drives back down.
func TestRunnerAppliesEnvironment(t *testing.T) {
	f := newEnvFixture(t, 8, 20)
	op := f.operator(t)
	proc, err := core.NewDiscrete(core.Config{Op: op, Kind: core.SOS, Beta: 1.8}, nil, 3, f.x0)
	if err != nil {
		t.Fatal(err)
	}
	sumBefore := op.Speeds().Sum()
	res, err := (&Runner{
		Proc:        proc,
		Environment: f.dynamics(t),
		Every:       1,
		Metrics:     EnvironmentMetrics(),
	}).Run(120)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SpeedEvents) != 1 {
		t.Fatalf("SpeedEvents = %v, want exactly the throttle event", res.SpeedEvents)
	}
	ev := res.SpeedEvents[0]
	if ev.Round != f.event || ev.Nodes == 0 || ev.Sum >= sumBefore {
		t.Fatalf("SpeedEvent = %+v, want round %d with a reduced speed sum (< %g)", ev, f.event, sumBefore)
	}
	if got := op.Speeds().Sum(); got != ev.Sum {
		t.Errorf("operator speed sum %g, event says %g — reweight not applied in place?", got, ev.Sum)
	}
	sums, err := res.Series.Column("speed_sum")
	if err != nil {
		t.Fatal(err)
	}
	if sums[f.event-1] != sumBefore || sums[f.event] != ev.Sum {
		t.Errorf("speed_sum around the event = %g -> %g, want %g -> %g",
			sums[f.event-1], sums[f.event], sumBefore, ev.Sum)
	}
	drift, err := res.Series.Column("ideal_drift")
	if err != nil {
		t.Fatal(err)
	}
	pre := drift[f.event-1]
	if drift[f.event] < 4*pre+8 {
		t.Errorf("drift %g -> %g across the event; the moved target should re-inflate it", pre, drift[f.event])
	}
	retrack, err := RoundsToRecover(res.Series, "ideal_drift", f.event, pre+8)
	if err != nil {
		t.Fatal(err)
	}
	if retrack <= 0 {
		t.Errorf("RoundsToRecover = %d, want a positive re-tracking time", retrack)
	}
}

// TestRunnerEnvironmentRequiresRetargeter mirrors the workload/Injector
// configuration checks.
func TestRunnerEnvironmentRequiresRetargeter(t *testing.T) {
	f := newEnvFixture(t, 4, 5)
	op := f.operator(t)
	proc, err := core.NewDiscrete(core.Config{Op: op, Kind: core.FOS}, nil, 1, f.x0)
	if err != nil {
		t.Fatal(err)
	}
	dyn := f.dynamics(t)
	if _, err := (&Runner{Proc: noRetarget{proc}, Environment: dyn}).Run(5); err == nil {
		t.Fatal("Runner should reject an environment on a process without Retarget")
	}
	if _, err := (&Runner{Proc: proc, Lockstep: []core.Process{noRetarget{proc}}, Environment: dyn}).Run(5); err == nil {
		t.Fatal("Runner should reject a non-retargetable lockstep process")
	}
	// A lockstep reference on its own operator copy would chase stale
	// targets.
	other, err := core.NewContinuous(core.Config{Op: f.operator(t), Kind: core.FOS}, make([]float64, f.n))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (&Runner{Proc: proc, Lockstep: []core.Process{other}, Environment: dyn}).Run(5); err == nil {
		t.Fatal("Runner should reject a lockstep process on a different operator")
	}
}

// noRetarget hides the Retarget method of an embedded process.
type noRetarget struct{ *core.Discrete }

func (n noRetarget) Retarget() {} // different arity: does not satisfy core.Retargeter

// TestEnvironmentLockstepSharedOperator: a continuous lockstep reference on
// the shared operator follows the same speed trajectory, so the deviation
// metric stays at rounding scale across the event.
func TestEnvironmentLockstepSharedOperator(t *testing.T) {
	f := newEnvFixture(t, 6, 10)
	op := f.operator(t)
	proc, err := core.NewDiscrete(core.Config{Op: op, Kind: core.SOS, Beta: 1.5}, nil, 3, f.x0)
	if err != nil {
		t.Fatal(err)
	}
	xf := make([]float64, f.n)
	for i, v := range f.x0 {
		xf[i] = float64(v)
	}
	ref, err := core.NewContinuous(core.Config{Op: op, Kind: core.SOS, Beta: 1.5}, xf)
	if err != nil {
		t.Fatal(err)
	}
	res, err := (&Runner{
		Proc:        proc,
		Lockstep:    []core.Process{ref},
		Environment: f.dynamics(t),
		Every:       1,
		Metrics:     []Metric{DeviationFrom(ref, "dev")},
	}).Run(60)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SpeedEvents) != 1 {
		t.Fatalf("SpeedEvents = %v", res.SpeedEvents)
	}
	if ref.Retargets() != 1 {
		t.Errorf("lockstep reference saw %d retargets, want 1", ref.Retargets())
	}
	dev, err := res.Series.Last("dev")
	if err != nil {
		t.Fatal(err)
	}
	if dev > 100 {
		t.Errorf("deviation %g after the event — lockstep reference chased a stale target", dev)
	}
}

// TestEnvironmentCheckpointResumeAcrossSpeedEvent is the satellite
// checkpoint coverage: a run cut around a speed event and resumed into a
// fresh process/operator/applier continues bit-identically, because the
// effective speeds are a pure function of the round. Two cut positions
// matter: BEFORE the event (the event replays after the resume) and AFTER
// it (the resume recipe must re-apply the effective speeds of the cut
// round before the first step, exactly as the Checkpoint.Retargets doc
// prescribes — a fresh base operator would otherwise run one round on
// stale speeds).
func TestEnvironmentCheckpointResumeAcrossSpeedEvent(t *testing.T) {
	for _, cut := range []int{25, 55} {
		t.Run(map[int]string{25: "cut-before-event", 55: "cut-after-event"}[cut], func(t *testing.T) {
			testEnvCheckpointResume(t, cut)
		})
	}
}

func testEnvCheckpointResume(t *testing.T, cut int) {
	const rounds = 80
	f := newEnvFixture(t, 6, 40) // throttle event at round 40
	wlSpec, wlSeed := "churn:6:30:30", uint64(21)

	newProc := func(op *spectral.Operator) *core.Discrete {
		proc, err := core.NewDiscrete(core.Config{Op: op, Kind: core.SOS, Beta: 1.8}, nil, 9, f.x0)
		if err != nil {
			t.Fatal(err)
		}
		return proc
	}
	newWl := func() workload.Mutator {
		wl, err := workload.FromSpec(wlSpec, f.n, wlSeed)
		if err != nil {
			t.Fatal(err)
		}
		return wl
	}

	// Uninterrupted reference.
	refOp := f.operator(t)
	ref := newProc(refOp)
	refRes, err := (&Runner{Proc: ref, Environment: f.dynamics(t), Workload: newWl()}).Run(rounds)
	if err != nil {
		t.Fatal(err)
	}
	if len(refRes.SpeedEvents) != 1 || refRes.SpeedEvents[0].Round != 40 {
		t.Fatalf("reference run events %v, want the round-40 throttle", refRes.SpeedEvents)
	}

	// Interrupted run: stop at the cut (before the event), checkpoint,
	// restore into a fresh process over a fresh base operator, and continue
	// manually with a fresh applier and same-seed workload.
	firstOp := f.operator(t)
	first := newProc(firstOp)
	if _, err := (&Runner{Proc: first, Environment: f.dynamics(t), Workload: newWl()}).Run(cut); err != nil {
		t.Fatal(err)
	}
	cp := first.Checkpoint()

	secondOp := f.operator(t)
	second := newProc(secondOp)
	if err := second.Restore(cp); err != nil {
		t.Fatal(err)
	}
	applier, err := envdyn.NewApplier(secondOp.Speeds(), f.n, f.dynamics(t))
	if err != nil {
		t.Fatal(err)
	}
	// Re-establish the cut round's effective speeds before the first step:
	// the fresh operator carries the base speeds, so when the cut lands
	// after the event the next step would otherwise run on stale targets.
	if sp, changed, err := applier.SpeedsAt(cut); err != nil {
		t.Fatal(err)
	} else if changed > 0 {
		if cut < 40 {
			t.Fatalf("speeds changed at the pre-event cut round %d", cut)
		}
		if err := secondOp.Reweight(sp); err != nil {
			t.Fatal(err)
		}
		if err := second.Retarget(secondOp); err != nil {
			t.Fatal(err)
		}
	}
	wl := newWl()
	deltas := make([]int64, f.n)
	for second.Round() < rounds {
		second.Step()
		round := second.Round()
		sp, changed, err := applier.SpeedsAt(round)
		if err != nil {
			t.Fatal(err)
		}
		if changed > 0 {
			if err := secondOp.Reweight(sp); err != nil {
				t.Fatal(err)
			}
			if err := second.Retarget(secondOp); err != nil {
				t.Fatal(err)
			}
		}
		for i := range deltas {
			deltas[i] = 0
		}
		if wl.Deltas(round, workload.IntLoads(second.LoadsInt()), deltas) {
			if err := second.Inject(deltas); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, v := range ref.LoadsInt() {
		if second.LoadsInt()[i] != v {
			t.Fatalf("resumed environment run diverged at node %d: %d vs %d", i, second.LoadsInt()[i], v)
		}
	}
	if refTok, _ := ref.Traffic(); func() int64 { tok, _ := second.Traffic(); return tok }() != refTok {
		t.Error("traffic counters diverged across the resume")
	}
}

// TestEnvironmentDeterministicAcrossStepWorkers is part of the acceptance
// criterion: speed-event histories, switch histories and final loads are
// bit-identical for every per-step worker count. 4096 nodes puts Workers>1
// on the real parallelFor goroutine path.
func TestEnvironmentDeterministicAcrossStepWorkers(t *testing.T) {
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
		op, err := spectral.NewOperator(g, sp, nil)
		if err != nil {
			t.Fatal(err)
		}
		proc, err := core.NewDiscrete(core.Config{Op: op, Kind: core.SOS, Beta: 1.9, Workers: workers},
			core.RandomizedRounder{}, 7, x0)
		if err != nil {
			t.Fatal(err)
		}
		dyn, err := envdyn.FromSpec("throttle:at=25,frac=0.125,factor=0.25+jitter:sigma=0.05,frac=0.03", n, 5)
		if err != nil {
			t.Fatal(err)
		}
		policy, err := core.PolicyFromSpec("adaptive:16:64:10")
		if err != nil {
			t.Fatal(err)
		}
		res, err := (&Runner{Proc: proc, Environment: dyn, Adaptive: policy, Every: 10,
			Metrics: EnvironmentMetrics()}).Run(60)
		if err != nil {
			t.Fatal(err)
		}
		return res, append([]int64(nil), proc.LoadsInt()...)
	}
	seqRes, seqLoads := run(1)
	if len(seqRes.SpeedEvents) < 2 {
		t.Fatalf("scenario produced %d speed events; jitter should fire repeatedly", len(seqRes.SpeedEvents))
	}
	for _, workers := range []int{4, 8} {
		parRes, parLoads := run(workers)
		if !reflect.DeepEqual(parRes.SpeedEvents, seqRes.SpeedEvents) {
			t.Fatalf("Workers=%d speed events differ from sequential", workers)
		}
		if !reflect.DeepEqual(parRes.Switches, seqRes.Switches) {
			t.Fatalf("Workers=%d switch history differs from sequential", workers)
		}
		if !reflect.DeepEqual(parLoads, seqLoads) {
			t.Fatalf("Workers=%d final loads differ from sequential", workers)
		}
	}
}
