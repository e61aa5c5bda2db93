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
	"diffusionlb/internal/nodeset"
	"diffusionlb/internal/scenario"
	"diffusionlb/internal/spectral"
	"diffusionlb/internal/workload"
)

// scenarioFixture builds the standard coupled-scenario testbed: a two-class
// torus with a proportional start.
type scenarioFixture struct {
	g  *graph.Graph
	sp *hetero.Speeds
	x0 []int64
	n  int
}

func newScenarioFixture(t testing.TB, side int) *scenarioFixture {
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
	return &scenarioFixture{g: g, sp: sp, x0: x0, n: n}
}

func (f *scenarioFixture) operator(t testing.TB) *spectral.Operator {
	t.Helper()
	op, err := spectral.NewOperator(f.g, f.sp, nil)
	if err != nil {
		t.Fatal(err)
	}
	return op
}

func (f *scenarioFixture) scenario(t testing.TB, spec string, seed uint64) *scenario.Scenario {
	t.Helper()
	s, err := scenario.FromSpec(spec, f.n, seed)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestRunnerAppliesScenario: a coupled drain must, in every ramp round,
// change speeds AND move load in one recorded unit, conserve total load
// exactly, and leave the drained nodes empty at the end of the ramp.
func TestRunnerAppliesScenario(t *testing.T) {
	f := newScenarioFixture(t, 8)
	op := f.operator(t)
	proc, err := core.NewDiscrete(core.Config{Op: op, Kind: core.SOS, Beta: 1.8}, nil, 3, f.x0)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, v := range f.x0 {
		total += v
	}
	sumBefore := op.Speeds().Sum()
	drained := nodeset.Pick(f.sp, f.n, 0.125, nodeset.Fast, 0) // seed irrelevant for sel=fast

	var rampEndLoads []int64
	res, err := (&Runner{
		Proc:     proc,
		Scenario: f.scenario(t, "drain:at=20,frac=0.125,ramp=4", 5),
		Every:    1,
		Metrics:  ScenarioMetrics(),
		OnRound: func(round int, p core.Process) {
			if round == 23 {
				rampEndLoads = append([]int64(nil), p.Loads().Int...)
			}
		},
	}).Run(60)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SpeedEvents) != 0 {
		t.Errorf("scenario run recorded %d SpeedEvents; coupled events belong in ScenarioEvents", len(res.SpeedEvents))
	}
	if len(res.ScenarioEvents) != 4 {
		t.Fatalf("ScenarioEvents = %v, want the 4 ramp rounds", res.ScenarioEvents)
	}
	for i, ev := range res.ScenarioEvents {
		if ev.Round != 20+i {
			t.Errorf("event %d at round %d, want %d", i, ev.Round, 20+i)
		}
		if ev.Moved == 0 {
			t.Errorf("event %+v moved no load; every ramp round migrates", ev)
		}
		// Effective speeds move on every ramp round until the clamp floor of
		// 1 is reached (multipliers 0.75/0.5/0.25 on speed 4 → 3/2/1); the
		// final ramp round only finishes the migration.
		if wantSpeed := i < 3; (ev.Nodes > 0) != wantSpeed {
			t.Errorf("event %+v: speed-changed nodes = %d, want change %v", ev, ev.Nodes, wantSpeed)
		}
	}
	if got := op.Speeds().Sum(); got >= sumBefore || got != res.ScenarioEvents[3].Sum {
		t.Errorf("post-drain speed sum %g (start %g, event says %g)", got, sumBefore, res.ScenarioEvents[3].Sum)
	}
	for _, i := range drained {
		if op.Speeds().Of(i) != 1 {
			t.Errorf("drained node %d still at speed %g", i, op.Speeds().Of(i))
		}
		if rampEndLoads[i] != 0 {
			t.Errorf("drained node %d held %d tokens at the end of the ramp", i, rampEndLoads[i])
		}
	}
	if got := proc.TotalLoad(); got != total {
		t.Errorf("total load %d -> %d; migration must conserve", total, got)
	}
	// The migration is not an external injection: nothing arrived from
	// outside the network.
	if added, removed := proc.Injected(); added != removed {
		t.Errorf("injection accounting %d/%d; migration must net to zero", added, removed)
	}
}

// TestRunnerScenarioConfigErrors mirrors the workload/environment
// configuration checks.
func TestRunnerScenarioConfigErrors(t *testing.T) {
	f := newScenarioFixture(t, 4)
	op := f.operator(t)
	proc, err := core.NewDiscrete(core.Config{Op: op, Kind: core.FOS}, nil, 1, f.x0)
	if err != nil {
		t.Fatal(err)
	}
	sc := f.scenario(t, "drain:at=5,frac=0.25", 1)
	env, err := envdyn.FromSpec("throttle:at=5,frac=0.25,factor=0.5", f.n, 1)
	if err != nil {
		t.Fatal(err)
	}
	cont, err := core.NewContinuous(core.Config{Op: f.operator(t), Kind: core.FOS}, make([]float64, f.n))
	if err != nil {
		t.Fatal(err)
	}
	expectRejected(t, &Runner{Proc: proc, Scenario: sc, Environment: env},
		"set either Runner.Environment or Runner.Scenario, not both")
	expectRejected(t, &Runner{Proc: noRetarget{proc}, Scenario: sc},
		"but process sim.noRetarget does not implement core.Retargeter")
	expectRejected(t, &Runner{Proc: noInject{proc}, Scenario: sc},
		`Scenario "drain:at=5,frac=0.25" set but process sim.noInject does not implement core.Injector`)
	expectRejected(t, &Runner{Proc: proc, Lockstep: []core.Process{noInject{proc}}, Scenario: sc},
		`Scenario "drain:at=5,frac=0.25" set but lockstep process sim.noInject does not implement core.Injector`)
	expectRejected(t, &Runner{Proc: proc, Lockstep: []core.Process{cont}, Scenario: sc},
		"but lockstep process *core.Continuous does not share the main operator")
}

// TestScenarioCheckpointResumeMidRamp is the satellite coverage: a run cut
// *inside* the drain ramp — mid-migration — and resumed into a fresh
// process/operator/applier continues bit-identically, because the speed
// half is a pure function of the round and the load half a pure function of
// (round, loads).
func TestScenarioCheckpointResumeMidRamp(t *testing.T) {
	for _, cut := range []int{25, 43, 55} {
		name := map[int]string{25: "cut-before-ramp", 43: "cut-mid-ramp", 55: "cut-after-ramp"}[cut]
		t.Run(name, func(t *testing.T) { testScenarioCheckpointResume(t, cut) })
	}
}

func testScenarioCheckpointResume(t *testing.T, cut int) {
	const rounds = 80
	const scSpec = "drain:at=40,frac=0.125,ramp=8" // ramp rounds 40..47
	const scSeed = 5
	f := newScenarioFixture(t, 6)
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

	// Uninterrupted reference (with a background workload on top, so the
	// scenario's migration and the workload's churn interleave).
	ref := newProc(f.operator(t))
	refRes, err := (&Runner{Proc: ref, Scenario: f.scenario(t, scSpec, scSeed), Workload: newWl()}).Run(rounds)
	if err != nil {
		t.Fatal(err)
	}
	if len(refRes.ScenarioEvents) != 8 || refRes.ScenarioEvents[0].Round != 40 {
		t.Fatalf("reference scenario events %v, want the 8-round ramp from 40", refRes.ScenarioEvents)
	}

	// Interrupted run: stop at the cut, checkpoint, restore into a fresh
	// process over a fresh base operator, and continue manually with a
	// fresh applier, scenario and same-seed workload.
	first := newProc(f.operator(t))
	if _, err := (&Runner{Proc: first, Scenario: f.scenario(t, scSpec, scSeed), Workload: newWl()}).Run(cut); err != nil {
		t.Fatal(err)
	}
	cp := first.Checkpoint()

	secondOp := f.operator(t)
	second := newProc(secondOp)
	if err := second.Restore(cp); err != nil {
		t.Fatal(err)
	}
	sc := f.scenario(t, scSpec, scSeed)
	base := secondOp.Speeds() // base speeds before any reweight
	applier, err := envdyn.NewApplier(base, f.n, sc.Dynamics())
	if err != nil {
		t.Fatal(err)
	}
	mut := sc.Mutator(secondOp.Graph(), base)
	// Re-establish the cut round's effective speeds before the first step:
	// inside the ramp the fresh operator's base speeds are stale.
	if sp, changed, err := applier.SpeedsAt(cut); err != nil {
		t.Fatal(err)
	} else if changed > 0 {
		if cut < 40 {
			t.Fatalf("speeds changed at the pre-ramp cut round %d", cut)
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
		if mut.Deltas(round, workload.IntLoads(second.LoadsInt()), deltas) {
			if err := second.Inject(deltas); err != nil {
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
			t.Fatalf("resumed scenario run diverged at node %d: %d vs %d", i, second.LoadsInt()[i], v)
		}
	}
	refTok, _ := ref.Traffic()
	gotTok, _ := second.Traffic()
	if gotTok != refTok {
		t.Error("traffic counters diverged across the resume")
	}
}

// TestScenarioDeterministicAcrossStepWorkers: scenario histories and final
// loads are bit-identical for every per-step worker count (the cell-worker
// half of the criterion lives in the experiments and sweep tests).
func TestScenarioDeterministicAcrossStepWorkers(t *testing.T) {
	old := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(old)
	f := newScenarioFixture(t, 64)
	run := func(workers int) (*Result, []int64) {
		op := f.operator(t)
		proc, err := core.NewDiscrete(core.Config{Op: op, Kind: core.SOS, Beta: 1.9, Workers: workers},
			core.RandomizedRounder{}, 7, f.x0)
		if err != nil {
			t.Fatal(err)
		}
		policy, err := core.PolicyFromSpec("adaptive:16:64:10")
		if err != nil {
			t.Fatal(err)
		}
		res, err := (&Runner{
			Proc:     proc,
			Scenario: f.scenario(t, "drain:at=15,frac=0.125,ramp=6+cascade:at=30,waves=2,gap=8,jitter=3,frac=0.05,factor=0.5,load=5000", 5),
			Adaptive: policy,
			Every:    10,
			Metrics:  ScenarioMetrics(),
		}).Run(50)
		if err != nil {
			t.Fatal(err)
		}
		return res, append([]int64(nil), proc.LoadsInt()...)
	}
	seqRes, seqLoads := run(1)
	if len(seqRes.ScenarioEvents) < 8 {
		t.Fatalf("scenario produced %d events; drain ramp + cascade waves expected", len(seqRes.ScenarioEvents))
	}
	for _, workers := range []int{4, 8} {
		parRes, parLoads := run(workers)
		if !reflect.DeepEqual(parRes.ScenarioEvents, seqRes.ScenarioEvents) {
			t.Fatalf("Workers=%d scenario events differ from sequential", workers)
		}
		if !reflect.DeepEqual(parRes.Switches, seqRes.Switches) {
			t.Fatalf("Workers=%d switch history differs from sequential", workers)
		}
		if !reflect.DeepEqual(parLoads, seqLoads) {
			t.Fatalf("Workers=%d final loads differ from sequential", workers)
		}
	}
}

// TestRunnerBetaReopt: a drain that collapses the fast class re-optimizes β
// the round the drift crosses the threshold; the installed β is exactly the
// β_opt of the reweighted operator, and lockstep references get it too.
func TestRunnerBetaReopt(t *testing.T) {
	f := newScenarioFixture(t, 8)
	op := f.operator(t)
	proc, err := core.NewDiscrete(core.Config{Op: op, Kind: core.SOS, Beta: 1.8}, nil, 3, f.x0)
	if err != nil {
		t.Fatal(err)
	}
	xf := make([]float64, f.n)
	for i, v := range f.x0 {
		xf[i] = float64(v)
	}
	ref, err := core.NewContinuous(core.Config{Op: op, Kind: core.SOS, Beta: 1.8}, xf)
	if err != nil {
		t.Fatal(err)
	}
	res, err := (&Runner{
		Proc:      proc,
		Lockstep:  []core.Process{ref},
		Scenario:  f.scenario(t, "drain:at=10,frac=0.25,ramp=1", 5),
		BetaReopt: &BetaReopt{Threshold: 0.05, Power: spectral.PowerOptions{Tol: 1e-10}},
	}).Run(30)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.BetaEvents) != 1 {
		t.Fatalf("BetaEvents = %v, want exactly one re-opt on the drain", res.BetaEvents)
	}
	ev := res.BetaEvents[0]
	if ev.Round != 10 {
		t.Errorf("re-opt at round %d, want the drain round 10", ev.Round)
	}
	lam, _, err := op.SecondEigenvalue(spectral.PowerOptions{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	wantBeta, err := spectral.BetaOpt(lam)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Lambda != lam || ev.Beta != wantBeta {
		t.Errorf("BetaEvent %+v, want lambda=%g beta=%g of the post-drain operator", ev, lam, wantBeta)
	}
	if proc.Beta() != wantBeta || ref.Beta() != wantBeta {
		t.Errorf("engine betas %g/%g after the re-opt, want %g on main and lockstep", proc.Beta(), ref.Beta(), wantBeta)
	}
	if wantBeta >= 1.8 {
		t.Errorf("post-drain beta_opt %g did not drop below the stale 1.8 — scenario mis-sized", wantBeta)
	}
	if res.StaleBetaRounds != 0 {
		t.Errorf("StaleBetaRounds = %d without a cooldown", res.StaleBetaRounds)
	}
}

// TestRunnerBetaReoptCooldownCountsStaleRounds: with a slow drain ramp and
// a cooldown, qualifying drift accumulates stale-β rounds between re-opts.
func TestRunnerBetaReoptCooldownCountsStaleRounds(t *testing.T) {
	f := newScenarioFixture(t, 8)
	op := f.operator(t)
	proc, err := core.NewDiscrete(core.Config{Op: op, Kind: core.SOS, Beta: 1.8}, nil, 3, f.x0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := (&Runner{
		Proc:      proc,
		Scenario:  f.scenario(t, "drain:at=5,frac=0.25,ramp=20", 5),
		BetaReopt: &BetaReopt{Threshold: 0.04, Cooldown: 8, Power: spectral.PowerOptions{Tol: 1e-8}},
	}).Run(40)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.BetaEvents) < 2 {
		t.Fatalf("BetaEvents = %v, want repeated re-opts along the ramp", res.BetaEvents)
	}
	for i := 1; i < len(res.BetaEvents); i++ {
		if d := res.BetaEvents[i].Round - res.BetaEvents[i-1].Round; d < 8 {
			t.Errorf("re-opts %d rounds apart, cooldown is 8", d)
		}
	}
	if res.StaleBetaRounds == 0 {
		t.Error("StaleBetaRounds = 0; the cooldown should have delayed qualifying drift")
	}
}

// TestBetaReoptCheckpointResumeMidRamp: the re-opt trigger state lives in
// the driver, not in the engine checkpoint — a resumed run re-establishes
// it by seeding BetaReoptState from the original run's recorded BetaEvents
// (BaseSum/LastReopt) while Checkpoint.Beta carries the β value itself.
// With that recipe a cut in the middle of the drain ramp — between two β
// re-opts — resumes bit-identically, events and loads both.
func TestBetaReoptCheckpointResumeMidRamp(t *testing.T) {
	const rounds, cut = 80, 43
	const scSpec, scSeed = "drain:at=40,frac=0.25,ramp=8", uint64(5)
	f := newScenarioFixture(t, 8)
	cfg := BetaReopt{Threshold: 0.08, Cooldown: 2, Power: spectral.PowerOptions{Tol: 1e-10}}

	newProc := func(op *spectral.Operator) *core.Discrete {
		proc, err := core.NewDiscrete(core.Config{Op: op, Kind: core.SOS, Beta: 1.8}, nil, 9, f.x0)
		if err != nil {
			t.Fatal(err)
		}
		return proc
	}
	runTo := func(n int) (*core.Discrete, *Result) {
		proc := newProc(f.operator(t))
		res, err := (&Runner{Proc: proc, Scenario: f.scenario(t, scSpec, scSeed), BetaReopt: &cfg}).Run(n)
		if err != nil {
			t.Fatal(err)
		}
		return proc, res
	}

	ref, refRes := runTo(rounds)
	if len(refRes.BetaEvents) < 2 {
		t.Fatalf("reference run re-opted %d times, want re-opts on both sides of the cut: %v", len(refRes.BetaEvents), refRes.BetaEvents)
	}
	first, firstRes := runTo(cut)
	if n := len(firstRes.BetaEvents); n < 1 || firstRes.BetaEvents[n-1].Round > cut {
		t.Fatalf("cut-side run events %v, want at least one re-opt before the cut", firstRes.BetaEvents)
	}
	cp := first.Checkpoint()

	// Resume: fresh everything, then replay the recipe — re-apply the cut
	// round's speeds, restore the checkpoint (β included), and seed the
	// trigger from the last recorded event.
	secondOp := f.operator(t)
	second := newProc(secondOp)
	if err := second.Restore(cp); err != nil {
		t.Fatal(err)
	}
	sc := f.scenario(t, scSpec, scSeed)
	base := secondOp.Speeds()
	applier, err := envdyn.NewApplier(base, f.n, sc.Dynamics())
	if err != nil {
		t.Fatal(err)
	}
	mut := sc.Mutator(secondOp.Graph(), base)
	if sp, changed, err := applier.SpeedsAt(cut); err != nil {
		t.Fatal(err)
	} else if changed > 0 {
		if err := secondOp.Reweight(sp); err != nil {
			t.Fatal(err)
		}
		if err := second.Retarget(secondOp); err != nil {
			t.Fatal(err)
		}
	}
	state := NewBetaReoptState(cfg, base.Sum(), second)
	if n := len(firstRes.BetaEvents); n > 0 {
		last := firstRes.BetaEvents[n-1]
		state.BaseSum, state.LastReopt = last.Sum, last.Round
	}
	gotEvents := append([]BetaEvent(nil), firstRes.BetaEvents...)
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
		ev, err := state.Step(round, secondOp)
		if err != nil {
			t.Fatal(err)
		}
		if ev != nil {
			gotEvents = append(gotEvents, *ev)
		}
		for i := range deltas {
			deltas[i] = 0
		}
		if mut.Deltas(round, workload.IntLoads(second.LoadsInt()), deltas) {
			if err := second.Inject(deltas); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !reflect.DeepEqual(gotEvents, refRes.BetaEvents) {
		t.Fatalf("resumed β events %v differ from uninterrupted %v", gotEvents, refRes.BetaEvents)
	}
	if second.Beta() != ref.Beta() {
		t.Fatalf("resumed final β %g, uninterrupted %g", second.Beta(), ref.Beta())
	}
	for i, v := range ref.LoadsInt() {
		if second.LoadsInt()[i] != v {
			t.Fatalf("resumed β-reopt run diverged at node %d: %d vs %d", i, second.LoadsInt()[i], v)
		}
	}
}

// TestRunnerBetaReoptRequiresBetaSetter mirrors the other capability checks.
func TestRunnerBetaReoptRequiresBetaSetter(t *testing.T) {
	f := newScenarioFixture(t, 4)
	proc, err := core.NewDiscrete(core.Config{Op: f.operator(t), Kind: core.FOS}, nil, 1, f.x0)
	if err != nil {
		t.Fatal(err)
	}
	expectRejected(t, &Runner{Proc: noSetBeta{proc}, BetaReopt: &BetaReopt{}},
		"BetaReopt set but process sim.noSetBeta does not implement core.BetaSetter")
	expectRejected(t, &Runner{Proc: proc, Lockstep: []core.Process{noSetBeta{proc}}, BetaReopt: &BetaReopt{}},
		"BetaReopt set but lockstep process sim.noSetBeta does not implement core.BetaSetter")
}

// noSetBeta hides the SetBeta method of an embedded process.
type noSetBeta struct{ *core.Discrete }

func (n noSetBeta) SetBeta() {} // different arity: does not satisfy core.BetaSetter

// TestCheckpointCarriesBeta: a checkpoint taken after a β re-opt restores
// the re-optimized β, not the constructor's.
func TestCheckpointCarriesBeta(t *testing.T) {
	f := newScenarioFixture(t, 4)
	op := f.operator(t)
	proc, err := core.NewDiscrete(core.Config{Op: op, Kind: core.SOS, Beta: 1.8}, nil, 1, f.x0)
	if err != nil {
		t.Fatal(err)
	}
	if err := proc.SetBeta(1.5); err != nil {
		t.Fatal(err)
	}
	cp := proc.Checkpoint()
	other, err := core.NewDiscrete(core.Config{Op: op, Kind: core.SOS, Beta: 1.8}, nil, 1, f.x0)
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Restore(cp); err != nil {
		t.Fatal(err)
	}
	if other.Beta() != 1.5 {
		t.Errorf("restored beta %g, want the re-optimized 1.5", other.Beta())
	}
}

// BenchmarkBetaReopt measures the cost of one β re-optimization event: the
// in-place reweight, the power iteration and the engine SetBeta — the price
// the policy pays per qualifying speed event. The operator remembers λ for
// the two most recently seen speed vectors, so a recently seen vector reuses
// its λ bit for bit. "cold" rotates through three distinct vectors, which
// misses that two-entry LRU memo on every event and times power iteration;
// "hit" rotates through two vectors and content-equal copies of them, so
// every event is answered from the memo after a full content compare.
func BenchmarkBetaReopt(b *testing.B) {
	g, err := graph.Torus2D(32, 32)
	if err != nil {
		b.Fatal(err)
	}
	n := g.NumNodes()
	twoClass := func(fast float64) *hetero.Speeds {
		sp, err := hetero.TwoClass(n, 0.25, fast, 7)
		if err != nil {
			b.Fatal(err)
		}
		return sp
	}
	copyOf := func(sp *hetero.Speeds) *hetero.Speeds {
		cp, err := hetero.New(sp.Slice())
		if err != nil {
			b.Fatal(err)
		}
		return cp
	}
	spA, spB := twoClass(4), twoClass(2)
	for _, bc := range []struct {
		name   string
		speeds []*hetero.Speeds
	}{
		{"cold", []*hetero.Speeds{spA, spB, twoClass(3)}},
		{"hit", []*hetero.Speeds{spA, spB, copyOf(spA), copyOf(spB)}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			op, err := spectral.NewOperator(g, bc.speeds[len(bc.speeds)-1], nil)
			if err != nil {
				b.Fatal(err)
			}
			proc, err := core.NewDiscrete(core.Config{Op: op, Kind: core.SOS, Beta: 1.8}, nil, 1, make([]int64, n))
			if err != nil {
				b.Fatal(err)
			}
			opts := spectral.PowerOptions{Tol: 1e-8}
			reopt := func(i int) {
				// Every Reweight installs a vector different from the last.
				if err := op.Reweight(bc.speeds[i%len(bc.speeds)]); err != nil {
					b.Fatal(err)
				}
				lam, _, err := op.SecondEigenvalue(opts)
				if err != nil {
					b.Fatal(err)
				}
				beta, err := spectral.BetaOpt(lam)
				if err != nil {
					b.Fatal(err)
				}
				if err := proc.SetBeta(beta); err != nil {
					b.Fatal(err)
				}
			}
			for i := range bc.speeds {
				reopt(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				reopt(i)
			}
		})
	}
}
