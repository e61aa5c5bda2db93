package actor_test

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"diffusionlb/internal/actor"
	"diffusionlb/internal/core"
	"diffusionlb/internal/graph"
	"diffusionlb/internal/hetero"
	"diffusionlb/internal/spectral"
)

// The actor golden equivalence suite: the message-passing runtime in
// barrier mode, driven through the same dynamics timeline as the engine
// golden tests (injection at round 10, a speed event with retarget at 20,
// a β change at 30, a scheme switch at 40, the speed event reverted at
// 50), must be bit-identical to the shared-memory core.Discrete — loads,
// integer flows and continuous scheduled flows after every round — across
// actor counts 1, 2 and 7 for every rounder × FOS/SOS × hetero/homog.

const goldenRounds = 60

func goldenGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g, err := graph.Torus2D(64, 64)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func goldenSpeeds(t testing.TB, n int) (sp1, sp2 *hetero.Speeds) {
	t.Helper()
	s1 := make([]float64, n)
	s2 := make([]float64, n)
	for i := 0; i < n; i++ {
		s1[i] = 1 + float64(i%5)*0.5
		s2[i] = 1 + float64(i%3)*0.25
	}
	var err error
	if sp1, err = hetero.New(s1); err != nil {
		t.Fatal(err)
	}
	if sp2, err = hetero.New(s2); err != nil {
		t.Fatal(err)
	}
	return sp1, sp2
}

func goldenInitial(n int) []int64 {
	x0 := make([]int64, n)
	for i := range x0 {
		x0[i] = int64((i * i) % 97)
	}
	return x0
}

func goldenDeltas(n int) []int64 {
	deltas := make([]int64, n)
	for i := range deltas {
		deltas[i] = int64(i%7) - 3
	}
	return deltas
}

// timelinePair drives a (reference, actor) pair through one round's worth
// of timeline events; every event lands on both sides.
type timelinePair struct {
	ref *core.Discrete
	act *actor.Runtime
}

// applyTimelineEvent applies the golden timeline's event for the given
// round (if any) to both processes of the pair.
func (p timelinePair) applyTimelineEvent(t *testing.T, round int, op *spectral.Operator, sp1, sp2 *hetero.Speeds, flip core.Kind, deltas []int64) {
	t.Helper()
	switch round {
	case 10:
		if err := firstErr(p.ref.Inject(deltas), p.act.Inject(deltas)); err != nil {
			t.Fatalf("round %d: inject: %v", round, err)
		}
	case 20:
		if err := op.Reweight(sp2); err != nil {
			t.Fatalf("round %d: reweight: %v", round, err)
		}
		if err := firstErr(p.ref.Retarget(op), p.act.Retarget(op)); err != nil {
			t.Fatalf("round %d: retarget: %v", round, err)
		}
	case 30:
		if err := firstErr(p.ref.SetBeta(1.7), p.act.SetBeta(1.7)); err != nil {
			t.Fatalf("round %d: set beta: %v", round, err)
		}
	case 40:
		p.ref.SetKind(flip)
		p.act.SetKind(flip)
	case 50:
		if err := op.Reweight(sp1); err != nil {
			t.Fatalf("round %d: reweight back: %v", round, err)
		}
		if err := firstErr(p.ref.Retarget(op), p.act.Retarget(op)); err != nil {
			t.Fatalf("round %d: retarget: %v", round, err)
		}
	}
}

func eqInt64(t *testing.T, round int, what string, got, want []int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("round %d: %s: length %d vs %d", round, what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("round %d: %s[%d] = %d, reference %d", round, what, i, got[i], want[i])
		}
	}
}

func eqBits(t *testing.T, round int, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("round %d: %s: length %d vs %d", round, what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("round %d: %s[%d] = %x (%g), reference %x (%g)",
				round, what, i, math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
		}
	}
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runGoldenPair drives the pair through the full timeline comparing loads,
// flows and scheduled flows after every round, then the diagnostics.
func runGoldenPair(t *testing.T, p timelinePair, op *spectral.Operator, sp1, sp2 *hetero.Speeds, startKind core.Kind, deltas []int64) {
	t.Helper()
	flip := core.FOS
	if startKind == core.FOS {
		flip = core.SOS
	}
	for round := 0; round < goldenRounds; round++ {
		p.applyTimelineEvent(t, round, op, sp1, sp2, flip, deltas)
		p.ref.Step()
		p.act.Step()
		eqInt64(t, round, "loads", p.act.LoadsInt(), p.ref.LoadsInt())
		eqInt64(t, round, "flows", p.act.Flows(), p.ref.Flows())
		eqBits(t, round, "scheduled", p.act.ScheduledFlows(), p.ref.ScheduledFlows())
		if got := p.act.InFlightLoad(); got != 0 {
			t.Fatalf("round %d: barrier mode has %d tokens in flight, want 0", round, got)
		}
	}
	gotMin, gotSet := p.act.MinTransientInt()
	wantMin, wantSet := p.ref.MinTransientInt()
	if gotMin != wantMin || gotSet != wantSet {
		t.Errorf("min transient %d/%v, reference %d/%v", gotMin, gotSet, wantMin, wantSet)
	}
	if p.act.NegativeTransientRounds() != p.ref.NegativeTransientRounds() {
		t.Errorf("negative transient rounds %d, reference %d",
			p.act.NegativeTransientRounds(), p.ref.NegativeTransientRounds())
	}
	gotTok, gotMsg := p.act.Traffic()
	wantTok, wantMsg := p.ref.Traffic()
	if gotTok != wantTok || gotMsg != wantMsg {
		t.Errorf("traffic %d tokens/%d messages, reference %d/%d", gotTok, gotMsg, wantTok, wantMsg)
	}
}

// TestGoldenActorBarrierMatchesDiscrete pins the tentpole's equivalence
// contract: the actor runtime in barrier mode reproduces the shared-memory
// golden dynamics timeline bit-identically across actor counts 1, 2 and 7
// for all rounders × FOS/SOS on heterogeneous speeds.
func TestGoldenActorBarrierMatchesDiscrete(t *testing.T) {
	g := goldenGraph(t)
	n := g.NumNodes()
	sp1, sp2 := goldenSpeeds(t, n)
	x0 := goldenInitial(n)
	deltas := goldenDeltas(n)
	const seed = 42

	for _, kind := range []core.Kind{core.FOS, core.SOS} {
		for _, name := range []string{"randomized", "floor", "nearest", "bernoulli"} {
			for _, actors := range []int{1, 2, 7} {
				t.Run(fmt.Sprintf("%s/%s/actors=%d", kind, name, actors), func(t *testing.T) {
					rounder, ok := core.RounderByName(name)
					if !ok {
						t.Fatalf("unknown rounder %q", name)
					}
					op, err := spectral.NewOperator(g, sp1, nil)
					if err != nil {
						t.Fatal(err)
					}
					ref, err := core.NewDiscrete(core.Config{Op: op, Kind: kind, Beta: 1.5, Workers: 4}, rounder, seed, x0)
					if err != nil {
						t.Fatal(err)
					}
					a, err := actor.New(op, kind, 1.5, rounder, seed, x0, actor.Options{Actors: actors})
					if err != nil {
						t.Fatal(err)
					}
					runGoldenPair(t, timelinePair{ref: ref, act: a}, op, sp1, sp2, kind, deltas)
				})
			}
		}
	}
}

// TestGoldenActorBarrierOneP runs the barrier equivalence once on one P:
// the actors of a round block on each other's messages, so all of them
// must be live at once even when only one can run, and a fan-out that
// leaves an actor unclaimed deadlocks here instead of in a user's run.
func TestGoldenActorBarrierOneP(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	TestGoldenActorBarrierMatchesDiscrete(t)
}

// TestGoldenActorHomogeneousMatchesDiscrete covers the homogeneous fast
// path of the normalize phase (the timeline still transitions to
// heterogeneous speeds and back, exercising both branches mid-run).
func TestGoldenActorHomogeneousMatchesDiscrete(t *testing.T) {
	g := goldenGraph(t)
	n := g.NumNodes()
	_, sp2 := goldenSpeeds(t, n)
	spH := hetero.Homogeneous(n)
	x0 := goldenInitial(n)
	deltas := goldenDeltas(n)

	for _, actors := range []int{1, 2, 7} {
		t.Run(fmt.Sprintf("actors=%d", actors), func(t *testing.T) {
			op, err := spectral.NewOperator(g, spH, nil)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := core.NewDiscrete(core.Config{Op: op, Kind: core.SOS, Beta: 1.5, Workers: 4}, core.RandomizedRounder{}, 7, x0)
			if err != nil {
				t.Fatal(err)
			}
			a, err := actor.New(op, core.SOS, 1.5, core.RandomizedRounder{}, 7, x0, actor.Options{Actors: actors})
			if err != nil {
				t.Fatal(err)
			}
			runGoldenPair(t, timelinePair{ref: ref, act: a}, op, spH, sp2, core.SOS, deltas)
		})
	}
}

// TestActorStaleZeroDegeneratesToBarrier pins the acceptance criterion
// that async mode with stale=0 IS barrier mode: the same code path, the
// same bit-identical equivalence with the shared-memory engine.
func TestActorStaleZeroDegeneratesToBarrier(t *testing.T) {
	g := goldenGraph(t)
	n := g.NumNodes()
	sp1, _ := goldenSpeeds(t, n)
	x0 := goldenInitial(n)
	op, err := spectral.NewOperator(g, sp1, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := core.NewDiscrete(core.Config{Op: op, Kind: core.SOS, Beta: 1.5, Workers: 2}, nil, 11, x0)
	if err != nil {
		t.Fatal(err)
	}
	o, err := actor.FromSpec("actor:4,stale=0")
	if err != nil {
		t.Fatal(err)
	}
	if o.Stale != 0 {
		t.Fatalf("stale=0 spec parsed to staleness %d", o.Stale)
	}
	a, err := actor.New(op, core.SOS, 1.5, nil, 11, x0, o)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 20; round++ {
		ref.Step()
		a.Step()
		eqInt64(t, round, "loads", a.LoadsInt(), ref.LoadsInt())
		eqInt64(t, round, "flows", a.Flows(), ref.Flows())
	}
}

// TestActorSingleActorStepAllocFree pins the steady-state allocation
// contract on the inline path: one actor means no goroutines, no channels
// and no allocations per round (multi-actor steps pay the per-round
// goroutine spawns, inherent to the message-passing protocol).
func TestActorSingleActorStepAllocFree(t *testing.T) {
	g, err := graph.Torus2D(32, 32)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumNodes()
	sp1, _ := goldenSpeeds(t, n)
	op, err := spectral.NewOperator(g, sp1, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, err := actor.New(op, core.SOS, 1.5, nil, 3, goldenInitial(n), actor.Options{Actors: 1})
	if err != nil {
		t.Fatal(err)
	}
	a.Step()
	a.Step()
	if allocs := testing.AllocsPerRun(20, a.Step); allocs != 0 {
		t.Errorf("steady-state single-actor Step allocates %.1f objects/round, want 0", allocs)
	}
}
