package actor_test

import (
	"fmt"
	"reflect"
	"testing"

	"diffusionlb/internal/actor"
	"diffusionlb/internal/core"
	"diffusionlb/internal/spectral"
)

// driveTimeline advances a runtime through rounds [from, to) of the golden
// dynamics timeline (events at 10/20/30/40/50 relative to the runtime's
// own round counter, exactly as the resuming driver would replay them).
func driveTimeline(t *testing.T, a *actor.Runtime, op *spectral.Operator, env *timelineEnv, flip core.Kind, to int) {
	t.Helper()
	for a.Round() < to {
		switch a.Round() {
		case 10:
			if err := a.Inject(env.deltas); err != nil {
				t.Fatal(err)
			}
		case 20:
			if err := a.Retarget(env.op2); err != nil {
				t.Fatal(err)
			}
		case 30:
			if err := a.SetBeta(1.7); err != nil {
				t.Fatal(err)
			}
		case 40:
			a.SetKind(flip)
		case 50:
			if err := a.Retarget(op); err != nil {
				t.Fatal(err)
			}
		}
		a.Step()
	}
}

// timelineEnv pre-bakes the timeline's operator states so replays on
// restored runtimes see the operator exactly as the original run did at
// each event (the driver owns operator replay; see core.Checkpoint).
type timelineEnv struct {
	op1, op2 *spectral.Operator
	deltas   []int64
}

func newTimelineEnv(t *testing.T) (*timelineEnv, []int64) {
	t.Helper()
	g := goldenGraph(t)
	n := g.NumNodes()
	sp1, sp2 := goldenSpeeds(t, n)
	op1, err := spectral.NewOperator(g, sp1, nil)
	if err != nil {
		t.Fatal(err)
	}
	op2 := op1.Clone()
	if err := op2.Reweight(sp2); err != nil {
		t.Fatal(err)
	}
	return &timelineEnv{op1: op1, op2: op2, deltas: goldenDeltas(n)}, goldenInitial(n)
}

// TestBarrierCheckpointResume pins the barrier checkpoint contract: a
// checkpoint cut mid-run (between timeline events) restores into a fresh
// runtime — with the SAME or a DIFFERENT actor count — and the
// continuation is bit-identical to the uninterrupted run. Barrier
// checkpoints carry no transport state, so they are partition-free.
func TestBarrierCheckpointResume(t *testing.T) {
	env, x0 := newTimelineEnv(t)
	op := env.op1

	for _, kind := range []core.Kind{core.FOS, core.SOS} {
		for _, resumeActors := range []int{2, 5} {
			t.Run(fmt.Sprintf("%s/resume-actors=%d", kind, resumeActors), func(t *testing.T) {
				flip := core.FOS
				if kind == core.FOS {
					flip = core.SOS
				}
				full, err := actor.New(op, kind, 1.5, nil, 42, x0, actor.Options{Actors: 2})
				if err != nil {
					t.Fatal(err)
				}
				cut, err := actor.New(op, kind, 1.5, nil, 42, x0, actor.Options{Actors: 2})
				if err != nil {
					t.Fatal(err)
				}
				driveTimeline(t, full, op, env, flip, goldenRounds)
				driveTimeline(t, cut, op, env, flip, 25)
				cp := cut.Checkpoint()
				if cp.Bounds != nil || cp.Links != nil {
					t.Fatal("barrier checkpoint captured transport state")
				}

				// Resume into a fresh runtime; the driver replays the
				// operator to its round-25 state (post-retarget) first.
				resumed, err := actor.New(env.op2, kind, 1.5, nil, 42, x0, actor.Options{Actors: resumeActors})
				if err != nil {
					t.Fatal(err)
				}
				if err := resumed.Restore(cp); err != nil {
					t.Fatal(err)
				}
				if resumed.Round() != 25 {
					t.Fatalf("restored round %d, want 25", resumed.Round())
				}
				driveTimeline(t, resumed, op, env, flip, goldenRounds)

				eqInt64(t, goldenRounds, "loads", resumed.LoadsInt(), full.LoadsInt())
				eqInt64(t, goldenRounds, "flows", resumed.Flows(), full.Flows())
				gotMin, gotSet := resumed.MinTransientInt()
				wantMin, wantSet := full.MinTransientInt()
				if gotMin != wantMin || gotSet != wantSet {
					t.Errorf("min transient %d/%v, reference %d/%v", gotMin, gotSet, wantMin, wantSet)
				}
				gotTok, gotMsg := resumed.Traffic()
				wantTok, wantMsg := full.Traffic()
				if gotTok != wantTok || gotMsg != wantMsg {
					t.Errorf("traffic %d/%d, reference %d/%d", gotTok, gotMsg, wantTok, wantMsg)
				}
			})
		}
	}
}

// TestAsyncCheckpointResume pins the async checkpoint contract: the
// transport snapshot (version rings, applied counters, in-flight totals)
// restores into a runtime over the same partition and staleness bound and
// the continuation is bit-identical — even with tokens in flight at the
// cut point.
func TestAsyncCheckpointResume(t *testing.T) {
	env, x0 := newTimelineEnv(t)
	op := env.op1
	const actors, stale = 4, 2

	full, err := actor.New(op, core.SOS, 1.5, nil, 42, x0, actor.Options{Actors: actors, Stale: stale})
	if err != nil {
		t.Fatal(err)
	}
	cut, err := actor.New(op, core.SOS, 1.5, nil, 42, x0, actor.Options{Actors: actors, Stale: stale})
	if err != nil {
		t.Fatal(err)
	}
	driveTimeline(t, full, op, env, core.FOS, goldenRounds)
	driveTimeline(t, cut, op, env, core.FOS, 25)
	if cut.InFlightLoad() == 0 {
		t.Log("note: no tokens in flight at the cut point; transport restore still exercised")
	}
	cp := cut.Checkpoint()

	resumed, err := actor.New(env.op2, core.SOS, 1.5, nil, 42, x0, actor.Options{Actors: actors, Stale: stale})
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.Restore(cp); err != nil {
		t.Fatal(err)
	}
	if got := resumed.InFlightLoad(); got != cut.InFlightLoad() {
		t.Fatalf("restored in-flight %d, want %d", got, cut.InFlightLoad())
	}
	driveTimeline(t, resumed, op, env, core.FOS, goldenRounds)

	eqInt64(t, goldenRounds, "loads", resumed.LoadsInt(), full.LoadsInt())
	eqInt64(t, goldenRounds, "flows", resumed.Flows(), full.Flows())
	if got, want := resumed.InFlightLoad(), full.InFlightLoad(); got != want {
		t.Errorf("final in-flight %d, reference %d", got, want)
	}
}

// TestRestoreValidation pins the refusal paths: mismatched staleness,
// mismatched partition and malformed core state must be rejected without
// mutating the runtime.
func TestRestoreValidation(t *testing.T) {
	env, x0 := newTimelineEnv(t)
	op := env.op1

	async, err := actor.New(op, core.SOS, 1.5, nil, 1, x0, actor.Options{Actors: 4, Stale: 2})
	if err != nil {
		t.Fatal(err)
	}
	async.Step()
	async.Step()
	cp := async.Checkpoint()

	rejected := func(what string, a *actor.Runtime, cp actor.Checkpoint) {
		t.Helper()
		before := a.Checkpoint()
		if err := a.Restore(cp); err == nil {
			t.Errorf("%s accepted", what)
		}
		if after := a.Checkpoint(); !reflect.DeepEqual(after, before) {
			t.Errorf("rejected %s mutated the runtime", what)
		}
	}

	barrier, err := actor.New(op, core.SOS, 1.5, nil, 1, x0, actor.Options{Actors: 4})
	if err != nil {
		t.Fatal(err)
	}
	barrier.Step()
	rejected("async checkpoint on a barrier runtime", barrier, cp)

	otherPart, err := actor.New(op, core.SOS, 1.5, nil, 1, x0, actor.Options{Actors: 3, Stale: 2})
	if err != nil {
		t.Fatal(err)
	}
	otherPart.Step()
	rejected("async checkpoint across a different partition", otherPart, cp)

	same, err := actor.New(op, core.SOS, 1.5, nil, 1, x0, actor.Options{Actors: 4, Stale: 2})
	if err != nil {
		t.Fatal(err)
	}
	same.Step()
	bad := async.Checkpoint()
	bad.Core.Kind = 0
	rejected("checkpoint with invalid kind", same, bad)
	badBeta := async.Checkpoint()
	badBeta.Core.Round = 999
	badBeta.Core.Beta = 2.5
	rejected("checkpoint with beta outside (0,2)", same, badBeta)
}
