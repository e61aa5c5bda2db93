package actor_test

import (
	"fmt"
	"runtime"
	"testing"

	"diffusionlb/internal/actor"
	"diffusionlb/internal/core"
	"diffusionlb/internal/spectral"
)

// asyncTrace runs a fresh async runtime through the full golden dynamics
// timeline and records the load vector after every round plus the final
// diagnostics — the replayable fingerprint the determinism tests compare.
type asyncTrace struct {
	loads    [][]int64
	flows    []int64
	inFlight []int64
	minT     int64
	minSet   bool
	negR     int
	tokens   int64
	msgs     int64
}

func runAsyncTimeline(t *testing.T, actors, stale int, kind core.Kind) asyncTrace {
	t.Helper()
	g := goldenGraph(t)
	n := g.NumNodes()
	sp1, sp2 := goldenSpeeds(t, n)
	x0 := goldenInitial(n)
	deltas := goldenDeltas(n)
	op, err := spectral.NewOperator(g, sp1, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, err := actor.New(op, kind, 1.5, nil, 42, x0, actor.Options{Actors: actors, Stale: stale})
	if err != nil {
		t.Fatal(err)
	}
	flip := core.FOS
	if kind == core.FOS {
		flip = core.SOS
	}
	var tr asyncTrace
	for round := 0; round < goldenRounds; round++ {
		switch round {
		case 10:
			if err := a.Inject(deltas); err != nil {
				t.Fatal(err)
			}
		case 20:
			if err := op.Reweight(sp2); err != nil {
				t.Fatal(err)
			}
			if err := a.Retarget(op); err != nil {
				t.Fatal(err)
			}
		case 30:
			if err := a.SetBeta(1.7); err != nil {
				t.Fatal(err)
			}
		case 40:
			a.SetKind(flip)
		case 50:
			if err := op.Reweight(sp1); err != nil {
				t.Fatal(err)
			}
			if err := a.Retarget(op); err != nil {
				t.Fatal(err)
			}
		}
		a.Step()
		loads := append([]int64(nil), a.LoadsInt()...)
		tr.loads = append(tr.loads, loads)
		tr.inFlight = append(tr.inFlight, a.InFlightLoad())
	}
	tr.flows = append([]int64(nil), a.Flows()...)
	tr.minT, tr.minSet = a.MinTransientInt()
	tr.negR = a.NegativeTransientRounds()
	tr.tokens, tr.msgs = a.Traffic()
	return tr
}

// TestAsyncDeterministicReplay pins the async determinism contract: the
// staleness schedule is a seeded counter stream, not a wall-clock race, so
// repeated runs — including under GOMAXPROCS 1 and 2 — produce the same
// interleaving and therefore identical trajectories, bit for bit. On one P
// every actor of a round must still be live at once, so a fan-out that
// leaves an actor unclaimed deadlocks here.
func TestAsyncDeterministicReplay(t *testing.T) {
	for _, stale := range []int{1, 3} {
		for _, kind := range []core.Kind{core.FOS, core.SOS} {
			t.Run(fmt.Sprintf("%s/stale=%d", kind, stale), func(t *testing.T) {
				ref := runAsyncTimeline(t, 7, stale, kind)
				traces := []asyncTrace{runAsyncTimeline(t, 7, stale, kind)}
				for _, procs := range []int{1, 2} {
					prev := runtime.GOMAXPROCS(procs)
					traces = append(traces, runAsyncTimeline(t, 7, stale, kind))
					runtime.GOMAXPROCS(prev)
				}

				for _, tr := range traces {
					for round := range ref.loads {
						eqInt64(t, round, "loads", tr.loads[round], ref.loads[round])
						if tr.inFlight[round] != ref.inFlight[round] {
							t.Fatalf("round %d: in-flight %d, reference %d", round, tr.inFlight[round], ref.inFlight[round])
						}
					}
					eqInt64(t, goldenRounds, "flows", tr.flows, ref.flows)
					if tr.minT != ref.minT || tr.minSet != ref.minSet || tr.negR != ref.negR ||
						tr.tokens != ref.tokens || tr.msgs != ref.msgs {
						t.Fatalf("diagnostics diverge: (%d,%v,%d,%d,%d) vs (%d,%v,%d,%d,%d)",
							tr.minT, tr.minSet, tr.negR, tr.tokens, tr.msgs,
							ref.minT, ref.minSet, ref.negR, ref.tokens, ref.msgs)
					}
				}
			})
		}
	}
}

// TestAsyncConservation pins token conservation through the transport:
// loads alone are NOT conserved under staleness (flux debited at the
// sender may sit in a version ring for up to K rounds), but
// Σ loads + InFlightLoad is exact at every round boundary — the identity
// the runtime invariant checker asserts for InFlightReporter processes.
func TestAsyncConservation(t *testing.T) {
	g := goldenGraph(t)
	n := g.NumNodes()
	sp1, _ := goldenSpeeds(t, n)
	x0 := goldenInitial(n)
	op, err := spectral.NewOperator(g, sp1, nil)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, v := range x0 {
		total += v
	}
	for _, stale := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("stale=%d", stale), func(t *testing.T) {
			a, err := actor.New(op, core.SOS, 1.5, nil, 5, x0, actor.Options{Actors: 4, Stale: stale})
			if err != nil {
				t.Fatal(err)
			}
			sawInFlight := false
			for round := 0; round < 40; round++ {
				a.Step()
				inFlight := a.InFlightLoad()
				if inFlight != 0 {
					sawInFlight = true
				}
				if got := a.TotalLoad() + inFlight; got != total {
					t.Fatalf("round %d: Σloads + in-flight = %d (in-flight %d), want %d", round, got, inFlight, total)
				}
			}
			if !sawInFlight {
				t.Error("staleness never left tokens in flight; the async path was not exercised")
			}
		})
	}
}

// TestAsyncStalenessChangesTrajectory is the sanity complement of the
// stale=0 degeneracy test: a positive staleness bound must actually delay
// flux (otherwise the async mode silently collapsed to barrier and the
// discrepancy-vs-staleness experiment measures nothing).
func TestAsyncStalenessChangesTrajectory(t *testing.T) {
	barrier := runAsyncTimeline(t, 4, 0, core.SOS)
	stale := runAsyncTimeline(t, 4, 2, core.SOS)
	diverged := false
	for round := range barrier.loads {
		for i := range barrier.loads[round] {
			if barrier.loads[round][i] != stale.loads[round][i] {
				diverged = true
				break
			}
		}
		if diverged {
			break
		}
	}
	if !diverged {
		t.Error("stale=2 trajectory is identical to barrier over the full timeline")
	}
}
