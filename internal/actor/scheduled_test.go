package actor_test

import (
	"fmt"
	"maps"
	"math"
	"math/rand/v2"
	"slices"
	"strings"
	"sync"
	"testing"

	"diffusionlb/internal/actor"
	"diffusionlb/internal/core"
	"diffusionlb/internal/graph"
	"diffusionlb/internal/spectral"
)

// seenRounder is the paper's rounder, recording every row of positive
// scheduled flows it is handed, so a test can hold ScheduledFlows against
// what the rounding saw. Actors and shards round concurrently, so the rows
// are counted under a lock, keyed by their bits.
type seenRounder struct {
	core.RandomizedRounder
	mu   sync.Mutex
	rows map[string]int
}

func (r *seenRounder) RoundNode(yhat []float64, out []int64, rng *rand.Rand) {
	r.mu.Lock()
	r.rows[rowKey(yhat)]++
	r.mu.Unlock()
	r.RandomizedRounder.RoundNode(yhat, out, rng)
}

func rowKey(row []float64) string {
	var b strings.Builder
	for _, y := range row {
		fmt.Fprintf(&b, "%016x ", math.Float64bits(y))
	}
	return b.String()
}

// positiveRows counts each node's positive scheduled flows, in arc order,
// the way the kernel hands them to the rounder (nodes without one are not
// rounded).
func positiveRows(g *graph.Graph, sched []float64) map[string]int {
	rows := make(map[string]int)
	offsets := g.Offsets()
	var row []float64
	for i := 0; i < g.NumNodes(); i++ {
		row = row[:0]
		for a := offsets[i]; a < offsets[i+1]; a++ {
			if sched[a] > 0 {
				row = append(row, sched[a])
			}
		}
		if len(row) > 0 {
			rows[rowKey(row)]++
		}
	}
	return rows
}

// scheduledProcess is what the contract test drives on both engines; the
// checkpoint round trip is bound per engine.
type scheduledProcess interface {
	Step()
	ScheduledFlows() []float64
	Inject([]int64) error
	SetBeta(float64) error
	Kind() core.Kind
	SetKind(core.Kind)
	Retarget(*spectral.Operator) error
}

// newProcess builds an engine with rounder rd and returns it with its
// shard count and a checkpoint function, which returns the restore of the
// checkpoint it took.
type newProcess func(op *spectral.Operator, rd core.Rounder) (p scheduledProcess, shards int, checkpoint func() func() error, err error)

// TestScheduledFlowsContract pins what ScheduledFlows returns, on the
// shared engine at 1 and 3 shards and on the actor runtime at 3 actors in
// barrier and stale=2 mode: all zeros before the first Step; after each
// Step the Ŷ that round's rounding saw, bit for bit; and the same bits
// after any between-rounds Inject, SetBeta, SetKind, Retarget to new
// speeds or Restore, until the next Step.
func TestScheduledFlowsContract(t *testing.T) {
	g := goldenGraph(t)
	n := g.NumNodes()
	sp1, sp2 := goldenSpeeds(t, n)
	cases := []struct {
		name   string
		shards int
		build  newProcess
	}{
		{"core/workers=1", 1, coreProcess(1)},
		{"core/workers=3", 3, coreProcess(3)},
		{"actor:3", 3, actorProcess(actor.Options{Actors: 3})},
		{"actor:3,stale=2", 3, actorProcess(actor.Options{Actors: 3, Stale: 2})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			op, err := spectral.NewOperator(g, sp1, nil)
			if err != nil {
				t.Fatal(err)
			}
			rd := &seenRounder{rows: map[string]int{}}
			p, shards, checkpoint, err := tc.build(op, rd)
			if err != nil {
				t.Fatal(err)
			}
			if shards != tc.shards {
				t.Fatalf("%d shards, want %d", shards, tc.shards)
			}
			zero := make([]float64, g.NumArcs())
			eqBits(t, -1, "scheduled before the first Step", p.ScheduledFlows(), zero)
			if err := p.Inject(goldenDeltas(n)); err != nil {
				t.Fatal(err)
			}
			eqBits(t, -1, "scheduled after Inject before the first Step", p.ScheduledFlows(), zero)

			var restore func() error
			for round := 0; round < 18; round++ {
				clear(rd.rows)
				p.Step()
				want := slices.Clone(p.ScheduledFlows())
				if got := positiveRows(g, want); !maps.Equal(got, rd.rows) {
					t.Fatalf("round %d: ScheduledFlows holds %d positive rows, the rounder saw %d other ones",
						round, len(got), len(rd.rows))
				}
				if len(rd.rows) == 0 {
					t.Fatalf("round %d: nothing was rounded", round)
				}
				var what string
				switch round % 6 {
				case 0:
					what, err = "Inject", p.Inject(goldenDeltas(n))
				case 1:
					what, err = "SetBeta", p.SetBeta(1.3+0.1*float64(round%5))
				case 2:
					sp := sp2
					if round%4 == 0 {
						sp = sp1
					}
					what, err = "Retarget", firstErr(op.Reweight(sp), p.Retarget(op))
				case 3:
					what, err = "Restore", restore()
				case 4:
					what = "SetKind"
					if p.Kind() == core.SOS {
						p.SetKind(core.FOS)
					} else {
						p.SetKind(core.SOS)
					}
				case 5:
					what = "nothing"
				}
				if err != nil {
					t.Fatalf("round %d: %s: %v", round, what, err)
				}
				eqBits(t, round, "scheduled after "+what, p.ScheduledFlows(), want)
				// Restore rolls back to the boundary before the latest one.
				restore = checkpoint()
			}
		})
	}
}

func coreProcess(workers int) newProcess {
	return func(op *spectral.Operator, rd core.Rounder) (scheduledProcess, int, func() func() error, error) {
		cfg := core.Config{Op: op, Kind: core.SOS, Beta: 1.6, Workers: workers}
		d, err := core.NewDiscrete(cfg, rd, 11, goldenInitial(op.Graph().NumNodes()))
		if err != nil {
			return nil, 0, nil, err
		}
		return d, d.ShardLayout().Shards(), func() func() error {
			cp := d.Checkpoint()
			return func() error { return d.Restore(cp) }
		}, nil
	}
}

func actorProcess(opts actor.Options) newProcess {
	return func(op *spectral.Operator, rd core.Rounder) (scheduledProcess, int, func() func() error, error) {
		a, err := actor.New(op, core.SOS, 1.6, rd, 11, goldenInitial(op.Graph().NumNodes()), opts)
		if err != nil {
			return nil, 0, nil, err
		}
		return a, a.Actors(), func() func() error {
			cp := a.Checkpoint()
			return func() error { return a.Restore(cp) }
		}, nil
	}
}
