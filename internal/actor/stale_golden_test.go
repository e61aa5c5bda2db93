package actor_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"diffusionlb/internal/actor"
	"diffusionlb/internal/core"
	"diffusionlb/internal/spectral"
)

// TestStaleTrajectoryDigests pins the runtime's trajectories in every mode,
// bounded staleness included: the barrier suite only pins stale=0 against
// core.Discrete, and the replay test only compares the runtime with itself,
// so a rewrite that moved stale-mode bits would otherwise pass. Each case
// drives the golden dynamics timeline (inject at 10, reweight at 20, β at
// 30, scheme flip at 40, reweight back at 50) and hashes with FNV-64a the
// loads, Flows(), ScheduledFlows() bits and InFlightLoad() after every
// round, then the final MinTransientInt, MinEndOfRound,
// NegativeTransientRounds, Traffic, Injected and Retargets.
func TestStaleTrajectoryDigests(t *testing.T) {
	cases := []struct {
		actors, stale int
		kind          core.Kind
		rounder       string
		want          string
	}{
		{2, 0, core.FOS, "randomized", "9a763ca5a97dfbc5"},
		{2, 0, core.FOS, "floor", "760975949db4ad16"},
		{2, 0, core.SOS, "randomized", "fbb061fd3dc85e49"},
		{2, 0, core.SOS, "floor", "dc8b0c86cbb230c6"},
		{2, 1, core.FOS, "randomized", "b2afcadbe948f10a"},
		{2, 1, core.FOS, "floor", "3aceed12713c19d6"},
		{2, 1, core.SOS, "randomized", "47607573ee65cd39"},
		{2, 1, core.SOS, "floor", "f6f10cb6d0e9e52b"},
		{2, 3, core.FOS, "randomized", "95cecfc26b10d3af"},
		{2, 3, core.FOS, "floor", "d3ec663bcff34f68"},
		{2, 3, core.SOS, "randomized", "2d33943685fb1910"},
		{2, 3, core.SOS, "floor", "fa1b630354efa6af"},
		{7, 0, core.FOS, "randomized", "9a763ca5a97dfbc5"},
		{7, 0, core.FOS, "floor", "760975949db4ad16"},
		{7, 0, core.SOS, "randomized", "fbb061fd3dc85e49"},
		{7, 0, core.SOS, "floor", "dc8b0c86cbb230c6"},
		{7, 1, core.FOS, "randomized", "67af146cd4b605ef"},
		{7, 1, core.FOS, "floor", "426d62a0ffb3c1b2"},
		{7, 1, core.SOS, "randomized", "21d58e343d518fc7"},
		{7, 1, core.SOS, "floor", "3493bfd2e24094a4"},
		{7, 3, core.FOS, "randomized", "b8d080737f99d708"},
		{7, 3, core.FOS, "floor", "45d478939e6a48a7"},
		{7, 3, core.SOS, "randomized", "8aab26e9b5019428"},
		{7, 3, core.SOS, "floor", "b5077ce558988d97"},
	}
	g := goldenGraph(t)
	n := g.NumNodes()
	sp1, sp2 := goldenSpeeds(t, n)
	x0 := goldenInitial(n)
	deltas := goldenDeltas(n)
	for _, tc := range cases {
		t.Run(fmt.Sprintf("actors=%d/stale=%d/%s/%s", tc.actors, tc.stale, tc.kind, tc.rounder), func(t *testing.T) {
			rounder, ok := core.RounderByName(tc.rounder)
			if !ok {
				t.Fatalf("unknown rounder %q", tc.rounder)
			}
			op, err := spectral.NewOperator(g, sp1, nil)
			if err != nil {
				t.Fatal(err)
			}
			a, err := actor.New(op, tc.kind, 1.5, rounder, 42, x0, actor.Options{Actors: tc.actors, Stale: tc.stale})
			if err != nil {
				t.Fatal(err)
			}
			flip := core.FOS
			if tc.kind == core.FOS {
				flip = core.SOS
			}
			h := fnv.New64a()
			var buf [8]byte
			word := func(v uint64) {
				binary.LittleEndian.PutUint64(buf[:], v)
				h.Write(buf[:])
			}
			for round := 0; round < goldenRounds; round++ {
				switch round {
				case 10:
					err = a.Inject(deltas)
				case 20:
					err = firstErr(op.Reweight(sp2), a.Retarget(op))
				case 30:
					err = a.SetBeta(1.7)
				case 40:
					a.SetKind(flip)
				case 50:
					err = firstErr(op.Reweight(sp1), a.Retarget(op))
				}
				if err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				a.Step()
				for _, x := range a.LoadsInt() {
					word(uint64(x))
				}
				for _, f := range a.Flows() {
					word(uint64(f))
				}
				for _, y := range a.ScheduledFlows() {
					word(math.Float64bits(y))
				}
				word(uint64(a.InFlightLoad()))
			}
			minT, minTSet := a.MinTransientInt()
			minE, minESet := a.MinEndOfRound()
			tokens, msgs := a.Traffic()
			added, removed := a.Injected()
			for _, v := range []int64{minT, boolWord(minTSet), minE, boolWord(minESet),
				int64(a.NegativeTransientRounds()), tokens, msgs, added, removed, int64(a.Retargets())} {
				word(uint64(v))
			}
			if got := fmt.Sprintf("%016x", h.Sum64()); got != tc.want {
				t.Errorf("digest = %s, want %s", got, tc.want)
			}
		})
	}
}

func boolWord(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
