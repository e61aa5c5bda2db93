package sim

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"diffusionlb/internal/core"
	"diffusionlb/internal/graph"
	"diffusionlb/internal/metrics"
	"diffusionlb/internal/spectral"
	"diffusionlb/internal/workload"
)

// TestPolicyTrajectoryDigests pins whole Runner trajectories under every
// PolicyFromSpec kind, so a refactor of how policies are built or gated
// must leave each recorded bit where it was. The fixture is a seeded SOS
// 12x12 torus with a point load and a burst that lands after the SOS
// plateau: the one-shot rules have switched to FOS by then and keep being
// asked on FOS rounds, and the hysteresis band re-arms SOS on the burst.
// The FOS case runs a one-shot rule on a process that never runs SOS.
//
// Each digest is FNV-64a over the series (column names, rounds, Float64bits
// of every value), the switch history and the final loads.
func TestPolicyTrajectoryDigests(t *testing.T) {
	g, err := graph.Torus2D(12, 12)
	if err != nil {
		t.Fatal(err)
	}
	op, err := spectral.NewOperator(g, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	lam, err := spectral.AnalyticTorus2DLambda(12, 12)
	if err != nil {
		t.Fatal(err)
	}
	beta, err := spectral.BetaOpt(lam)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumNodes()
	x0, err := metrics.PointLoad(n, int64(n)*1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		spec string
		kind core.Kind
		want string
	}{
		{"never", core.SOS, "bb785528e5bf9a44"},
		{"at:25", core.SOS, "5a69bb9ccfafe32a"},
		{"local:16", core.SOS, "36f99a20a38d4fdb"},
		{"stall:10:0.01", core.SOS, "71eb1fef18a018af"},
		{"adaptive:16:64:10", core.SOS, "601fdf18249caad7"},
		{"at:25", core.FOS, "879f626fb4640f72"},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%s/%s", tc.kind, tc.spec), func(t *testing.T) {
			proc, err := core.NewDiscrete(core.Config{Op: op, Kind: tc.kind, Beta: beta},
				core.RandomizedRounder{}, 5, x0)
			if err != nil {
				t.Fatal(err)
			}
			wl, err := workload.FromSpec("burst:200:20000", n, 3)
			if err != nil {
				t.Fatal(err)
			}
			policy, err := core.PolicyFromSpec(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			res, err := (&Runner{Proc: proc, Workload: wl, Adaptive: policy, Every: 1,
				Metrics: append(DefaultMetrics(), DynamicMetrics()...)}).Run(300)
			if err != nil {
				t.Fatal(err)
			}
			if got := trajectoryDigest(res, proc.LoadsInt()); got != tc.want {
				t.Errorf("digest = %s, want %s (switches %v)", got, tc.want, res.Switches)
			}
		})
	}
}

// trajectoryDigest hashes a run's recorded series, switch history and
// final loads with FNV-64a.
func trajectoryDigest(res *Result, loads []int64) string {
	h := fnv.New64a()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	s := res.Series
	for _, name := range s.Names() {
		h.Write([]byte(name))
		h.Write([]byte{0})
	}
	for i := 0; i < s.Len(); i++ {
		word(uint64(s.Round(i)))
		for _, v := range s.Row(i) {
			word(math.Float64bits(v))
		}
	}
	word(uint64(len(res.Switches)))
	for _, ev := range res.Switches {
		word(uint64(ev.Round))
		word(uint64(ev.From))
		word(uint64(ev.To))
	}
	for _, x := range loads {
		word(uint64(x))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
