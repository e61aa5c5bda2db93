package sim

import (
	"fmt"
	"math"
	"testing"

	"diffusionlb/internal/core"
	"diffusionlb/internal/graph"
	"diffusionlb/internal/hetero"
	"diffusionlb/internal/metrics"
	"diffusionlb/internal/randx"
	"diffusionlb/internal/spectral"
)

// seqProc replays one generated load vector per round on op. Every vector
// holds the same total, so the runtime conservation check of an
// invariants build passes.
type seqProc struct {
	op     *spectral.Operator
	ints   [][]int64
	floats [][]float64
	round  int
}

func (p *seqProc) Step()                        { p.round++ }
func (p *seqProc) Round() int                   { return p.round }
func (p *seqProc) Kind() core.Kind              { return core.FOS }
func (p *seqProc) SetKind(core.Kind)            {}
func (p *seqProc) Operator() *spectral.Operator { return p.op }
func (p *seqProc) NegativeTransientRounds() int { return 0 }

func (p *seqProc) Loads() core.LoadView {
	if p.ints != nil {
		return core.LoadView{Int: p.ints[p.round]}
	}
	return core.LoadView{Float: p.floats[p.round]}
}

// MinTransient reports the +Inf sentinel before the first round, as the
// engines do, and a value no load takes after it.
func (p *seqProc) MinTransient() float64 {
	if p.round == 0 {
		return math.Inf(1)
	}
	return -0.5 - float64(p.round)
}

// newSeqProc generates rounds+1 vectors of loads around the
// speed-proportional targets of op: each round scatters them by another
// spread, from rounding the targets to ±2²⁰, so the targets' low bits and
// large negative deviations both reach the sums. With fixedTotal every
// vector holds the same total, as the runtime conservation check of an
// invariants build requires; otherwise each draws its own, possibly
// negative. Float loads are the int loads over 1024, so every total is
// exact.
func newSeqProc(op *spectral.Operator, float, fixedTotal bool, rounds int, seed uint64) *seqProc {
	rng := randx.New(seed)
	sp, n := op.Speeds(), op.Graph().NumNodes()
	p := &seqProc{op: op}
	total := int64(1000*n + 37)
	for r := 0; r <= rounds; r++ {
		if !fixedTotal {
			total = rng.Int64N(int64(2000*n)) - int64(100*n)
		}
		spread := []int64{0, 1, 7, 60, 5000, 1 << 20}[r%6]
		x := make([]int64, n)
		var s int64
		for i := 0; i < n-1; i++ {
			x[i] = int64(math.Round(float64(total)*sp.Of(i)/sp.Sum())) + rng.Int64N(2*spread+1) - spread
			s += x[i]
		}
		x[n-1] = total - s
		if !float {
			p.ints = append(p.ints, x)
			continue
		}
		f := make([]float64, n)
		for i, v := range x {
			f[i] = float64(v) / 1024
		}
		p.floats = append(p.floats, f)
	}
	return p
}

// onLoads applies the internal/metrics function for p's load type.
func onLoads(p core.Process, fi func([]int64) float64, ff func([]float64) float64) float64 {
	lv := p.Loads()
	if lv.Int != nil {
		return fi(lv.Int)
	}
	return ff(lv.Float)
}

// projections returns every built-in projection, fresh (PeakDiscrepancy
// is stateful), each with its internal/metrics reference.
func projections() (ms []Metric, refs []func(core.Process) float64) {
	speeds := func(p core.Process) *hetero.Speeds { return p.Operator().Speeds() }
	peak := math.Inf(-1)
	discrepancy := func(p core.Process) float64 {
		return onLoads(p, metrics.Discrepancy[int64], metrics.Discrepancy[float64])
	}
	minLoad := func(p core.Process) float64 {
		return onLoads(p, metrics.MinLoad[int64], metrics.MinLoad[float64])
	}
	ms = []Metric{MaxMinusAvg(), MaxLocalDiff(), PotentialPerN(), Discrepancy(), PeakDiscrepancy(),
		MinLoad(), MinTransient(), TotalLoad(), HeteroMaxMinusTarget(), IdealLoadDrift()}
	refs = []func(core.Process) float64{
		func(p core.Process) float64 {
			return onLoads(p, metrics.MaxMinusAvg[int64], metrics.MaxMinusAvg[float64])
		},
		func(p core.Process) float64 {
			g := p.Operator().Graph()
			return onLoads(p, func(x []int64) float64 { return metrics.MaxLocalDiff(g, x) },
				func(x []float64) float64 { return metrics.MaxLocalDiff(g, x) })
		},
		func(p core.Process) float64 {
			sp, n := speeds(p), float64(p.Operator().Graph().NumNodes())
			return onLoads(p, func(x []int64) float64 { return metrics.Potential(x, sp) / n },
				func(x []float64) float64 { return metrics.Potential(x, sp) / n })
		},
		discrepancy,
		func(p core.Process) float64 {
			if d := discrepancy(p); d > peak {
				peak = d
			}
			return peak
		},
		minLoad,
		func(p core.Process) float64 {
			if v := p.MinTransient(); !math.IsInf(v, 1) {
				return v
			}
			return minLoad(p)
		},
		func(p core.Process) float64 { return onLoads(p, metrics.Total[int64], metrics.Total[float64]) },
		func(p core.Process) float64 {
			sp := speeds(p)
			return onLoads(p, func(x []int64) float64 { return metrics.HeteroMaxMinusTarget(x, sp) },
				func(x []float64) float64 { return metrics.HeteroMaxMinusTarget(x, sp) })
		},
		func(p core.Process) float64 {
			sp := speeds(p)
			return onLoads(p, func(x []int64) float64 { return metrics.HeteroMaxAbsDeviation(x, sp) },
				func(x []float64) float64 { return metrics.HeteroMaxAbsDeviation(x, sp) })
		},
	}
	return ms, refs
}

// hidden wraps a Metric so the Runner cannot see the projection under it
// and records the one-shot Compute instead.
type hidden struct{ Metric }

// TestObservationMatchesMetrics: every built-in projection, read off a
// shared observation and through its own one-shot Compute, gives exactly
// the bits of its internal/metrics reference, for int64 and float64 loads
// with negative entries, homogeneous and heterogeneous speeds and a single
// node: first on vectors with varying totals read directly, then through
// Runner.Run, whose OnRound Reweight makes homogeneous speeds
// heterogeneous mid-run. The node scan never reads Operator(), so a
// process without one (sim's invariant stubs) still records Discrepancy
// and TotalLoad.
func TestObservationMatchesMetrics(t *testing.T) {
	torus, err := graph.Torus2D(5, 7)
	if err != nil {
		t.Fatal(err)
	}
	single, err := graph.NewBuilder(1).Build("single")
	if err != nil {
		t.Fatal(err)
	}
	randomSpeeds := func(n int, seed uint64) *hetero.Speeds {
		rng := randx.New(seed)
		s := make([]float64, n)
		for i := range s {
			s[i] = 1 + 3*rng.Float64()
		}
		sp, err := hetero.New(s)
		if err != nil {
			t.Fatal(err)
		}
		return sp
	}
	same := func(label string, got, want float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s = %v, internal/metrics %v", label, got, want)
		}
	}
	for _, tc := range []struct {
		name     string
		g        *graph.Graph
		hetero   bool // heterogeneous from the start
		reweight bool // homogeneous, reweighted heterogeneous after round 3
	}{
		{"torus-homogeneous", torus, false, false},
		{"torus-heterogeneous", torus, true, false},
		{"torus-reweight", torus, false, true},
		{"single-homogeneous", single, false, false},
		{"single-heterogeneous", single, true, false},
	} {
		for _, float := range []bool{false, true} {
			var sp *hetero.Speeds
			if tc.hetero {
				sp = randomSpeeds(tc.g.NumNodes(), 3)
			}
			op, err := spectral.NewOperator(tc.g, sp, nil)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("%s float=%v", tc.name, float)

			// Direct reads of fresh projections, one vector at a time.
			proc := newSeqProc(op, float, false, 60, 5)
			for ; proc.round <= 60; proc.round++ {
				obs := observation{p: proc}
				shared, refs := projections()
				oneShot, _ := projections()
				for i, m := range shared {
					want := refs[i](proc)
					same(fmt.Sprintf("%s vector %d: shared %s", label, proc.round, m.Name()), m.(projection).from(&obs), want)
					same(fmt.Sprintf("%s vector %d: one-shot %s", label, proc.round, m.Name()), oneShot[i].Compute(proc), want)
				}
			}

			// A Runner run: each row records every projection off the
			// shared observation, hidden (its one-shot Compute) and as its
			// reference.
			const rounds = 12
			proc = newSeqProc(op, float, true, rounds, 7)
			shared, refs := projections()
			oneShot, _ := projections()
			var ms []Metric
			for i, m := range shared {
				ms = append(ms, m, hidden{oneShot[i]}, MetricFunc("ref", refs[i]))
			}
			r := &Runner{Proc: proc, Metrics: ms}
			if tc.reweight {
				r.OnRound = func(round int, p core.Process) {
					if round == 3 {
						if err := p.Operator().Reweight(randomSpeeds(tc.g.NumNodes(), 5)); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			res, err := r.Run(rounds)
			if err != nil {
				t.Fatal(err)
			}
			if tc.reweight && op.Speeds().IsHomogeneous() {
				t.Fatal("the reweight left the speeds homogeneous")
			}
			for row := 0; row < res.Series.Len(); row++ {
				vals := res.Series.Row(row)
				for i, m := range shared {
					for k, path := range []string{"shared", "one-shot"} {
						same(fmt.Sprintf("%s round %d: Runner %s %s", label, res.Series.Round(row), path, m.Name()),
							vals[3*i+k], vals[3*i+2])
					}
				}
			}
		}
	}

	stub := &stubProc{x: []int64{3, -2, 7}, step: func(x []int64) { x[0]--; x[1]++ }}
	res, err := (&Runner{Proc: stub, Metrics: []Metric{Discrepancy(), TotalLoad()}}).Run(3)
	if err != nil {
		t.Fatal(err)
	}
	last := res.Series.Row(res.Series.Len() - 1)
	same("operator-less shared discrepancy", last[0], metrics.Discrepancy(stub.x))
	same("operator-less shared total_load", last[1], metrics.Total(stub.x))
	same("operator-less one-shot discrepancy", Discrepancy().Compute(stub), metrics.Discrepancy(stub.x))
	same("operator-less one-shot total_load", TotalLoad().Compute(stub), metrics.Total(stub.x))
}
