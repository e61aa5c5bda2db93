package experiments

import (
	"fmt"
	"io"

	"diffusionlb/internal/core"
	"diffusionlb/internal/eigen"
	"diffusionlb/internal/sim"
)

func init() {
	register(Experiment{
		ID:       "fig1",
		Artifact: "Figure 1",
		Title:    "SOS vs FOS on the 2-D torus: max−avg, max local difference, potential/n",
		Run:      runFig1,
	})
	register(Experiment{
		ID:       "fig2",
		Artifact: "Figure 2",
		Title:    "Impact of the initial load (average 10/100/1000) on SOS convergence",
		Run:      runFig2,
	})
	register(Experiment{
		ID:       "fig3",
		Artifact: "Figure 3",
		Title:    "Discrete (randomized rounding) vs idealized scheme, SOS and FOS",
		Run:      runFig3,
	})
	register(Experiment{
		ID:       "fig4",
		Artifact: "Figure 4",
		Title:    "Hybrid runs: switch SOS→FOS at two different rounds",
		Run:      runFig4,
	})
	register(Experiment{
		ID:       "fig5",
		Artifact: "Figure 5",
		Title:    "Direct comparison: pure SOS vs SOS-then-FOS (same data as Figure 4)",
		Run:      runFig5,
	})
	register(Experiment{
		ID:       "fig6",
		Artifact: "Figure 6",
		Title:    "Idealized vs randomized SOS, and the idealized scheme's conservation error",
		Run:      runFig6,
	})
	register(Experiment{
		ID:       "fig7",
		Artifact: "Figure 7",
		Title:    "Impact of eigenvectors: leading coefficient max|a_i|, a₄, leading index",
		Run:      runFig7,
	})
	register(Experiment{
		ID:       "fig8",
		Artifact: "Figure 8",
		Title:    "Switch-round sweep: FOS after 300/500/700/900 SOS rounds",
		Run:      runFig8,
	})
	register(Experiment{
		ID:       "fig15",
		Artifact: "Figure 15",
		Title:    "100×100 torus with eigen-coefficient overlay and FOS switch at 500",
		Run:      runFig15,
	})
}

// fig1Torus picks the torus size and round budget of the Figure 1 family.
func fig1Torus(p Params) (side, rounds, every int) {
	if p.Full {
		return 1000, p.rounds(0, 5000), 25
	}
	if p.tiny() {
		return 32, p.rounds(400, 0), 2
	}
	return 100, p.rounds(1200, 0), 6
}

func runFig1(w io.Writer, p Params) error {
	p = p.withDefaults()
	e, _ := ByID("fig1")
	side, rounds, every := fig1Torus(p)
	sys, err := p.topology(torus(side), "")
	if err != nil {
		return err
	}
	if err := header(w, e, fmt.Sprintf("torus %dx%d, avg load 1000 on node v0, randomized rounding, β=%.10f",
		side, side, sys.Beta)); err != nil {
		return err
	}
	x0, err := pointLoadDiscrete(sys.Graph.NumNodes(), 1000)
	if err != nil {
		return err
	}
	kinds := []core.Kind{core.SOS, core.FOS}
	series := make([]*sim.Series, len(kinds))
	if err := p.runCells(len(kinds), func(i int) error {
		proc, err := p.discrete(sys, kinds[i], x0)
		if err != nil {
			return err
		}
		r := &sim.Runner{Proc: proc, Every: every}
		res, err := r.Run(rounds)
		if err != nil {
			return err
		}
		series[i] = res.Series
		return nil
	}); err != nil {
		return err
	}
	sosSeries, fosSeries := series[0], series[1]
	m, err := merged([]string{"sos_", "fos_"}, series)
	if err != nil {
		return err
	}
	if err := writeSeries(w, p, "fig1_torus_sos_vs_fos", m); err != nil {
		return err
	}
	sosFinal, _ := sosSeries.Last("max_minus_avg")
	fosFinal, _ := fosSeries.Last("max_minus_avg")
	_, err = fmt.Fprintf(w, "\nfinal max−avg after %d rounds: SOS=%.0f FOS=%.0f (SOS races ahead early; both stall at a small constant)\n",
		rounds, sosFinal, fosFinal)
	return err
}

func runFig2(w io.Writer, p Params) error {
	p = p.withDefaults()
	e, _ := ByID("fig2")
	side, rounds, every := fig1Torus(p)
	sys, err := p.topology(torus(side), "")
	if err != nil {
		return err
	}
	if err := header(w, e, fmt.Sprintf("torus %dx%d, SOS, average initial loads 10/100/1000 at v0", side, side)); err != nil {
		return err
	}
	avgs := []int64{10, 100, 1000}
	series := make([]*sim.Series, len(avgs))
	prefixes := make([]string, len(avgs))
	if err := p.runCells(len(avgs), func(i int) error {
		x0, err := pointLoadDiscrete(sys.Graph.NumNodes(), avgs[i])
		if err != nil {
			return err
		}
		proc, err := p.discrete(sys, core.SOS, x0)
		if err != nil {
			return err
		}
		r := &sim.Runner{Proc: proc, Every: every, Metrics: []sim.Metric{sim.MaxMinusAvg()}}
		res, err := r.Run(rounds)
		if err != nil {
			return err
		}
		series[i] = res.Series
		prefixes[i] = fmt.Sprintf("avg%d_", avgs[i])
		return nil
	}); err != nil {
		return err
	}
	m, err := merged(prefixes, series)
	if err != nil {
		return err
	}
	if err := writeSeries(w, p, "fig2_initial_load_sweep", m); err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, "\nthe three curves differ only by their starting level; post-convergence behaviour matches (limited impact of initial load)")
	return err
}

func runFig3(w io.Writer, p Params) error {
	p = p.withDefaults()
	e, _ := ByID("fig3")
	side, rounds, every := fig1Torus(p)
	sys, err := p.topology(torus(side), "")
	if err != nil {
		return err
	}
	if err := header(w, e, fmt.Sprintf("torus %dx%d: discrete randomized rounding vs idealized (divisible) loads", side, side)); err != nil {
		return err
	}
	x0, err := pointLoadDiscrete(sys.Graph.NumNodes(), 1000)
	if err != nil {
		return err
	}
	variants := []struct {
		kind  core.Kind
		ideal bool
		name  string
	}{
		{core.SOS, false, "disc"}, {core.SOS, true, "ideal"},
		{core.FOS, false, "disc"}, {core.FOS, true, "ideal"},
	}
	series := make([]*sim.Series, len(variants))
	prefixes := make([]string, len(variants))
	x0f := toFloat(x0)
	if err := p.runCells(len(variants), func(i int) error {
		v := variants[i]
		var proc core.Process
		var err error
		if v.ideal {
			proc, err = p.continuous(sys, v.kind, x0f)
		} else {
			proc, err = p.discrete(sys, v.kind, x0)
		}
		if err != nil {
			return err
		}
		r := &sim.Runner{Proc: proc, Every: every, Metrics: []sim.Metric{sim.MaxMinusAvg()}}
		res, err := r.Run(rounds)
		if err != nil {
			return err
		}
		series[i] = res.Series
		prefixes[i] = fmt.Sprintf("%s_%s_", v.kind, v.name)
		return nil
	}); err != nil {
		return err
	}
	m, err := merged(prefixes, series)
	if err != nil {
		return err
	}
	if err := writeSeries(w, p, "fig3_discrete_vs_idealized", m); err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, "\nidealized curves keep decaying exponentially; discrete curves flatten at the rounding floor")
	return err
}

// fig4Switches picks the two switch rounds of Figure 4 ("early" at the end
// of the exponential decay, "late" a few hundred rounds after).
func fig4Switches(p Params) (early, late int) {
	if p.Full {
		return 2500, 3000
	}
	return 500, 700
}

func runFig4(w io.Writer, p Params) error {
	p = p.withDefaults()
	e, _ := ByID("fig4")
	side, rounds, every := fig1Torus(p)
	early, late := fig4Switches(p)
	// A reduced round budget (RoundsOverride) clamps the switch rounds so
	// the hybrid still fires.
	if late >= rounds {
		early, late = rounds/2, 2*rounds/3
	}
	sys, err := p.topology(torus(side), "")
	if err != nil {
		return err
	}
	if err := header(w, e, fmt.Sprintf("torus %dx%d, hybrid SOS→FOS at rounds %d and %d", side, side, early, late)); err != nil {
		return err
	}
	x0, err := pointLoadDiscrete(sys.Graph.NumNodes(), 1000)
	if err != nil {
		return err
	}
	switches := []int{early, late}
	series := make([]*sim.Series, len(switches))
	prefixes := make([]string, len(switches))
	if err := p.runCells(len(switches), func(i int) error {
		sw := switches[i]
		proc, err := p.discrete(sys, core.SOS, x0)
		if err != nil {
			return err
		}
		r := &sim.Runner{Proc: proc, Every: every, Adaptive: core.SwitchAtRound{Round: sw}}
		res, err := r.Run(rounds)
		if err != nil {
			return err
		}
		if res.SwitchRound != sw {
			return fmt.Errorf("fig4: switch fired at %d, want %d", res.SwitchRound, sw)
		}
		series[i] = res.Series
		prefixes[i] = fmt.Sprintf("sw%d_", sw)
		return nil
	}); err != nil {
		return err
	}
	m, err := merged(prefixes, series)
	if err != nil {
		return err
	}
	if err := writeSeries(w, p, "fig4_hybrid_switch", m); err != nil {
		return err
	}
	for i, sw := range []int{early, late} {
		local, _ := series[i].Last("max_local_diff")
		global, _ := series[i].Last("max_minus_avg")
		fmt.Fprintf(w, "switch@%d: final max local diff=%.0f, final max−avg=%.0f\n", sw, local, global)
	}
	return nil
}

func runFig5(w io.Writer, p Params) error {
	p = p.withDefaults()
	e, _ := ByID("fig5")
	side, rounds, every := fig1Torus(p)
	early, late := fig4Switches(p)
	if late >= rounds {
		early, late = rounds/2, 2*rounds/3
	}
	sys, err := p.topology(torus(side), "")
	if err != nil {
		return err
	}
	if err := header(w, e, fmt.Sprintf("torus %dx%d: pure SOS vs hybrid (switch at %d / %d), max−avg only", side, side, early, late)); err != nil {
		return err
	}
	x0, err := pointLoadDiscrete(sys.Graph.NumNodes(), 1000)
	if err != nil {
		return err
	}
	configs := []struct {
		policy core.AdaptivePolicy
		label  string
	}{
		{core.NeverSwitch{}, "sos_"},
		{core.SwitchAtRound{Round: early}, fmt.Sprintf("fos%d_", early)},
		{core.SwitchAtRound{Round: late}, fmt.Sprintf("fos%d_", late)},
	}
	series := make([]*sim.Series, len(configs))
	prefixes := make([]string, len(configs))
	if err := p.runCells(len(configs), func(i int) error {
		proc, err := p.discrete(sys, core.SOS, x0)
		if err != nil {
			return err
		}
		r := &sim.Runner{Proc: proc, Every: every, Adaptive: configs[i].policy,
			Metrics: []sim.Metric{sim.MaxMinusAvg()}}
		res, err := r.Run(rounds)
		if err != nil {
			return err
		}
		series[i] = res.Series
		prefixes[i] = configs[i].label
		return nil
	}); err != nil {
		return err
	}
	m, err := merged(prefixes, series)
	if err != nil {
		return err
	}
	if err := writeSeries(w, p, "fig5_sos_vs_hybrid", m); err != nil {
		return err
	}
	pure, _ := series[0].Last("max_minus_avg")
	hyb, _ := series[1].Last("max_minus_avg")
	_, err = fmt.Fprintf(w, "\nremaining imbalance: pure SOS=%.0f vs hybrid=%.0f — the switch drops the plateau\n", pure, hyb)
	return err
}

func runFig6(w io.Writer, p Params) error {
	p = p.withDefaults()
	e, _ := ByID("fig6")
	side, rounds, every := fig1Torus(p)
	sys, err := p.topology(torus(side), "")
	if err != nil {
		return err
	}
	if err := header(w, e, fmt.Sprintf("torus %dx%d, SOS: idealized (float64) vs randomized rounding; |Σx(t)−Σx(0)| for the idealized run", side, side)); err != nil {
		return err
	}
	x0, err := pointLoadDiscrete(sys.Graph.NumNodes(), 1000)
	if err != nil {
		return err
	}
	disc, err := p.discrete(sys, core.SOS, x0)
	if err != nil {
		return err
	}
	cont, err := p.continuous(sys, core.SOS, toFloat(x0))
	if err != nil {
		return err
	}
	absErr := sim.MetricFunc("ideal_abs_total_error", func(core.Process) float64 {
		err := cont.ConservationError()
		if err < 0 {
			return -err
		}
		return err
	})
	r := &sim.Runner{
		Proc:     disc,
		Every:    every,
		Lockstep: []core.Process{cont},
		Metrics: []sim.Metric{
			sim.MaxMinusAvg(),
			sim.MetricFunc("ideal_max_minus_avg", func(core.Process) float64 {
				return sim.MaxMinusAvg().Compute(cont)
			}),
			sim.DeviationFrom(cont, "deviation_inf"),
			absErr,
		},
	}
	res, err := r.Run(rounds)
	if err != nil {
		return err
	}
	if err := writeSeries(w, p, "fig6_idealized_vs_randomized", res.Series); err != nil {
		return err
	}
	dev, _ := res.Series.Last("deviation_inf")
	tot, _ := res.Series.Last("ideal_abs_total_error")
	_, err = fmt.Fprintf(w, "\nfinal ‖x_D−x_C‖_∞ = %.1f; idealized total-load drift = %.3g (negligible, cf. Figure 6 right)\n", dev, tot)
	return err
}

// fig7Size picks the torus side for the eigenvector-impact experiments
// (the paper uses 100×100 for Figures 7/8/15).
func fig7Size(p Params) (side, rounds, every int) {
	if p.Full {
		return 100, p.rounds(0, 1000), 5
	}
	if p.tiny() {
		return 32, p.rounds(400, 0), 2
	}
	return 100, p.rounds(1000, 0), 5
}

func runFig7(w io.Writer, p Params) error {
	p = p.withDefaults()
	e, _ := ByID("fig7")
	side, rounds, every := fig7Size(p)
	sys, err := p.topology(torus(side), "")
	if err != nil {
		return err
	}
	if err := header(w, e, fmt.Sprintf("torus %dx%d, SOS; coefficients a_i from the exact torus Fourier basis (paper: LAPACK solve of V·a = x(t))", side, side)); err != nil {
		return err
	}
	basis, err := eigen.NewTorusBasis(side, side)
	if err != nil {
		return err
	}
	x0, err := pointLoadDiscrete(sys.Graph.NumNodes(), 1000)
	if err != nil {
		return err
	}
	proc, err := p.discrete(sys, core.SOS, x0)
	if err != nil {
		return err
	}
	loadBuf := make([]float64, sys.Graph.NumNodes())
	impact := func(p core.Process) eigen.ImpactReport {
		lv := p.Loads()
		for i, v := range lv.Int {
			loadBuf[i] = float64(v)
		}
		rep, err := basis.Impact(loadBuf)
		if err != nil {
			return eigen.ImpactReport{}
		}
		return rep
	}
	r := &sim.Runner{
		Proc:  proc,
		Every: every,
		Metrics: []sim.Metric{
			sim.MetricFunc("max_abs_ai", func(pp core.Process) float64 { return impact(pp).MaxAbsCoeff }),
			sim.MetricFunc("a4", func(pp core.Process) float64 { return impact(pp).A4 }),
			sim.MetricFunc("leading_rank", func(pp core.Process) float64 { return float64(impact(pp).LeadingRank) }),
			sim.MaxMinusAvg(),
		},
	}
	res, err := r.Run(rounds)
	if err != nil {
		return err
	}
	if err := writeSeries(w, p, "fig7_eigen_impact", res.Series); err != nil {
		return err
	}
	// Count how long a single mode stays the leader (the paper sees a₄
	// leading from ~100 to ~700, then no stable leader).
	ranks, err := res.Series.Column("leading_rank")
	if err != nil {
		return err
	}
	longest, cur, prev := 0, 0, -1.0
	for _, v := range ranks {
		//lint:allow floateq leading_rank stores small integers exactly; run-length counting needs exact matches
		if v == prev {
			cur++
		} else {
			cur, prev = 1, v
		}
		if cur > longest {
			longest = cur
		}
	}
	_, err = fmt.Fprintf(w, "\nlongest stable leading-eigenvector stretch: %d consecutive samples (×%d rounds each)\n", longest, every)
	return err
}

func runFig8(w io.Writer, p Params) error {
	p = p.withDefaults()
	e, _ := ByID("fig8")
	side, rounds, every := fig7Size(p)
	sys, err := p.topology(torus(side), "")
	if err != nil {
		return err
	}
	if err := header(w, e, fmt.Sprintf("torus %dx%d: FOS switch sweep at rounds 300/500/700/900 vs pure SOS", side, side)); err != nil {
		return err
	}
	x0, err := pointLoadDiscrete(sys.Graph.NumNodes(), 1000)
	if err != nil {
		return err
	}
	configs := []struct {
		policy core.AdaptivePolicy
		label  string
	}{
		{core.NeverSwitch{}, "sos_"},
		{core.SwitchAtRound{Round: 300}, "fos300_"},
		{core.SwitchAtRound{Round: 500}, "fos500_"},
		{core.SwitchAtRound{Round: 700}, "fos700_"},
		{core.SwitchAtRound{Round: 900}, "fos900_"},
	}
	series := make([]*sim.Series, len(configs))
	prefixes := make([]string, len(configs))
	if err := p.runCells(len(configs), func(i int) error {
		proc, err := p.discrete(sys, core.SOS, x0)
		if err != nil {
			return err
		}
		r := &sim.Runner{Proc: proc, Every: every, Adaptive: configs[i].policy,
			Metrics: []sim.Metric{sim.MaxMinusAvg()}}
		res, err := r.Run(rounds)
		if err != nil {
			return err
		}
		series[i] = res.Series
		prefixes[i] = configs[i].label
		return nil
	}); err != nil {
		return err
	}
	m, err := merged(prefixes, series)
	if err != nil {
		return err
	}
	if err := writeSeries(w, p, "fig8_switch_sweep", m); err != nil {
		return err
	}
	fmt.Fprintln(w)
	for i, c := range configs {
		v, _ := series[i].Last("max_minus_avg")
		fmt.Fprintf(w, "%-8s final max−avg = %.0f\n", c.label[:len(c.label)-1], v)
	}
	return nil
}

func runFig15(w io.Writer, p Params) error {
	p = p.withDefaults()
	e, _ := ByID("fig15")
	side, rounds, every := fig7Size(p)
	sys, err := p.topology(torus(side), "")
	if err != nil {
		return err
	}
	if err := header(w, e, fmt.Sprintf("torus %dx%d: SOS with FOS switch at 500, with eigen-coefficient overlay", side, side)); err != nil {
		return err
	}
	basis, err := eigen.NewTorusBasis(side, side)
	if err != nil {
		return err
	}
	x0, err := pointLoadDiscrete(sys.Graph.NumNodes(), 1000)
	if err != nil {
		return err
	}
	proc, err := p.discrete(sys, core.SOS, x0)
	if err != nil {
		return err
	}
	loadBuf := make([]float64, sys.Graph.NumNodes())
	impact := func(pp core.Process) eigen.ImpactReport {
		for i, v := range pp.Loads().Int {
			loadBuf[i] = float64(v)
		}
		rep, err := basis.Impact(loadBuf)
		if err != nil {
			return eigen.ImpactReport{}
		}
		return rep
	}
	r := &sim.Runner{
		Proc:     proc,
		Every:    every,
		Adaptive: core.SwitchAtRound{Round: 500},
		Metrics: []sim.Metric{
			sim.MaxMinusAvg(),
			sim.MaxLocalDiff(),
			sim.PotentialPerN(),
			sim.MetricFunc("max_abs_ai", func(pp core.Process) float64 { return impact(pp).MaxAbsCoeff }),
			sim.MetricFunc("leading_rank", func(pp core.Process) float64 { return float64(impact(pp).LeadingRank) }),
		},
	}
	res, err := r.Run(rounds)
	if err != nil {
		return err
	}
	if err := writeSeries(w, p, "fig15_torus_eigen_overlay", res.Series); err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "\nswitched to FOS at round %d\n", res.SwitchRound)
	return err
}
