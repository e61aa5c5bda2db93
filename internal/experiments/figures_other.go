package experiments

import (
	"fmt"
	"io"

	"diffusionlb/internal/core"
	"diffusionlb/internal/sim"
)

func init() {
	register(Experiment{
		ID:       "fig12",
		Artifact: "Figure 12",
		Title:    "Random graph (configuration model): SOS vs FOS, switch to FOS at round 12",
		Run:      runFig12,
	})
	register(Experiment{
		ID:       "fig13",
		Artifact: "Figure 13",
		Title:    "Hypercube: SOS vs FOS, switch to FOS at round 32",
		Run:      runFig13,
	})
	register(Experiment{
		ID:       "fig14",
		Artifact: "Figure 14",
		Title:    "Random geometric graph: SOS vs FOS, switch to FOS at round 500",
		Run:      runFig14,
	})
}

// runComparison is the shared shape of Figures 12-14: SOS metrics, FOS
// max−avg, and a hybrid run switching at switchRound.
func runComparison(w io.Writer, p Params, name string, sys *sim.System, rounds, every, switchRound int) error {
	x0, err := pointLoadDiscrete(sys.Graph.NumNodes(), 1000)
	if err != nil {
		return err
	}
	cells := []struct {
		kind    core.Kind
		policy  core.AdaptivePolicy
		metrics []sim.Metric
		prefix  string
	}{
		{core.SOS, nil, nil, "sos_"},
		{core.FOS, nil, []sim.Metric{sim.MaxMinusAvg()}, "fos_"},
		{core.SOS, core.SwitchAtRound{Round: switchRound},
			[]sim.Metric{sim.MaxMinusAvg(), sim.PotentialPerN()},
			fmt.Sprintf("sw%d_", switchRound)},
	}
	series := make([]*sim.Series, len(cells))
	prefixes := make([]string, len(cells))
	if err := p.runCells(len(cells), func(i int) error {
		c := cells[i]
		proc, err := p.discrete(sys, c.kind, x0)
		if err != nil {
			return err
		}
		r := &sim.Runner{Proc: proc, Every: every, Adaptive: c.policy, Metrics: c.metrics}
		res, err := r.Run(rounds)
		if err != nil {
			return err
		}
		series[i] = res.Series
		prefixes[i] = c.prefix
		return nil
	}); err != nil {
		return err
	}

	m, err := merged(prefixes, series)
	if err != nil {
		return err
	}
	if err := writeSeries(w, p, name, m); err != nil {
		return err
	}

	sosFinal, _ := series[0].Last("max_minus_avg")
	fosFinal, _ := series[1].Last("max_minus_avg")
	swFinal, _ := series[2].Last("max_minus_avg")
	_, err = fmt.Fprintf(w, "\nfinal max−avg: SOS=%.0f FOS=%.0f hybrid(sw@%d)=%.0f\n",
		sosFinal, fosFinal, switchRound, swFinal)
	return err
}

func runFig12(w io.Writer, p Params) error {
	p = p.withDefaults()
	e, _ := ByID("fig12")
	n, d := p.size(2000, 20000, 1_000_000), p.size(11, 14, 19)
	rounds := p.rounds(100, 100)
	sys, err := p.topology(fmt.Sprintf("regular:%d:%d", n, d), "")
	if err != nil {
		return err
	}
	if err := header(w, e, fmt.Sprintf("configuration-model random graph n=%d d=%d (paper: n=10^6 d=19), λ=%.6f β=%.6f",
		n, d, sys.Lambda, sys.Beta)); err != nil {
		return err
	}
	return runComparison(w, p, "fig12_random_graph_cm", sys, rounds, 1, 12)
}

func runFig13(w io.Writer, p Params) error {
	p = p.withDefaults()
	e, _ := ByID("fig13")
	dim := p.size(9, 14, 20)
	rounds := p.rounds(200, 200)
	sys, err := p.topology(fmt.Sprintf("hypercube:%d", dim), "")
	if err != nil {
		return err
	}
	if err := header(w, e, fmt.Sprintf("hypercube n=2^%d (paper: 2^20), λ=%.6f β=%.6f", dim, sys.Lambda, sys.Beta)); err != nil {
		return err
	}
	return runComparison(w, p, "fig13_hypercube", sys, rounds, 2, 32)
}

func runFig14(w io.Writer, p Params) error {
	p = p.withDefaults()
	e, _ := ByID("fig14")
	n := p.size(600, 2500, 10000)
	rounds := p.rounds(1000, 1000)
	sys, err := p.topology(fmt.Sprintf("rgg:%d", n), "")
	if err != nil {
		return err
	}
	if err := header(w, e, fmt.Sprintf("random geometric graph n=%d r=(log n)^1/4 patched connected (paper: n=10^4), λ=%.6f β=%.6f",
		n, sys.Lambda, sys.Beta)); err != nil {
		return err
	}
	return runComparison(w, p, "fig14_rgg", sys, rounds, 5, 500)
}
