package experiments

import (
	"fmt"
	"io"

	"diffusionlb/internal/core"
	"diffusionlb/internal/divergence"
	"diffusionlb/internal/metrics"
)

func init() {
	register(Experiment{
		ID:       "negload",
		Artifact: "Section V (Observation 5, Theorems 10/11)",
		Title:    "Negative load under SOS: observed minimum transient load vs the paper's bounds, and the base load that prevents negative load",
		Run:      runNegload,
	})
	register(Experiment{
		ID:       "deviation",
		Artifact: "Sections III/IV (Theorems 4, 8, 9)",
		Title:    "Measured deviation between discrete and continuous processes vs the refined-local-divergence bounds",
		Run:      runDeviation,
	})
}

func runNegload(w io.Writer, p Params) error {
	p = p.withDefaults()
	e, _ := ByID("negload")
	side := p.size(20, 32, 100)
	spike := int64(100_000)
	rounds := p.rounds(800, 800)
	if p.Full {
		spike = 1_000_000
	}
	sys, err := p.topology(torus(side), "")
	if err != nil {
		return err
	}
	n := sys.Graph.NumNodes()
	if err := header(w, e, fmt.Sprintf("torus %dx%d, SOS β=%.6f, spike of %d tokens at v0 on top of a uniform base load; %d rounds",
		side, side, sys.Beta, spike, rounds)); err != nil {
		return err
	}

	delta0For := func(base int64) float64 {
		// Δ(0) = max − avg = spike·(1 − 1/n).
		return float64(spike) * (1 - 1/float64(n))
	}
	safeBase := divergence.MinInitialLoadForSafety(n, delta0For(0), sys.Lambda)
	fmt.Fprintf(w, "\nλ=%.6f  Observation 5 bound: %.0f   Theorem 10 bound: %.0f   Theorem 11 bound: %.0f\n",
		sys.Lambda,
		divergence.Observation5Bound(n, delta0For(0)),
		divergence.Theorem10Bound(n, delta0For(0), sys.Lambda),
		divergence.Theorem11Bound(n, delta0For(0), sys.Lambda, sys.Graph.MaxDegree()))
	fmt.Fprintf(w, "Theorem 10 inverted: base load >= %.0f per node suffices to avoid negative transient load\n\n", safeBase)

	fmt.Fprintf(w, "%12s  %-12s %16s %16s %14s %14s\n",
		"base load", "process", "min transient", "min end-of-round", "neg rounds", "safe")
	bases := []int64{0, int64(safeBase) / 100, int64(safeBase) / 10, int64(safeBase)}
	// Each base yields a discrete and a continuous row; the runs execute as
	// independent cells and the rows print in base order afterwards.
	rows := make([][2]string, len(bases))
	if err := p.runCells(len(bases), func(i int) error {
		base := bases[i]
		x0, err := metrics.BalancedPlusSpike(n, base, spike, 0)
		if err != nil {
			return err
		}
		// Discrete randomized SOS.
		disc, err := p.discrete(sys, core.SOS, x0)
		if err != nil {
			return err
		}
		core.Run(disc, rounds)
		minT, _ := disc.MinTransientInt()
		minE, _ := disc.MinEndOfRound()
		rows[i][0] = fmt.Sprintf("%12d  %-12s %16d %16d %14d %14v",
			base, "discrete", minT, minE, disc.NegativeTransientRounds(), minT >= 0)

		// Continuous SOS for the Observation 5 / Theorem 10 comparison.
		cont, err := p.continuous(sys, core.SOS, toFloat(x0))
		if err != nil {
			return err
		}
		core.Run(cont, rounds)
		rows[i][1] = fmt.Sprintf("%12d  %-12s %16.1f %16.1f %14d %14v",
			base, "continuous", cont.MinTransient(), metrics.MinLoad(cont.LoadsFloat()),
			cont.NegativeTransientRounds(), cont.MinTransient() >= 0)
		return nil
	}); err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Fprintln(w, r[0])
		fmt.Fprintln(w, r[1])
	}
	_, err = fmt.Fprintln(w, "\nshape check: the observed negative transient is far shallower than the worst-case bounds, and the inverted Theorem 10 base load always suffices")
	return err
}

func runDeviation(w io.Writer, p Params) error {
	p = p.withDefaults()
	e, _ := ByID("deviation")
	rounds := p.rounds(400, 400)
	if err := header(w, e, fmt.Sprintf("‖x_D − x_C‖_∞ over %d rounds (randomized rounding) vs Υ_C(G)·√(d·ln n); small graphs, exact dense Υ", rounds)); err != nil {
		return err
	}
	cycleN := p.size(32, 64, 64)
	cubeDim := p.size(6, 8, 8)
	rrN, rrD := p.size(64, 128, 128), p.size(6, 8, 8)
	cases := []struct{ label, graph string }{
		{fmt.Sprintf("cycle n=%d", cycleN), fmt.Sprintf("cycle:%d", cycleN)},
		{"torus 12x12", torus(12)},
		{fmt.Sprintf("hypercube 2^%d", cubeDim), fmt.Sprintf("hypercube:%d", cubeDim)},
		{fmt.Sprintf("random regular n=%d d=%d", rrN, rrD), fmt.Sprintf("regular:%d:%d", rrN, rrD)},
	}
	fmt.Fprintf(w, "\n%-26s %5s  %-14s %12s %12s %8s %12s %14s\n",
		"graph", "kind", "lambda", "dev inf", "Υ·√(d ln n)", "within", "dev L2", "Thm8 d√n/(1−λ)")
	// Flatten to one cell per (graph, scheme); each cell builds its own
	// small system, so nothing is shared and all 8 run concurrently.
	kinds := []core.Kind{core.FOS, core.SOS}
	rows := make([]string, len(cases)*len(kinds))
	err := p.runCells(len(rows), func(cell int) error {
		c, kind := cases[cell/len(kinds)], kinds[cell%len(kinds)]
		sys, err := p.topology(c.graph, "")
		if err != nil {
			return err
		}
		n := sys.Graph.NumNodes()
		x0, err := pointLoadDiscrete(n, 1000)
		if err != nil {
			return err
		}
		disc, err := p.discrete(sys, kind, x0)
		if err != nil {
			return err
		}
		cont, err := p.continuous(sys, kind, toFloat(x0))
		if err != nil {
			return err
		}
		var worst, worst2 float64
		for round := 0; round < rounds; round++ {
			disc.Step()
			cont.Step()
			dev, err := metrics.DeviationInf(disc.LoadsInt(), cont.LoadsFloat())
			if err != nil {
				return err
			}
			if dev > worst {
				worst = dev
			}
			dev2, err := metrics.Deviation2(disc.LoadsInt(), cont.LoadsFloat())
			if err != nil {
				return err
			}
			if dev2 > worst2 {
				worst2 = dev2
			}
		}
		qseq, err := divergence.NewQSequence(sys.Op, kind, sys.Beta)
		if err != nil {
			return err
		}
		// One representative node is enough on these (near-)transitive
		// graphs and keeps the dense sweep fast.
		ups, _, err := divergence.Upsilon(qseq, divergence.UpsilonOptions{
			MaxRounds: 6000, Nodes: []int{0},
		})
		if err != nil {
			return err
		}
		bound := divergence.TheoremBound(ups, sys.Graph.MaxDegree(), n)
		thm8 := divergence.Theorem8Bound(sys.Graph.MaxDegree(), n, 1, sys.Lambda)
		rows[cell] = fmt.Sprintf("%-26s %5v  %-14.8f %12.2f %12.2f %8v %12.2f %14.0f",
			c.label, kind, sys.Lambda, worst, bound, worst <= bound, worst2, thm8)
		return nil
	})
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Fprintln(w, r)
	}
	_, err = fmt.Fprintln(w, "\nshape check: measured deviations sit below the Υ-based bound on every graph, SOS deviations exceed FOS deviations (Theorem 9 vs Theorem 4), and the L2 deviation is far below the Theorem 8 / [12]-style d√n/(1−λ) scale")
	return err
}
