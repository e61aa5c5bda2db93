package experiments

import (
	"fmt"
	"io"

	"diffusionlb/internal/spectral"
)

func init() {
	register(Experiment{
		ID:       "table1",
		Artifact: "Table I",
		Title:    "Graph types, second eigenvalue λ and optimal SOS parameter β per graph class",
		Run:      runTable1,
	})
}

// table1Row describes one row of Table I.
type table1Row struct {
	label    string
	n        int
	d        int
	lambda   float64
	beta     float64
	source   string // analytic | power-iteration
	paperRef string // the β the paper reports, "" when sizes differ
}

func runTable1(w io.Writer, p Params) error {
	p = p.withDefaults()
	e, _ := ByID("table1")
	if err := header(w, e, "β_opt = 2/(1+√(1−λ²)); torus and hypercube spectra are analytic, random graphs use deflated power iteration."); err != nil {
		return err
	}

	// One builder per row; the random-graph rows dominate (graph
	// construction plus deflated power iteration), so the rows run as
	// independent cells on the sweep pool and are printed in table order.
	analyticTorusRow := func(side int, ref string) func() (table1Row, error) {
		return func() (table1Row, error) {
			lam, err := spectral.AnalyticTorus2DLambda(side, side)
			if err != nil {
				return table1Row{}, err
			}
			beta, err := spectral.BetaOpt(lam)
			if err != nil {
				return table1Row{}, err
			}
			return table1Row{
				label: fmt.Sprintf("Two-Dimensional Torus %dx%d", side, side),
				n:     side * side, d: 4, lambda: lam, beta: beta,
				source: "analytic", paperRef: ref,
			}, nil
		}
	}
	// The random-graph rows build their graph and take λ from the power
	// iteration; their paper β holds only at the paper's sizes.
	powerRow := func(label, spec, fullRef string) func() (table1Row, error) {
		return func() (table1Row, error) {
			sys, err := p.topology(spec, "")
			if err != nil {
				return table1Row{}, err
			}
			ref := ""
			if p.Full {
				ref = fullRef
			}
			return table1Row{label: label, n: sys.Graph.NumNodes(), d: sys.Graph.MaxDegree(),
				lambda: sys.Lambda, beta: sys.Beta, source: "power-iteration", paperRef: ref}, nil
		}
	}
	// Random graph (configuration model). Paper: n=10^6, d=floor(log2 n)=19.
	cmN, cmD := p.size(4000, 20000, 1_000_000), p.size(11, 14, 19)
	// Random geometric graph. Paper: n=10^4, r=(log n)^(1/4).
	rggN := p.size(600, 2500, 10000)
	builders := []func() (table1Row, error){
		// Tori: the paper's sizes are analytically available at any scale.
		analyticTorusRow(1000, "1.9920836447"),
		analyticTorusRow(100, "1.9235874877"),
		powerRow(fmt.Sprintf("Random Graph (CM) n=%d d=%d", cmN, cmD), fmt.Sprintf("regular:%d:%d", cmN, cmD), "1.0651965147"),
		powerRow(fmt.Sprintf("Random Geometric Graph n=%d", rggN), fmt.Sprintf("rgg:%d", rggN), "1.9554636334"),
		func() (table1Row, error) {
			// Hypercube. Paper: n = 2^20.
			lamH, err := spectral.AnalyticHypercubeLambda(20)
			if err != nil {
				return table1Row{}, err
			}
			betaH, err := spectral.BetaOpt(lamH)
			if err != nil {
				return table1Row{}, err
			}
			return table1Row{
				label: "Hypercube n=2^20",
				n:     1 << 20, d: 20, lambda: lamH, beta: betaH,
				source: "analytic", paperRef: "1.4026054847",
			}, nil
		},
	}
	rows := make([]table1Row, len(builders))
	if err := p.runCells(len(builders), func(i int) error {
		row, err := builders[i]()
		if err != nil {
			return err
		}
		rows[i] = row
		return nil
	}); err != nil {
		return err
	}

	fmt.Fprintf(w, "\n%-38s %9s %4s  %-14s %-14s %-16s %s\n",
		"Graph", "n", "d", "lambda", "beta_opt", "paper beta", "source")
	for _, r := range rows {
		ref := r.paperRef
		if ref == "" {
			ref = "(scaled size)"
		}
		fmt.Fprintf(w, "%-38s %9d %4d  %-14.10f %-14.10f %-16s %s\n",
			r.label, r.n, r.d, r.lambda, r.beta, ref, r.source)
	}
	return nil
}
