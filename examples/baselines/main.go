// Baselines: compare diffusion against the two non-diffusion balancers
// from the paper's related work (Section II) on the same instance:
//
//   - random matchings (Ghosh–Muthukrishnan): one partner per node per
//     round, matched pairs split evenly;
//   - random walks (Elsässer–Sauerwald, simplified): tokens above the
//     known average hop to uniform random neighbors until they settle.
//
// The point the paper makes — and this example measures — is that random
// walks need far more token movement than diffusion, even when they
// flatten the maximum quickly.
//
// Run with:
//
//	go run ./examples/baselines
package main

import (
	"fmt"
	"log"

	"diffusionlb"
)

const (
	side = 48
	avg  = 500
	cap_ = 3000
	seed = 13
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	g, err := diffusionlb.Torus2D(side, side)
	if err != nil {
		return err
	}
	sys, err := diffusionlb.NewSystem(g, nil)
	if err != nil {
		return err
	}
	n := g.NumNodes()
	x0, err := diffusionlb.PointLoad(n, avg*int64(n), 0)
	if err != nil {
		return err
	}

	type traffic interface {
		Traffic() (tokens, messages int64)
	}
	runs := []struct {
		name string
		// policy, when set, is applied after every round; the hybrid uses
		// the paper's recipe: switch to FOS once the local difference hits
		// a constant.
		policy diffusionlb.AdaptivePolicy
		make   func() (diffusionlb.Process, error)
	}{
		{"FOS + randomized rounding", nil, func() (diffusionlb.Process, error) {
			return sys.NewDiscrete(diffusionlb.FOS, nil, seed, x0)
		}},
		{"SOS + randomized rounding", nil, func() (diffusionlb.Process, error) {
			return sys.NewDiscrete(diffusionlb.SOS, nil, seed, x0)
		}},
		{"SOS then FOS (hybrid)", diffusionlb.SwitchOnLocalDiff{Threshold: 16}, func() (diffusionlb.Process, error) {
			return sys.NewDiscrete(diffusionlb.SOS, nil, seed, x0)
		}},
		{"random matchings [17]", nil, func() (diffusionlb.Process, error) {
			return diffusionlb.NewMatchingBalancer(sys.Operator(), seed, x0)
		}},
		{"random walks [13]", nil, func() (diffusionlb.Process, error) {
			return diffusionlb.NewRandomWalkBalancer(sys.Operator(), seed, x0)
		}},
	}

	fmt.Printf("torus %dx%d, %d tokens at node 0, target: discrepancy <= 8 (cap %d rounds)\n\n",
		side, side, avg*n, cap_)
	fmt.Printf("%-28s %8s %7s %16s %16s %12s\n",
		"algorithm", "rounds", "done", "token-hops", "edge messages", "final disc")
	for _, r := range runs {
		proc, err := r.make()
		if err != nil {
			return err
		}
		converged := diffusionlb.ConvergedWithin(8)
		rounds, ok := diffusionlb.RunUntil(proc, cap_, func(p diffusionlb.Process) bool {
			if r.policy != nil {
				diffusionlb.ApplyAdaptive(p, r.policy)
			}
			return converged(p)
		})
		tokens, messages := int64(0), int64(0)
		if tp, isTraffic := proc.(traffic); isTraffic {
			tokens, messages = tp.Traffic()
		}
		var disc float64
		if lv := proc.Loads(); lv.Int != nil {
			mn, mx := lv.Int[0], lv.Int[0]
			for _, v := range lv.Int[1:] {
				if v < mn {
					mn = v
				}
				if v > mx {
					mx = v
				}
			}
			disc = float64(mx - mn)
		}
		fmt.Printf("%-28s %8d %7v %16d %16d %12.0f\n", r.name, rounds, ok, tokens, messages, disc)
	}
	fmt.Println("\nnote: pure discrete SOS never reaches discrepancy 8 — it stalls at its")
	fmt.Println("constant plateau (the paper's Figure 1 observation); the hybrid fixes that.")
	fmt.Println("\ndiffusion does bounded, local work per edge; random walks flood the network")
	fmt.Println("with token movements — the trade-off Section II of the paper describes.")
	return nil
}
