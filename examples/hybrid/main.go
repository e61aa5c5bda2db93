// Hybrid: the paper's headline empirical recipe (Section VI-A). Discrete
// SOS balances fast but stalls at a small constant imbalance; switching
// every node to FOS once the maximum local load difference reaches a
// constant threshold drops the remaining imbalance further.
//
// This example compares three runs on the same torus and seed:
//
//  1. pure SOS,
//  2. hybrid with a fixed switch round (as in Figures 4/5),
//  3. hybrid with the locally computable switch signal the paper
//     recommends (max local difference <= threshold).
//
// Run with:
//
//	go run ./examples/hybrid
package main

import (
	"fmt"
	"log"

	"diffusionlb"
)

const (
	side     = 64
	rounds   = 800
	switchAt = 300
	seed     = 7
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
	x0, err := diffusionlb.PointLoad(n, 1000*int64(n), 0)
	if err != nil {
		return err
	}

	type outcome struct {
		name        string
		switchRound int
		maxMinusAvg float64
		localDiff   float64
	}
	var results []outcome

	configs := []struct {
		name   string
		policy diffusionlb.AdaptivePolicy
	}{
		{"pure SOS", diffusionlb.NeverSwitch{}},
		{fmt.Sprintf("switch@%d", switchAt), diffusionlb.SwitchAtRound{Round: switchAt}},
		{"switch on local diff <= 16", diffusionlb.SwitchOnLocalDiff{Threshold: 16}},
	}
	for _, cfg := range configs {
		proc, err := sys.NewDiscrete(diffusionlb.SOS, diffusionlb.RandomizedRounder{}, seed, x0)
		if err != nil {
			return err
		}
		runner := &diffusionlb.Runner{
			Proc:     proc,
			Every:    10,
			Adaptive: cfg.policy,
			Metrics: []diffusionlb.Metric{
				diffusionlb.MetricMaxMinusAvg(),
				diffusionlb.MetricMaxLocalDiff(),
			},
		}
		res, err := runner.Run(rounds)
		if err != nil {
			return err
		}
		mma, err := res.Series.Last("max_minus_avg")
		if err != nil {
			return err
		}
		mld, err := res.Series.Last("max_local_diff")
		if err != nil {
			return err
		}
		results = append(results, outcome{cfg.name, res.SwitchRound, mma, mld})
	}

	fmt.Printf("torus %dx%d, %d rounds, avg load 1000, λ=%.6f β=%.6f\n\n",
		side, side, rounds, sys.Lambda(), sys.Beta())
	fmt.Printf("%-28s %12s %14s %16s\n", "run", "switched at", "max − avg", "max local diff")
	for _, r := range results {
		sw := "never"
		if r.switchRound >= 0 {
			sw = fmt.Sprintf("round %d", r.switchRound)
		}
		fmt.Printf("%-28s %12s %14.0f %16.0f\n", r.name, sw, r.maxMinusAvg, r.localDiff)
	}
	fmt.Println("\nSOS alone stalls at a small constant; both hybrid runs push the imbalance lower,")
	fmt.Println("and the local-difference trigger needs no global knowledge (paper, Section VI-A).")
	return nil
}
