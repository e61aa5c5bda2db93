// Time-varying environments: the paper fixes processor speeds for the whole
// run, but real clusters throttle (thermal/power limits), drain nodes for
// maintenance and bring them back. This walkthrough drives a discrete
// process on a heterogeneous torus while a deterministic environment
// mutates the *speeds* between rounds — which moves the ideal load vector
// the scheme is chasing:
//
//  1. a quarter of the nodes run at speed 4 (two-class heterogeneity), the
//     rest at 1, and the run starts exactly speed-proportional,
//  2. at round 120, half of the fast capacity is throttled to speed 1
//     (factor 0.25, clamped at the model floor): the diffusion operator is
//     reweighted in place and every α-derived quantity follows,
//  3. at round 260 the throttled nodes are restored (the one-shot throttle
//     ends), moving the target back.
//
// The scheme kind is driven by the re-arming adaptive policy
// ("adaptive:16:64:10") over the SPEED-NORMALIZED local difference
// max|x_u/s_u − x_v/s_v|: at the proportional start the signal is tiny, so
// the controller idles in cheap FOS — and each speed event re-inflates the
// signal through the reweighted operator, re-arming SOS to chase the moved
// ideal with momentum.
//
// The environment is a pure function of (seed, round), so the run is
// bit-identical across repeats, worker counts, and checkpoint/restore cuts.
//
// Run with:
//
//	go run ./examples/throttle
package main

import (
	"fmt"
	"log"
	"os"

	"diffusionlb"
)

const (
	side     = 32
	rounds   = 400
	eventR   = 120
	restoreR = 260
	seed     = 11
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
	n := g.NumNodes()
	speeds, err := diffusionlb.TwoClassSpeeds(n, 0.25, 4, seed)
	if err != nil {
		return err
	}
	sys, err := diffusionlb.NewSystem(g, speeds)
	if err != nil {
		return err
	}

	// Proportional start: the moving target, not the initial imbalance, is
	// the story.
	x0, err := diffusionlb.ProportionalLoad(int64(n)*1000, speeds)
	if err != nil {
		return err
	}
	proc, err := sys.NewDiscrete(diffusionlb.SOS, diffusionlb.RandomizedRounder{}, seed, x0)
	if err != nil {
		return err
	}

	// The environment from the CLI spec syntax: one-shot throttle of the
	// fastest eighth of the nodes, restored at round 260.
	spec := fmt.Sprintf("throttle:at=%d,frac=0.125,factor=0.25,until=%d", eventR, restoreR)
	env, err := diffusionlb.EnvironmentFromSpec(spec, n, seed)
	if err != nil {
		return err
	}
	policy, err := diffusionlb.PolicyFromSpec("adaptive:16:64:10")
	if err != nil {
		return err
	}
	runner := &diffusionlb.Runner{
		Proc:        proc,
		Environment: env,
		Adaptive:    policy,
		Every:       20,
		Metrics: []diffusionlb.Metric{
			diffusionlb.MetricIdealLoadDrift(),
			diffusionlb.MetricSpeedSum(),
			diffusionlb.MetricDiscrepancy(),
		},
	}
	res, err := runner.Run(rounds)
	if err != nil {
		return err
	}

	fmt.Printf("torus %dx%d, twoclass:0.25:4 speeds, %d rounds, environment %s, policy %s\n\n",
		side, side, rounds, spec, policy.Name())
	if err := res.Series.WriteTable(os.Stdout, 21); err != nil {
		return err
	}
	fmt.Println()
	for _, ev := range res.SpeedEvents {
		fmt.Printf("round %4d: speeds of %d nodes changed, total speed now %.0f\n", ev.Round, ev.Nodes, ev.Sum)
	}
	for _, ev := range res.Switches {
		fmt.Printf("round %4d: switched %s -> %s\n", ev.Round, ev.From, ev.To)
	}

	retrack, err := diffusionlb.RoundsToRecover(res.Series, "ideal_drift", eventR, 32)
	if err != nil {
		return err
	}
	fmt.Printf("\nideal load re-tracked (drift back under 32 tokens) %d rounds after the throttle\n", retrack)
	fmt.Printf("retargets seen by the engine: %d; total load still %d (speed events move the target, never the load)\n",
		proc.Retargets(), proc.TotalLoad())
	fmt.Println("\nthe adaptive hybrid idles in cheap FOS while the network tracks its target,")
	fmt.Println("re-arms SOS the moment a speed event moves the ideal load out from under it,")
	fmt.Println("and re-tracks with second-order momentum — then does it again when the")
	fmt.Println("throttled nodes come back.")
	return nil
}
