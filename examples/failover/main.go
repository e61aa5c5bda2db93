// Coupled failure scenarios: the paper fixes both the processor speeds and
// the load vector; real failures move both at once. This walkthrough drives
// a discrete second-order process on a heterogeneous torus through one
// coupled timeline:
//
//  1. a quarter of the nodes run at speed 4 (two-class heterogeneity), the
//     rest at 1, and the run starts exactly speed-proportional,
//  2. at round 120 the whole fast class drains over an 8-round ramp — its
//     speed sinks to the model floor of 1 WHILE its load migrates to the
//     neighboring nodes (migration on leave), one atomic event per round,
//  3. the drain makes the network homogeneous, so the operator's spectrum
//     moves too: the β re-optimization policy re-runs the power iteration
//     the round the total speed crosses the drift threshold and installs
//     the post-drain β_opt in place (a recently seen speed vector would
//     reuse its λ bit for bit),
//  4. the re-arming adaptive policy ("adaptive:16:64:10") re-arms SOS as
//     the evacuated load inflates the speed-normalized local difference.
//
// Everything is a pure function of (seed, round[, loads]): the run is
// bit-identical across repeats, worker counts, and checkpoint/restore cuts
// — even a cut in the middle of the migration ramp.
//
// Run with:
//
//	go run ./examples/failover
package main

import (
	"fmt"
	"log"
	"os"

	"diffusionlb"
)

const (
	side   = 32
	rounds = 400
	eventR = 120
	rampW  = 8
	seed   = 11
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

	// Proportional start: the coupled failure, not the initial imbalance,
	// is the story.
	x0, err := diffusionlb.ProportionalLoad(int64(n)*1000, speeds)
	if err != nil {
		return err
	}
	proc, err := sys.NewDiscrete(diffusionlb.SOS, diffusionlb.RandomizedRounder{}, seed, x0)
	if err != nil {
		return err
	}

	// The scenario from the CLI spec syntax: drain the fast class with
	// migration-on-leave.
	spec := fmt.Sprintf("drain:at=%d,frac=0.25,ramp=%d", eventR, rampW)
	scn, err := diffusionlb.ScenarioFromSpec(spec, n, seed)
	if err != nil {
		return err
	}
	policy, err := diffusionlb.PolicyFromSpec("adaptive:16:64:10")
	if err != nil {
		return err
	}
	runner := &diffusionlb.Runner{
		Proc:      proc,
		Scenario:  scn,
		Adaptive:  policy,
		BetaReopt: &diffusionlb.BetaReopt{Threshold: 0.1},
		Every:     20,
		Metrics: []diffusionlb.Metric{
			diffusionlb.MetricIdealLoadDrift(),
			diffusionlb.MetricSpeedSum(),
			diffusionlb.MetricDiscrepancy(),
			diffusionlb.MetricTotalLoad(),
		},
	}
	res, err := runner.Run(rounds)
	if err != nil {
		return err
	}

	fmt.Printf("torus %dx%d, twoclass:0.25:4 speeds, %d rounds, scenario %s, policy %s\n",
		side, side, rounds, spec, policy.Name())
	fmt.Printf("pre-drain beta_opt=%.6f\n\n", sys.Beta())
	if err := res.Series.WriteTable(os.Stdout, 21); err != nil {
		return err
	}
	fmt.Println()
	for _, ev := range res.ScenarioEvents {
		fmt.Printf("round %4d: %2d nodes changed speed, %6d tokens migrated, total speed now %.0f\n",
			ev.Round, ev.Nodes, ev.Moved, ev.Sum)
	}
	for _, ev := range res.BetaEvents {
		fmt.Printf("round %4d: beta re-optimized to %.6f (lambda %.6f)\n", ev.Round, ev.Beta, ev.Lambda)
	}
	for _, ev := range res.Switches {
		fmt.Printf("round %4d: switched %s -> %s\n", ev.Round, ev.From, ev.To)
	}

	retrack, err := diffusionlb.RoundsToRecover(res.Series, "ideal_drift", eventR+rampW-1, 32)
	if err != nil {
		return err
	}
	fmt.Printf("\npost-drain ideal re-tracked (drift back under 32 tokens) %d rounds after the ramp\n", retrack)
	fmt.Printf("retargets seen by the engine: %d; final beta %.6f; total load still %d\n",
		proc.Retargets(), proc.Beta(), proc.TotalLoad())
	fmt.Println("\nthe coupled drain evacuates the fast class's load exactly as its capacity")
	fmt.Println("ramps out — one timeline, both sides — and the recovery stack answers with")
	fmt.Println("both halves too: the hysteresis band re-arms SOS while the beta")
	fmt.Println("re-optimization retunes the momentum to the post-drain spectrum.")
	return nil
}
