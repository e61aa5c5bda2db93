package diffusionlb_test

import (
	"fmt"

	"diffusionlb"
)

// Example demonstrates the core workflow: build a graph, derive the
// spectral parameters, run discrete second-order diffusion and inspect the
// result. Everything is seeded, so the output is stable.
func Example() {
	g, err := diffusionlb.Torus2D(10, 10)
	if err != nil {
		panic(err)
	}
	sys, err := diffusionlb.NewSystem(g, nil)
	if err != nil {
		panic(err)
	}
	x0, err := diffusionlb.PointLoad(g.NumNodes(), 100*int64(g.NumNodes()), 0)
	if err != nil {
		panic(err)
	}
	proc, err := sys.NewDiscrete(diffusionlb.SOS, diffusionlb.RandomizedRounder{}, 7, x0)
	if err != nil {
		panic(err)
	}
	diffusionlb.Run(proc, 200)

	fmt.Printf("beta_opt = %.6f\n", sys.Beta())
	fmt.Printf("total conserved: %v\n", proc.TotalLoad() == 100*int64(g.NumNodes()))
	fmt.Printf("kind after run: %v\n", proc.Kind())
	// Output:
	// beta_opt = 1.445775
	// total conserved: true
	// kind after run: SOS
}

// ExampleRunAdaptive shows the paper's SOS→FOS recipe with the locally
// computable switching signal.
func ExampleRunAdaptive() {
	g, _ := diffusionlb.Torus2D(12, 12)
	sys, _ := diffusionlb.NewSystem(g, nil)
	x0, _ := diffusionlb.PointLoad(g.NumNodes(), 100*int64(g.NumNodes()), 0)
	proc, _ := sys.NewDiscrete(diffusionlb.SOS, nil, 3, x0)

	events := diffusionlb.RunAdaptive(proc, diffusionlb.SwitchOnLocalDiff{Threshold: 16}, 400)
	fmt.Printf("switched: %v\n", len(events) == 1 && events[0].Round > 0)
	fmt.Printf("final kind: %v\n", proc.Kind())
	// Output:
	// switched: true
	// final kind: FOS
}

// ExamplePolicyFromSpec shows the re-arming adaptive hybrid: the
// hysteresis band switches to FOS once the network is balanced and re-arms
// SOS when a workload burst re-inflates the local difference.
func ExamplePolicyFromSpec() {
	g, _ := diffusionlb.Torus2D(12, 12)
	sys, _ := diffusionlb.NewSystem(g, nil)
	n := g.NumNodes()
	x0 := make([]int64, n)
	for i := range x0 {
		x0[i] = 100 // balanced start: the dynamics are the story
	}
	proc, _ := sys.NewDiscrete(diffusionlb.SOS, nil, 3, x0)

	policy, _ := diffusionlb.PolicyFromSpec("adaptive:8:64:10")
	wl, _ := diffusionlb.WorkloadFromSpec(fmt.Sprintf("burst:50:%d:0", 50*n), n, 3)
	runner := &diffusionlb.Runner{Proc: proc, Adaptive: policy, Workload: wl, Every: 1}
	res, _ := runner.Run(300)

	plateau := len(res.Switches) > 0 && res.Switches[0].To == diffusionlb.FOS
	rearmed := false
	for _, ev := range res.Switches {
		if ev.To == diffusionlb.SOS && ev.Round >= 50 {
			rearmed = true
		}
	}
	fmt.Printf("switched to FOS on the balanced plateau: %v\n", plateau)
	fmt.Printf("re-armed SOS at the burst: %v\n", rearmed)
	fmt.Printf("final kind: %v\n", proc.Kind())
	// Output:
	// switched to FOS on the balanced plateau: true
	// re-armed SOS at the burst: true
	// final kind: FOS
}
