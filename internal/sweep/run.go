package sweep

import (
	"context"

	"diffusionlb/internal/core"
	"diffusionlb/internal/randx"
	"diffusionlb/internal/sim"
	"diffusionlb/internal/telemetry"
)

// Salts keep the derived seed families (graph construction, speed
// assignment, cell rounding streams) disjoint from each other.
const (
	seedSaltGraph    = 0x6772_6170_6800_0001 // "graph"
	seedSaltSpeeds   = 0x7370_6565_6400_0001 // "speed"
	seedSaltWorkload = 0x776f_726b_6c00_0001 // "workl"
	seedSaltEnv      = 0x656e_7664_7900_0001 // "envdy"
	seedSaltScenario = 0x7363_656e_6100_0001 // "scena"
)

// Options configures a sweep run.
type Options struct {
	// Workers bounds cell-level concurrency; see Workers().
	Workers int
	// Telemetry, when set, receives live sweep progress: total/completed
	// cell gauges, worker utilization, and one trace event per
	// aggregation group as the engine hands it on. Write-only: sweep
	// output stays byte-identical with or without a probe.
	Telemetry *telemetry.SweepProbe
}

// Run runs the sweep and collects its aggregated groups, in group-index
// order, into a Result. The output is bitwise identical for every worker
// count because cell seeds and aggregation order depend only on the spec.
func Run(ctx context.Context, spec Spec, opts Options) (*Result, error) {
	res := &Result{}
	err := streamGroups(ctx, spec, opts, func(spec Spec) error {
		res.Spec = spec
		return nil
	}, func(g Group) error {
		res.Groups = append(res.Groups, g)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// sysKey identifies one prebuilt system: a graph axis entry paired with a
// speeds axis entry.
type sysKey struct{ graphIdx, speedsIdx int }

// cellSpec resolves a cell into the run it stands for. Graph and speed
// seeds derive from the base seed and the axis indices, so a spec
// identifies its topologies exactly; the workload, env and scenario
// streams are salted off the cell seed, so a cell's dynamics depend only
// on its coordinate, never on scheduling. Sweep cells take λ in closed
// form where one exists.
func cellSpec(spec Spec, c Cell) sim.RunSpec {
	return sim.RunSpec{
		Graph: c.Graph, GraphSeed: randx.Mix(spec.BaseSeed, seedSaltGraph, uint64(c.graphIdx)),
		Speeds: c.Speeds, SpeedsSeed: randx.Mix(spec.BaseSeed, seedSaltSpeeds, uint64(c.graphIdx), uint64(c.speedsIdx)),
		Lambda: sim.LambdaClosedForm, StepWorkers: spec.StepWorkers,
		Scheme: c.Scheme, Rounder: c.Rounder, Runtime: c.Runtime, Beta: c.Beta, Seed: c.Seed, Avg: spec.Avg,
		Workload: c.Workload, WorkloadSeed: randx.Mix(c.Seed, seedSaltWorkload),
		Env: c.Environment, EnvSeed: randx.Mix(c.Seed, seedSaltEnv),
		Scenario: c.Scenario, ScenarioSeed: randx.Mix(c.Seed, seedSaltScenario),
		Policy: c.Policy, Rounds: spec.Rounds, Every: spec.Every,
	}
}

// buildSystems builds the system of every (graph, speeds) pair of the
// defaulted spec in parallel: once per pair, not once per cell, since the
// power iteration dominates setup cost.
func buildSystems(ctx context.Context, spec Spec, workers int) (map[sysKey]*sim.System, error) {
	ns := len(spec.Speeds)
	built := make([]*sim.System, len(spec.Graphs)*ns)
	err := Map(ctx, workers, len(built), func(ctx context.Context, i int) (err error) {
		c := Cell{Graph: spec.Graphs[i/ns], Speeds: spec.Speeds[i%ns], graphIdx: i / ns, speedsIdx: i % ns}
		built[i], err = cellSpec(spec, c).System()
		return err
	})
	if err != nil {
		return nil, err
	}
	out := make(map[sysKey]*sim.System, len(built))
	for i, sys := range built {
		out[sysKey{i / ns, i % ns}] = sys
	}
	return out, nil
}

// runCell executes one cell to completion and returns its recorded series
// and scheme-switch history.
func runCell(spec Spec, c Cell, sys *sim.System) (*sim.Series, []core.SwitchEvent, error) {
	runner, err := cellSpec(spec, c).Build(sys)
	if err != nil {
		return nil, nil, err
	}
	res, err := runner.Run(spec.Rounds)
	if err != nil {
		return nil, nil, err
	}
	return res.Series, res.Switches, nil
}
