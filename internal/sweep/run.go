package sweep

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"

	"diffusionlb/internal/actor"
	"diffusionlb/internal/core"
	"diffusionlb/internal/envdyn"
	"diffusionlb/internal/graph"
	"diffusionlb/internal/hetero"
	"diffusionlb/internal/metrics"
	"diffusionlb/internal/randx"
	"diffusionlb/internal/scenario"
	"diffusionlb/internal/shard"
	"diffusionlb/internal/sim"
	"diffusionlb/internal/spectral"
	"diffusionlb/internal/telemetry"
	"diffusionlb/internal/workload"
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

// Options configures Run.
type Options struct {
	// Workers bounds cell-level concurrency; see Workers().
	Workers int
	// OnCell, when set, is called after each finished cell with the number
	// of completed cells and the total (progress reporting). It may be
	// called concurrently.
	OnCell func(done, total int)
	// Telemetry, when set, receives live sweep progress: total/completed
	// cell gauges, worker utilization, and — from the streaming sinks —
	// one trace event per flushed aggregation group. Write-only: sweep
	// output stays byte-identical with or without a probe.
	Telemetry *telemetry.SweepProbe
}

// Run expands the spec, executes every cell on the worker pool and
// aggregates replicates. The output is bitwise identical for every worker
// count because cell seeds and collection order depend only on the spec.
func Run(ctx context.Context, spec Spec, opts Options) (*Result, error) {
	spec = spec.withDefaults()
	if err := spec.validate(); err != nil {
		return nil, err
	}
	cells := spec.Expand()

	systems, err := buildSystems(ctx, spec, cells, opts.Workers)
	if err != nil {
		return nil, err
	}

	series := make([]*sim.Series, len(cells))
	switches := make([][]core.SwitchEvent, len(cells))
	var done atomic.Int64
	opts.Telemetry.Begin(len(cells))
	err = Map(ctx, opts.Workers, len(cells), func(ctx context.Context, i int) error {
		opts.Telemetry.CellStart()
		s, sw, err := runCell(spec, cells[i], systems[sysKey{cells[i].graphIdx, cells[i].speedsIdx}])
		if err != nil {
			return fmt.Errorf("sweep: cell %d (%s %s %s): %w", i, cells[i].Graph, cells[i].Scheme, cells[i].Rounder, err)
		}
		series[i], switches[i] = s, sw
		n := int(done.Add(1))
		opts.Telemetry.CellDone(n, len(cells))
		if opts.OnCell != nil {
			opts.OnCell(n, len(cells))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return aggregate(spec, cells, series, switches, systems)
}

// sysKey identifies one prebuilt system: a graph axis entry paired with a
// speeds axis entry.
type sysKey struct{ graphIdx, speedsIdx int }

// system is the shared, read-only part of every cell on one topology: the
// graph, speeds, diffusion operator, λ and β_opt. Built once per key, not
// once per replicate — the power iteration dominates setup cost.
type system struct {
	g      *graph.Graph
	sp     *hetero.Speeds
	op     *spectral.Operator
	lay    *shard.Layout
	lambda float64
	beta   float64
}

// buildSystems constructs the unique (graph, speeds) systems referenced by
// the cells, in parallel. Graph and speed seeds are derived from the base
// seed and the axis indices, so a spec identifies its topologies exactly.
func buildSystems(ctx context.Context, spec Spec, cells []Cell, workers int) (map[sysKey]*system, error) {
	var keys []sysKey
	seen := map[sysKey]bool{}
	for _, c := range cells {
		k := sysKey{c.graphIdx, c.speedsIdx}
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	built := make([]*system, len(keys))
	err := Map(ctx, workers, len(keys), func(ctx context.Context, i int) error {
		k := keys[i]
		gSpec, sSpec := spec.Graphs[k.graphIdx], spec.Speeds[k.speedsIdx]
		g, err := graph.FromSpec(gSpec, randx.Mix(spec.BaseSeed, seedSaltGraph, uint64(k.graphIdx)))
		if err != nil {
			return err
		}
		sp, err := hetero.SpeedsFromSpec(sSpec, g.NumNodes(),
			randx.Mix(spec.BaseSeed, seedSaltSpeeds, uint64(k.graphIdx), uint64(k.speedsIdx)))
		if err != nil {
			return err
		}
		op, err := spectral.NewOperator(g, sp, nil)
		if err != nil {
			return err
		}
		lam, ok := analyticLambda(gSpec, sp)
		if !ok {
			lam, _, err = op.SecondEigenvalue(spectral.PowerOptions{Tol: 1e-10})
			if err != nil {
				return fmt.Errorf("sweep: lambda for %s: %w", g.Name(), err)
			}
		}
		beta, err := spectral.BetaOpt(lam)
		if err != nil {
			return err
		}
		// One shard layout per topology, shared by every cell's engines:
		// the partition depends only on the CSR shape and StepWorkers, so
		// per-cell clones would all compute the same boundaries anyway.
		lay := shard.ForWorkers(g, spec.StepWorkers)
		built[i] = &system{g: g, sp: sp, op: op, lay: lay, lambda: lam, beta: beta}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make(map[sysKey]*system, len(keys))
	for i, k := range keys {
		out[k] = built[i]
	}
	return out, nil
}

// analyticLambda recognises graph specs with a closed-form second
// eigenvalue (homogeneous tori and hypercubes), skipping the power
// iteration for them.
func analyticLambda(gSpec string, sp *hetero.Speeds) (float64, bool) {
	if !sp.IsHomogeneous() {
		return 0, false
	}
	kind, rest, _ := strings.Cut(gSpec, ":")
	switch strings.ToLower(kind) {
	case "torus2d":
		parts := strings.FieldsFunc(rest, func(r rune) bool { return r == 'x' || r == 'X' })
		if len(parts) != 2 {
			return 0, false
		}
		w, err1 := strconv.Atoi(parts[0])
		h, err2 := strconv.Atoi(parts[1])
		if err1 != nil || err2 != nil {
			return 0, false
		}
		lam, err := spectral.AnalyticTorus2DLambda(w, h)
		if err != nil {
			return 0, false
		}
		return lam, true
	case "hypercube":
		dim, err := strconv.Atoi(rest)
		if err != nil {
			return 0, false
		}
		lam, err := spectral.AnalyticHypercubeLambda(dim)
		if err != nil {
			return 0, false
		}
		return lam, true
	}
	return 0, false
}

// runCell executes one cell to completion and returns its recorded series
// and scheme-switch history.
func runCell(spec Spec, c Cell, sys *system) (*sim.Series, []core.SwitchEvent, error) {
	kind, err := parseKind(c.Scheme)
	if err != nil {
		return nil, nil, err
	}
	beta := c.Beta
	if beta == 0 {
		beta = sys.beta
	}
	n := sys.g.NumNodes()
	x0, err := metrics.PointLoad(n, spec.Avg*int64(n), 0)
	if err != nil {
		return nil, nil, err
	}
	// Environment dynamics and scenarios reweight the operator in place,
	// and the system's operator is shared by every cell on the topology —
	// give those cells a private clone (cheap: the graph is shared).
	op := sys.op
	env, err := envdyn.FromSpec(c.Environment, n, randx.Mix(c.Seed, seedSaltEnv))
	if err != nil {
		return nil, nil, err
	}
	scn, err := scenario.FromSpec(c.Scenario, n, randx.Mix(c.Seed, seedSaltScenario))
	if err != nil {
		return nil, nil, err
	}
	if env != nil || scn != nil {
		op = sys.op.Clone()
	}
	cfg := core.Config{Op: op, Kind: kind, Beta: beta, Workers: spec.StepWorkers, Layout: sys.lay}

	var proc core.Process
	switch {
	case c.Runtime != "":
		// Message-passing runtime; validate() already rejected the
		// continuous/cumulative rounders on this axis.
		rounder, ok := core.RounderByName(c.Rounder)
		if !ok {
			return nil, nil, fmt.Errorf("unknown rounder %q", c.Rounder)
		}
		aOpts, aErr := actor.FromSpec(c.Runtime)
		if aErr != nil {
			return nil, nil, aErr
		}
		proc, err = actor.New(op, kind, beta, rounder, c.Seed, x0, aOpts)
	case c.Rounder == "continuous":
		xf := make([]float64, n)
		for i, v := range x0 {
			xf[i] = float64(v)
		}
		proc, err = core.NewContinuous(cfg, xf)
	case c.Rounder == "cumulative":
		proc, err = core.NewCumulativeDiscrete(cfg, x0)
	default:
		rounder, ok := core.RounderByName(c.Rounder)
		if !ok {
			return nil, nil, fmt.Errorf("unknown rounder %q", c.Rounder)
		}
		proc, err = core.NewDiscrete(cfg, rounder, c.Seed, x0)
	}
	if err != nil {
		return nil, nil, err
	}

	// The workload's rounding streams are salted off the cell seed, so a
	// cell's dynamics depend only on its coordinate — never on scheduling.
	wl, err := workload.FromSpec(c.Workload, n, randx.Mix(c.Seed, seedSaltWorkload))
	if err != nil {
		return nil, nil, err
	}
	// Every cell parses its own fresh policy value: stateful policies
	// (stall history, hysteresis cooldown) must never carry one replicate's
	// trajectory into the next.
	policy, err := core.PolicyFromSpec(c.Policy)
	if err != nil {
		return nil, nil, err
	}
	runner := &sim.Runner{Proc: proc, Every: spec.Every, Adaptive: policy, Metrics: sim.MetricsFor(sys.sp, wl, env, scn),
		Workload: wl, Environment: env, Scenario: scn}
	res, err := runner.Run(spec.Rounds)
	if err != nil {
		return nil, nil, err
	}
	return res.Series, res.Switches, nil
}
