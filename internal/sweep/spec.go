package sweep

import (
	"fmt"

	"diffusionlb/internal/core"
	"diffusionlb/internal/randx"
	"diffusionlb/internal/sim"
)

// Spec describes a grid of independent simulation cells as the cross
// product of its axes. Axis values use the same textual syntax as the lbsim
// CLI (graph.FromSpec, hetero.SpeedsFromSpec, core.RounderByName). Every
// cell is one sim.RunSpec. Run, StreamCSV and StreamJSON share one engine,
// which validates the spec before any cell runs or any byte is written:
// each expanded cell must pass sim.RunSpec.Validate, and each (graph,
// speeds) system must build.
type Spec struct {
	// Graphs lists graph specs, e.g. "torus2d:64x64", "hypercube:10".
	Graphs []string `json:"graphs"`
	// Schemes lists diffusion schemes: "sos" and/or "fos".
	Schemes []string `json:"schemes"`
	// Rounders lists discretizations: any core rounder name ("randomized",
	// "floor", "nearest", "bernoulli") plus "continuous" (idealized,
	// divisible load) and "cumulative" (the stateful baseline of [2]).
	// Empty means ["randomized"].
	Rounders []string `json:"rounders"`
	// Runtimes lists execution runtimes: the empty string is the
	// shared-memory engine, "actor:K[,stale=S]" (actor.FromSpec syntax) the
	// message-passing runtime with K shard actors and staleness bound S.
	// Empty means [""]. The runtime axis does not enter the cell seed:
	// barrier-mode actor cells reproduce their shared-memory siblings bit
	// for bit, and staleness cells differ only by the transport — the
	// apples-to-apples comparison the discrepancy-vs-staleness experiment
	// rests on. Actor runtimes need an integer token stream, so non-empty
	// entries reject the "continuous" and "cumulative" rounders.
	Runtimes []string `json:"runtimes,omitempty"`
	// Speeds lists heterogeneous speed specs; the empty string is the
	// homogeneous network. Empty means [""].
	Speeds []string `json:"speeds,omitempty"`
	// Workloads lists dynamic-workload specs (workload.FromSpec syntax,
	// e.g. "burst:100:50000", "poisson:0.5+churn:50:200:200"); the empty
	// string is the paper's static setting. Empty means [""].
	Workloads []string `json:"workloads,omitempty"`
	// Environments lists environment-dynamics specs (envdyn.FromSpec
	// syntax, e.g. "throttle:at=100,frac=0.25,factor=0.25",
	// "drain:at=50,frac=0.1,ramp=20+jitter:sigma=0.05"); the empty string
	// is the paper's static-speed setting. Empty means [""]. Cells with an
	// environment run on a private clone of the shared operator, since the
	// dynamics reweight it in place.
	Environments []string `json:"environments,omitempty"`
	// Scenarios lists coupled-scenario specs (scenario.FromSpec syntax,
	// e.g. "drain:at=100,frac=0.125,ramp=8",
	// "correlated:at=100,frac=0.25,factor=0.25,load=50000"); the empty
	// string means no scenario. Empty means [""]. A scenario owns the speed
	// timeline, so a spec mixing non-empty Environments and non-empty
	// Scenarios is rejected (every cell of the cross product would combine
	// them). Scenario cells run on a private clone of the shared operator,
	// like environment cells.
	Scenarios []string `json:"scenarios,omitempty"`
	// Policies lists hybrid switch-policy specs (core.PolicyFromSpec
	// syntax: "at:2500", "local:16", "stall:50:0.01",
	// "adaptive:16:64:100"); the empty string never switches. The one-way
	// rules (at, local, stall) only ever fire on SOS cells; the re-arming
	// "adaptive" controller drives the kind of either scheme. Empty means
	// [""].
	Policies []string `json:"policies,omitempty"`
	// Betas lists SOS β overrides; 0 means the spectral optimum β_opt.
	// Empty means [0]. FOS ignores β, so for FOS schemes the axis
	// collapses to a single cell instead of duplicating identical runs
	// under different labels.
	Betas []float64 `json:"betas,omitempty"`
	// Replicates is the number of independently seeded runs per cell
	// coordinate (0 = the default 1; negative is rejected).
	Replicates int `json:"replicates"`
	// Rounds is the per-cell round budget. Required.
	Rounds int `json:"rounds"`
	// Every is the recording cadence (0 = the default max(1, Rounds/100);
	// negative is rejected).
	Every int `json:"every"`
	// Avg is the average initial load, placed entirely on node 0
	// (default 1000).
	Avg int64 `json:"avg"`
	// BaseSeed is the master seed every cell seed is derived from
	// (default 1).
	BaseSeed uint64 `json:"base_seed"`
	// StepWorkers bounds per-step parallelism inside one cell
	// (0 = sequential). Cell-level fan-out is usually the better use of
	// cores; raise this only for few huge cells.
	StepWorkers int `json:"step_workers,omitempty"`
}

// withDefaults fills in the documented defaults.
func (s Spec) withDefaults() Spec {
	if len(s.Rounders) == 0 {
		s.Rounders = []string{"randomized"}
	}
	if len(s.Runtimes) == 0 {
		s.Runtimes = []string{""}
	}
	if len(s.Speeds) == 0 {
		s.Speeds = []string{""}
	}
	if len(s.Workloads) == 0 {
		s.Workloads = []string{""}
	}
	if len(s.Environments) == 0 {
		s.Environments = []string{""}
	}
	if len(s.Scenarios) == 0 {
		s.Scenarios = []string{""}
	}
	if len(s.Policies) == 0 {
		s.Policies = []string{""}
	}
	if len(s.Betas) == 0 {
		s.Betas = []float64{0}
	}
	if s.Replicates == 0 {
		s.Replicates = 1
	}
	if s.Every == 0 {
		s.Every = s.Rounds / 100
		if s.Every < 1 {
			s.Every = 1
		}
	}
	if s.Avg == 0 {
		s.Avg = 1000
	}
	if s.BaseSeed == 0 {
		s.BaseSeed = 1
	}
	return s
}

// validate rejects a malformed spec before any cell runs: the spec needs a
// graph, a scheme, a round budget and a non-negative replicate count and
// cadence, and every expanded cell must pass sim.RunSpec.Validate. Graph
// and speeds specs are checked when their systems are built, which is
// still before any cell runs.
func (s Spec) validate() error {
	if len(s.Graphs) == 0 {
		return fmt.Errorf("sweep: spec needs at least one graph")
	}
	if len(s.Schemes) == 0 {
		return fmt.Errorf("sweep: spec needs at least one scheme")
	}
	if s.Rounds <= 0 {
		return fmt.Errorf("sweep: spec needs Rounds > 0, got %d", s.Rounds)
	}
	if s.Replicates < 0 {
		return fmt.Errorf("sweep: spec needs Replicates >= 0, got %d", s.Replicates)
	}
	if s.Every < 0 {
		return fmt.Errorf("sweep: spec needs Every >= 0, got %d", s.Every)
	}
	for _, c := range s.Expand() {
		if err := cellSpec(s, c).Validate(); err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
	}
	return nil
}

// Cell is one fully resolved simulation to run: a coordinate in the sweep
// grid plus its derived seed.
type Cell struct {
	// Index is the cell's position in the deterministic expansion order.
	Index int
	// Group is the index of the aggregation group (all replicates of the
	// same coordinate share one group).
	Group int
	// Graph, Scheme, Rounder, Runtime, Speeds, Workload, Environment,
	// Scenario, Policy, Beta, Replicate are the coordinate.
	Graph       string
	Scheme      string
	Rounder     string
	Runtime     string
	Speeds      string
	Workload    string
	Environment string
	Scenario    string
	Policy      string
	Beta        float64
	Replicate   int
	// Seed is derived from (BaseSeed, axis indices, replicate) via
	// randx.Mix, so it depends only on the spec, never on scheduling. The
	// runtime index is deliberately absent: cells differing only in runtime
	// share a seed, so they simulate the same stochastic system under a
	// different execution strategy.
	Seed uint64

	graphIdx, speedsIdx int
}

// Expand enumerates every cell of the sweep in deterministic order:
// graphs → schemes → rounders → runtimes → speeds → workloads →
// environments → scenarios → policies → betas → replicates, with the
// replicate index innermost so one group occupies a contiguous index range.
func (s Spec) Expand() []Cell {
	s = s.withDefaults()
	var cells []Cell
	group := 0
	fosBetas := []float64{0}
	for gi, g := range s.Graphs {
		for si, sc := range s.Schemes {
			schemeBetas := s.Betas
			if kind, err := sim.ParseScheme(sc); err == nil && kind == core.FOS {
				schemeBetas = fosBetas
			}
			for ri, rd := range s.Rounders {
				for _, rt := range s.Runtimes {
					for pi, sp := range s.Speeds {
						for wi, wl := range s.Workloads {
							for ei, env := range s.Environments {
								for ci, scn := range s.Scenarios {
									for li, pol := range s.Policies {
										for bi, beta := range schemeBetas {
											for rep := 0; rep < s.Replicates; rep++ {
												cells = append(cells, Cell{
													Index:       len(cells),
													Group:       group,
													Graph:       g,
													Scheme:      sc,
													Rounder:     rd,
													Runtime:     rt,
													Speeds:      sp,
													Workload:    wl,
													Environment: env,
													Scenario:    scn,
													Policy:      pol,
													Beta:        beta,
													Replicate:   rep,
													Seed: randx.Mix(s.BaseSeed,
														uint64(gi), uint64(si), uint64(ri),
														uint64(pi), uint64(wi), uint64(ei),
														uint64(ci), uint64(li), uint64(bi), uint64(rep)),
													graphIdx:  gi,
													speedsIdx: pi,
												})
											}
											group++
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return cells
}

// NumCells reports how many cells the spec expands to.
func (s Spec) NumCells() int {
	return len(s.Expand())
}
