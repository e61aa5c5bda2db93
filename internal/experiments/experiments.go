// Package experiments contains one registered, runnable experiment per
// table and figure of the paper's evaluation (Section VI), plus two
// experiments that make Section V (negative load) and Sections III/IV
// (deviation bounds) measurable even though the paper gives no figure for
// them.
//
// Every experiment prints the same series the paper plots, as an aligned
// text table (and optionally CSV / PNG artifacts into Params.OutDir). By
// default experiments run at laptop-scale sizes whose behaviour matches the
// paper's shapes; Params.Full restores the paper's sizes (10⁶-node tori and
// random graphs, 2²⁰-node hypercubes), which need minutes, not hours, and
// Params.Tiny shrinks below the defaults for -short test runs.
//
// Experiments with several independent scenario runs (figure variants,
// switch rounds, table rows) submit them as cells to the sweep worker pool
// (Params.CellWorkers, default one per CPU) and print collected results in
// a fixed order, so reports are byte-identical for every worker count.
package experiments

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"diffusionlb/internal/core"
	"diffusionlb/internal/metrics"
	"diffusionlb/internal/sim"
	"diffusionlb/internal/sweep"
)

// Params configures an experiment run.
type Params struct {
	// Full switches to the paper's original sizes.
	Full bool
	// Tiny shrinks graph sizes below even the scaled defaults; it is meant
	// for -short test runs and is ignored when Full is set.
	Tiny bool
	// Seed seeds every randomized component (default 1).
	Seed uint64
	// Workers bounds per-step parallelism (0 = sequential).
	Workers int
	// CellWorkers bounds how many independent scenario cells (the
	// per-variant runs inside one experiment) execute concurrently on the
	// sweep pool. 0 means one per CPU; 1 forces serial execution.
	CellWorkers int
	// OutDir, when non-empty, receives CSV series and PNG/PGM frames.
	OutDir string
	// TableRows caps the rows of printed tables (default 21).
	TableRows int
	// RoundsOverride, when > 0, replaces the experiment's default round
	// count (both scaled and full).
	RoundsOverride int
}

func (p Params) withDefaults() Params {
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.TableRows == 0 {
		p.TableRows = 21
	}
	return p
}

// rounds picks the experiment's round budget.
func (p Params) rounds(scaled, full int) int {
	if p.RoundsOverride > 0 {
		return p.RoundsOverride
	}
	if p.Full {
		return full
	}
	return scaled
}

// tiny reports whether the shrunken test sizes apply.
func (p Params) tiny() bool { return p.Tiny && !p.Full }

// size picks a scenario dimension (side length, node count, ...) for the
// three size regimes.
func (p Params) size(tiny, scaled, full int) int {
	if p.Full {
		return full
	}
	if p.Tiny {
		return tiny
	}
	return scaled
}

// runCells executes n independent scenario cells of one experiment through
// the sweep worker pool, preserving index order: fn(i) must write its
// result into slot i of a caller-owned slice. Cells run concurrently
// (bounded by CellWorkers), so fn must not touch shared mutable state —
// shared graphs, operators and initial load vectors are read-only.
func (p Params) runCells(n int, fn func(i int) error) error {
	return sweep.Map(context.Background(), p.CellWorkers, n, func(_ context.Context, i int) error {
		return fn(i)
	})
}

// Experiment is a runnable reproduction of one paper artifact.
type Experiment struct {
	// ID is the registry key (e.g. "fig1", "table1", "negload").
	ID string
	// Title is a one-line description.
	Title string
	// Artifact names the paper table/figure it reproduces.
	Artifact string
	// Run executes the experiment, writing its report to w.
	Run func(w io.Writer, p Params) error
}

// registry holds all experiments keyed by ID.
var registry = map[string]Experiment{}

func register(e Experiment) {
	registry[e.ID] = e
}

// All returns every experiment sorted by ID.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID looks up one experiment.
func ByID(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// --- shared construction helpers ---

// topology builds an experiment's graph, speeds ("" = homogeneous),
// operator, λ and β_opt with sim.RunSpec.System, the builder lbsim and
// sweep cells use. Both specs draw from p.Seed. λ takes the closed form on
// homogeneous tori and hypercubes and otherwise comes from the power
// iteration at Tol 1e-10 (sim.LambdaClosedForm), as sweep cells compute
// it.
func (p Params) topology(graphSpec, speedsSpec string) (*sim.System, error) {
	return sim.RunSpec{Graph: graphSpec, Speeds: speedsSpec, GraphSeed: p.Seed, SpeedsSeed: p.Seed,
		Lambda: sim.LambdaClosedForm}.System()
}

// torus is the graph spec of the side×side 2-d torus.
func torus(side int) string { return fmt.Sprintf("torus2d:%dx%d", side, side) }

// pointLoadDiscrete builds the paper's default initialization: avg·n tokens
// on node v0 = 0.
func pointLoadDiscrete(n int, avg int64) ([]int64, error) {
	return metrics.PointLoad(n, avg*int64(n), 0)
}

// toFloat converts an integer load vector.
func toFloat(x []int64) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = float64(v)
	}
	return out
}

// discrete and continuous are the randomized-rounding and idealized
// processes the experiments compare, on sys's operator, each stepping on
// the shard layout of p.Workers.
func (p Params) discrete(sys *sim.System, kind core.Kind, x0 []int64) (*core.Discrete, error) {
	cfg := core.Config{Op: sys.Op, Kind: kind, Beta: sys.Beta, Workers: p.Workers}
	return core.NewDiscrete(cfg, core.RandomizedRounder{}, p.Seed, x0)
}

func (p Params) continuous(sys *sim.System, kind core.Kind, x0 []float64) (*core.Continuous, error) {
	cfg := core.Config{Op: sys.Op, Kind: kind, Beta: sys.Beta, Workers: p.Workers}
	return core.NewContinuous(cfg, x0)
}

// writeSeries prints the table and optionally dumps CSV into OutDir.
func writeSeries(w io.Writer, p Params, name string, series *sim.Series) error {
	if _, err := fmt.Fprintf(w, "\n[%s]\n", name); err != nil {
		return err
	}
	if err := series.WriteTable(w, p.TableRows); err != nil {
		return err
	}
	if p.OutDir == "" {
		return nil
	}
	if err := os.MkdirAll(p.OutDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(p.OutDir, name+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	if err := series.WriteCSV(f); err != nil {
		return err
	}
	return f.Close()
}

// merged zips several series (sharing identical round grids) into one table
// with prefixed column names.
func merged(prefixes []string, series []*sim.Series) (*sim.Series, error) {
	if len(prefixes) != len(series) || len(series) == 0 {
		return nil, fmt.Errorf("experiments: merged needs matching prefixes/series")
	}
	base := series[0]
	var names []string
	for si, s := range series {
		if s.Len() != base.Len() {
			return nil, fmt.Errorf("experiments: series %d has %d rows, want %d", si, s.Len(), base.Len())
		}
		for _, n := range s.Names() {
			names = append(names, prefixes[si]+n)
		}
	}
	out := sim.NewSeries(names...)
	for row := 0; row < base.Len(); row++ {
		var vals []float64
		for si, s := range series {
			if s.Round(row) != base.Round(row) {
				return nil, fmt.Errorf("experiments: series %d row %d has round %d, want %d",
					si, row, s.Round(row), base.Round(row))
			}
			vals = append(vals, s.Row(row)...)
		}
		if err := out.Append(base.Round(row), vals...); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// header prints a standard experiment banner.
func header(w io.Writer, e Experiment, detail string) error {
	_, err := fmt.Fprintf(w, "=== %s — %s ===\n%s\n%s\n", e.ID, e.Artifact, e.Title, detail)
	return err
}
