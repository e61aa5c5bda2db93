package sweep

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"diffusionlb/internal/core"
	"diffusionlb/internal/sim"
)

// Result is the aggregated outcome of a sweep: one Group per cell
// coordinate, with its replicates collapsed into per-round statistics.
type Result struct {
	Spec   Spec    `json:"spec"`
	Groups []Group `json:"groups"`
}

// Group aggregates the replicates of one (graph, scheme, rounder, runtime,
// speeds, workload, environment, scenario, policy, beta) coordinate.
type Group struct {
	Graph       string  `json:"graph"`
	Scheme      string  `json:"scheme"`
	Rounder     string  `json:"rounder"`
	Runtime     string  `json:"runtime,omitempty"` // actor runtime spec ("" = shared-memory engine)
	Speeds      string  `json:"speeds,omitempty"`
	Workload    string  `json:"workload,omitempty"`
	Environment string  `json:"environment,omitempty"` // envdyn spec ("" = static speeds)
	Scenario    string  `json:"scenario,omitempty"`    // coupled-scenario spec ("" = none)
	Policy      string  `json:"policy,omitempty"`      // switch-policy spec ("" = never)
	Beta        float64 `json:"beta"`                  // resolved β actually simulated
	Lambda      float64 `json:"lambda"`                // second eigenvalue of the topology
	Nodes       int     `json:"nodes"`
	// Replicates is the number of series collapsed into the statistics.
	Replicates int `json:"replicates"`
	// Switches is the number of scheme switches per replicate, in
	// replicate order (omitted when no policy is set).
	Switches []int `json:"switches,omitempty"`
	// Rounds is the shared recording grid.
	Rounds []int `json:"rounds"`
	// Columns holds one aggregated statistic set per recorded metric.
	Columns []AggColumn `json:"columns"`
}

// AggColumn is one metric aggregated across replicates: element k of each
// slice corresponds to Rounds[k].
type AggColumn struct {
	Name string    `json:"name"`
	Mean []float64 `json:"mean"`
	Std  []float64 `json:"std"`
	Min  []float64 `json:"min"`
	Max  []float64 `json:"max"`
}

// Label is a compact human-readable identifier for the group.
func (g Group) Label() string {
	parts := []string{g.Graph, g.Scheme, g.Rounder}
	if g.Runtime != "" {
		parts = append(parts, g.Runtime)
	}
	if g.Speeds != "" {
		parts = append(parts, g.Speeds)
	}
	if g.Workload != "" {
		parts = append(parts, g.Workload)
	}
	if g.Environment != "" {
		parts = append(parts, g.Environment)
	}
	if g.Scenario != "" {
		parts = append(parts, g.Scenario)
	}
	if g.Policy != "" {
		parts = append(parts, g.Policy)
	}
	parts = append(parts, fmt.Sprintf("beta=%.6g", g.Beta))
	return strings.Join(parts, " ")
}

// aggregateGroup collapses the replicates of one coordinate into a Group.
// Summation runs in replicate order, so the floating-point results are
// identical for every worker count.
func aggregateGroup(spec Spec, c Cell, reps []*sim.Series, switches [][]core.SwitchEvent, sys *sim.System) (Group, error) {
	base := reps[0]
	names := base.Names()
	beta := c.Beta
	if beta == 0 {
		beta = sys.Beta
	}
	g := Group{
		Graph: c.Graph, Scheme: c.Scheme, Rounder: c.Rounder, Runtime: c.Runtime,
		Speeds: c.Speeds, Workload: c.Workload, Environment: c.Environment,
		Scenario: c.Scenario, Policy: c.Policy, Beta: beta,
		Lambda: sys.Lambda, Nodes: sys.Graph.NumNodes(),
		Replicates: spec.Replicates,
	}
	if c.Policy != "" {
		g.Switches = make([]int, 0, len(switches))
		for _, sw := range switches {
			g.Switches = append(g.Switches, len(sw))
		}
	}
	for i := 0; i < base.Len(); i++ {
		g.Rounds = append(g.Rounds, base.Round(i))
	}
	for col, name := range names {
		agg := AggColumn{
			Name: name,
			Mean: make([]float64, base.Len()),
			Std:  make([]float64, base.Len()),
			Min:  make([]float64, base.Len()),
			Max:  make([]float64, base.Len()),
		}
		for row := 0; row < base.Len(); row++ {
			mn, mx := math.Inf(1), math.Inf(-1)
			var sum float64
			for _, s := range reps {
				if s.Len() != base.Len() || s.Round(row) != base.Round(row) {
					return Group{}, fmt.Errorf("sweep: replicate recording grids diverge in group %q", g.Label())
				}
				v := s.Row(row)[col]
				sum += v
				if v < mn {
					mn = v
				}
				if v > mx {
					mx = v
				}
			}
			mean := sum / float64(len(reps))
			std := 0.0
			//lint:allow floateq exact replicate agreement is the contract for deterministic rounders
			if mn == mx {
				// All replicates agree (e.g. deterministic rounders):
				// report the exact value, not mean-rounding noise.
				mean = mn
			} else if len(reps) > 1 {
				var sq float64
				for _, s := range reps {
					d := s.Row(row)[col] - mean
					sq += float64(d * d) // no fused multiply-add on arm64 (make fma-check)
				}
				std = math.Sqrt(sq / float64(len(reps)-1))
			}
			agg.Mean[row], agg.Std[row], agg.Min[row], agg.Max[row] = mean, std, mn, mx
		}
		g.Columns = append(g.Columns, agg)
	}
	return g, nil
}

// csvHeader is the single source of truth for the CSV column set, asserted
// by a round-trip test so the next column addition is a conscious diff
// (writeGroupCSV indexes records positionally against it).
var csvHeader = []string{
	"graph", "scheme", "rounder", "runtime", "speeds", "workload", "environment", "scenario", "policy",
	"beta", "replicates", "switches", "round", "metric", "mean", "std", "min", "max",
}

// csvFloat renders a float the way every CSV row does.
func csvFloat(v float64) string { return strconv.FormatFloat(v, 'g', 10, 64) }

// writeGroupCSV appends one group's rows to cw; record is a reusable
// len(csvHeader) scratch slice.
func writeGroupCSV(cw *csv.Writer, g Group, record []string) error {
	record[0], record[1], record[2], record[3] = g.Graph, g.Scheme, g.Rounder, g.Runtime
	record[4], record[5], record[6], record[7], record[8] = g.Speeds, g.Workload, g.Environment, g.Scenario, g.Policy
	record[9] = csvFloat(g.Beta)
	record[10] = strconv.Itoa(g.Replicates)
	counts := make([]string, len(g.Switches))
	for i, n := range g.Switches {
		counts[i] = strconv.Itoa(n)
	}
	record[11] = strings.Join(counts, "|")
	for _, col := range g.Columns {
		record[13] = col.Name
		for row, round := range g.Rounds {
			record[12] = strconv.Itoa(round)
			record[14] = csvFloat(col.Mean[row])
			record[15] = csvFloat(col.Std[row])
			record[16] = csvFloat(col.Min[row])
			record[17] = csvFloat(col.Max[row])
			if err := cw.Write(record); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteTable renders each group as an aligned text table of mean±std per
// metric, downsampled to maxRows rows (the sim.Series table format).
func (r *Result) WriteTable(w io.Writer, maxRows int) error {
	for _, g := range r.Groups {
		banner := fmt.Sprintf("\n[%s]  n=%d lambda=%.8f replicates=%d",
			g.Label(), g.Nodes, g.Lambda, g.Replicates)
		if g.Policy != "" {
			banner += fmt.Sprintf(" switches=%v", g.Switches)
		}
		if _, err := fmt.Fprintln(w, banner); err != nil {
			return err
		}
		names := make([]string, 0, 2*len(g.Columns))
		for _, col := range g.Columns {
			names = append(names, col.Name+"_mean", col.Name+"_std")
		}
		table := sim.NewSeries(names...)
		for row, round := range g.Rounds {
			vals := make([]float64, 0, len(names))
			for _, col := range g.Columns {
				vals = append(vals, col.Mean[row], col.Std[row])
			}
			if err := table.Append(round, vals...); err != nil {
				return err
			}
		}
		if err := table.WriteTable(w, maxRows); err != nil {
			return err
		}
	}
	return nil
}
