package sweep

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"diffusionlb/internal/core"
	"diffusionlb/internal/sim"
)

// StreamCSV runs the sweep and writes it in long form, one row per
// (group, round, metric):
//
//	graph,scheme,rounder,runtime,speeds,workload,environment,scenario,policy,beta,replicates,switches,round,metric,mean,std,min,max
//
// switches is the per-replicate scheme-switch count joined with "|" (empty
// when no policy is set). Rows go through encoding/csv, so spec fields
// containing commas (environment and scenario specs always do) or quotes or
// newlines are quoted per RFC 4180 instead of silently corrupting the row,
// and the output round-trips through any CSV reader.
//
// Each group's rows are written and flushed to w as soon as the group and
// every earlier one are complete, so the grid never resides in memory and
// a sweep that fails leaves w ending on a group boundary: the header and
// every group before the first one that failed. The output is the same for
// every worker count.
func StreamCSV(ctx context.Context, spec Spec, opts Options, w io.Writer) error {
	cw := csv.NewWriter(w)
	record := make([]string, len(csvHeader))
	err := streamGroups(ctx, spec, opts, func(Spec) error {
		return cw.Write(csvHeader)
	}, func(g Group) error {
		if err := writeGroupCSV(cw, g, record); err != nil {
			return err
		}
		cw.Flush()
		return cw.Error()
	})
	// Every group flushed itself, so only the header can still be
	// buffered here.
	cw.Flush()
	if err != nil {
		return err
	}
	return cw.Error()
}

// StreamJSON is the JSON twin of StreamCSV: it runs the sweep and writes
// the document encoding/json renders for its Result (spec first, then the
// groups array, two-space indentation), one group at a time. Each group is
// rendered by json.MarshalIndent with its resident indentation as the
// prefix, so the whole grid never resides in memory. A sweep that fails
// leaves w holding the spec and every group before the first one that
// failed, without the closing brackets.
func StreamJSON(ctx context.Context, spec Spec, opts Options, w io.Writer) error {
	sep := ""
	err := streamGroups(ctx, spec, opts, func(spec Spec) error {
		specJSON, err := json.MarshalIndent(spec, "  ", "  ")
		if err != nil {
			return err
		}
		_, err = fmt.Fprintf(w, "{\n  \"spec\": %s,\n  \"groups\": [", specJSON)
		return err
	}, func(g Group) error {
		groupJSON, err := json.MarshalIndent(g, "    ", "  ")
		if err != nil {
			return err
		}
		if _, err := io.WriteString(w, sep+"\n    "); err != nil {
			return err
		}
		sep = ","
		_, err = w.Write(groupJSON)
		return err
	})
	if err != nil {
		return err
	}
	_, err = io.WriteString(w, "\n  ]\n}\n")
	return err
}

// streamGroups is the sweep engine behind Run, StreamCSV and StreamJSON. It
// defaults and validates the spec and builds every (graph, speeds) system,
// then hands the defaulted spec to begin, runs every cell on the worker
// pool and hands each aggregated group to emit in group-index order.
// Neither callback runs unless the spec is valid and every system builds.
// emit is never called concurrently; groups finishing ahead of an earlier,
// still-running one wait, buffered, until the gap closes, so peak memory is
// bounded by the scheduling skew across workers rather than by the grid
// size. A group with a failed cell is never emitted, nor is any group after
// it.
func streamGroups(ctx context.Context, spec Spec, opts Options, begin func(Spec) error, emit func(Group) error) error {
	spec = spec.withDefaults()
	if err := spec.validate(); err != nil {
		return err
	}
	cells := spec.Expand()
	systems, err := buildSystems(ctx, spec, opts.Workers)
	if err != nil {
		return err
	}
	if err := begin(spec); err != nil {
		return err
	}

	opts.Telemetry.Begin(len(cells))
	// Per-group replicate collection. Replicates of one group occupy a
	// contiguous cell range, so group g collects cells
	// [g·R, (g+1)·R); remaining counts down to zero as they finish.
	type collect struct {
		series    []*sim.Series
		switches  [][]core.SwitchEvent
		remaining int
	}
	numGroups := len(cells) / spec.Replicates
	collecting := make([]collect, numGroups)
	for i := range collecting {
		collecting[i] = collect{
			series:    make([]*sim.Series, spec.Replicates),
			switches:  make([][]core.SwitchEvent, spec.Replicates),
			remaining: spec.Replicates,
		}
	}
	// Completed groups wait in pending until every group before them has
	// been emitted; next is the first group not yet emitted.
	pending := make(map[int]Group, 4)
	next := 0
	var mu sync.Mutex
	var done int

	return Map(ctx, opts.Workers, len(cells), func(ctx context.Context, i int) error {
		c := cells[i]
		opts.Telemetry.CellStart()
		s, sw, err := runCell(spec, c, systems[sysKey{c.graphIdx, c.speedsIdx}])
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			opts.Telemetry.CellDone(done, len(cells), false)
			return fmt.Errorf("sweep: cell %d (%s %s %s): %w", i, c.Graph, c.Scheme, c.Rounder, err)
		}
		done++
		opts.Telemetry.CellDone(done, len(cells), true)
		col := &collecting[c.Group]
		col.series[c.Replicate] = s
		col.switches[c.Replicate] = sw
		col.remaining--
		if col.remaining == 0 {
			g, err := aggregateGroup(spec, cells[c.Group*spec.Replicates], col.series, col.switches,
				systems[sysKey{c.graphIdx, c.speedsIdx}])
			// Free the replicate series either way; the group is done.
			collecting[c.Group] = collect{}
			if err != nil {
				return err
			}
			pending[c.Group] = g
			for ready, ok := pending[next]; ok; ready, ok = pending[next] {
				delete(pending, next)
				if err := emit(ready); err != nil {
					return err
				}
				opts.Telemetry.GroupFlushed(next)
				next++
			}
		}
		return nil
	})
}
