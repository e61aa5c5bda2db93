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
	"diffusionlb/internal/telemetry"
)

// StreamCSV runs the sweep like Run but writes the CSV rows incrementally:
// each aggregation group is collapsed and flushed to w as soon as its last
// replicate finishes, instead of accumulating the whole grid in memory —
// the ROADMAP scale path for grids too large for Result. Output is
// byte-identical to Run(...).WriteCSV(w) for every worker count: groups
// share the aggregation and row-rendering code with the in-memory writer,
// and are emitted in group-index order (a completed group waits, buffered,
// until every earlier group has been written, so peak memory is bounded by
// the scheduling skew across workers rather than by the grid size).
func StreamCSV(ctx context.Context, spec Spec, opts Options, w io.Writer) error {
	spec = spec.withDefaults()
	if err := spec.validate(); err != nil {
		return err
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	record := make([]string, len(csvHeader))
	if err := streamGroups(ctx, spec, opts, func(g Group) error {
		return writeGroupCSV(cw, g, record)
	}); err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}

// StreamJSON is the JSON twin of StreamCSV: it runs the sweep and writes
// the aggregated result incrementally, byte-identical to
// Run(...).WriteJSON(w) for every worker count. The document structure
// (spec first, then the groups array) is reproduced around per-group
// json.MarshalIndent calls, so each group's bytes are rendered by the same
// encoder the in-memory writer uses and the whole grid never resides in
// memory at once.
func StreamJSON(ctx context.Context, spec Spec, opts Options, w io.Writer) error {
	spec = spec.withDefaults()
	if err := spec.validate(); err != nil {
		return err
	}
	// The composite document mirrors json.Encoder with SetIndent("", "  ")
	// applied to Result{Spec, Groups}: nested values are rendered by
	// MarshalIndent with their resident indentation as the prefix.
	specJSON, err := json.MarshalIndent(spec, "  ", "  ")
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "{\n  \"spec\": %s,\n  \"groups\": ", specJSON); err != nil {
		return err
	}
	emitted := false
	if err := streamGroups(ctx, spec, opts, func(g Group) error {
		sep := ",\n    "
		if !emitted {
			sep = "[\n    "
			emitted = true
		}
		groupJSON, err := json.MarshalIndent(g, "    ", "  ")
		if err != nil {
			return err
		}
		if _, err := io.WriteString(w, sep); err != nil {
			return err
		}
		_, err = w.Write(groupJSON)
		return err
	}); err != nil {
		return err
	}
	// A nil Groups slice encodes as null; Run always aggregates at least
	// one group, but the closer keeps the two writers structurally equal
	// either way.
	closer := "\n  ]\n}\n"
	if !emitted {
		closer = "null\n}\n"
	}
	_, err = io.WriteString(w, closer)
	return err
}

// streamGroups expands the (already defaulted and validated) spec, runs
// every cell on the worker pool and hands each aggregated group to emit in
// group-index order — the shared engine behind the streaming sinks. emit is
// never called concurrently; groups finishing ahead of an earlier,
// still-running one buffer until the gap closes.
func streamGroups(ctx context.Context, spec Spec, opts Options, emit func(Group) error) error {
	cells := spec.Expand()
	systems, err := buildSystems(ctx, spec, opts.Workers)
	if err != nil {
		return err
	}

	sink := &groupSink{
		emit:    emit,
		tel:     opts.Telemetry,
		pending: make(map[int]Group, 4),
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
	var mu sync.Mutex
	var done int

	return Map(ctx, opts.Workers, len(cells), func(ctx context.Context, i int) error {
		c := cells[i]
		opts.Telemetry.CellStart()
		s, sw, err := runCell(spec, c, systems[sysKey{c.graphIdx, c.speedsIdx}])
		if err != nil {
			return fmt.Errorf("sweep: cell %d (%s %s %s): %w", i, c.Graph, c.Scheme, c.Rounder, err)
		}
		mu.Lock()
		defer mu.Unlock()
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
			if err := sink.push(c.Group, g); err != nil {
				return err
			}
		}
		done++
		opts.Telemetry.CellDone(done, len(cells))
		if opts.OnCell != nil {
			opts.OnCell(done, len(cells))
		}
		return nil
	})
}

// groupSink delivers completed groups to emit in group-index order,
// buffering groups that finish ahead of an earlier, still-running one.
// Callers serialize access (streamGroups holds its collection mutex around
// push).
type groupSink struct {
	emit    func(Group) error
	tel     *telemetry.SweepProbe
	next    int
	pending map[int]Group
}

// push hands over a completed group; it emits every consecutively
// available group starting at next, recording one progress trace event
// per flushed group — the live signal StreamCSV/StreamJSON previously
// lacked while a slow cell ran.
func (s *groupSink) push(idx int, g Group) error {
	s.pending[idx] = g
	for {
		gg, ok := s.pending[s.next]
		if !ok {
			return nil
		}
		delete(s.pending, s.next)
		if err := s.emit(gg); err != nil {
			return err
		}
		s.tel.GroupFlushed(s.next)
		s.next++
	}
}
