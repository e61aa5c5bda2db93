package sweep

import (
	"bytes"
	"context"
	"io"
	"testing"

	"diffusionlb/internal/telemetry"
)

// countKinds tallies the trace events by kind.
func countKinds(tr *telemetry.Trace) map[telemetry.EventKind]int {
	out := map[telemetry.EventKind]int{}
	for _, e := range tr.Events() {
		out[e.Kind]++
	}
	return out
}

// TestStreamTelemetryGroupEvents: both streams emit exactly one
// EvSweepGroup per aggregation group and one EvSweepCell per cell, for
// every worker count.
func TestStreamTelemetryGroupEvents(t *testing.T) {
	spec := streamSpec()
	numCells := spec.NumCells()
	numGroups := numCells / spec.withDefaults().Replicates
	sinks := []struct {
		name   string
		stream func(context.Context, Spec, Options, io.Writer) error
	}{
		{"csv", StreamCSV},
		{"json", StreamJSON},
	}
	for _, sink := range sinks {
		for _, workers := range []int{1, 4, 8} {
			reg := telemetry.NewRegistry()
			tr := telemetry.NewTrace(4 * (numCells + numGroups))
			probe := telemetry.NewSweepProbe(reg, tr)
			var buf bytes.Buffer
			if err := sink.stream(context.Background(), spec, Options{Workers: workers, Telemetry: probe}, &buf); err != nil {
				t.Fatalf("%s workers=%d: %v", sink.name, workers, err)
			}
			kinds := countKinds(tr)
			if got := kinds[telemetry.EvSweepGroup]; got != numGroups {
				t.Errorf("%s workers=%d: %d group events, want %d", sink.name, workers, got, numGroups)
			}
			if got := kinds[telemetry.EvSweepCell]; got != numCells {
				t.Errorf("%s workers=%d: %d cell events, want %d", sink.name, workers, got, numCells)
			}
			// Group events carry ascending group indices: in-order delivery.
			next := 0
			for _, e := range tr.Events() {
				if e.Kind != telemetry.EvSweepGroup {
					continue
				}
				if int(e.A) != next {
					t.Fatalf("%s workers=%d: group event order %d, want %d", sink.name, workers, e.A, next)
				}
				next++
			}
			snap := telemetry.TakeSnapshot(reg, nil)
			for _, c := range snap.Counters {
				switch c.Name {
				case "diffusionlb_sweep_cells_completed_total":
					if int(c.Value) != numCells {
						t.Errorf("%s workers=%d: cells counter %v, want %d", sink.name, workers, c.Value, numCells)
					}
				case "diffusionlb_sweep_groups_flushed_total":
					if int(c.Value) != numGroups {
						t.Errorf("%s workers=%d: groups counter %v, want %d", sink.name, workers, c.Value, numGroups)
					}
				}
			}
			for _, g := range snap.Gauges {
				switch g.Name {
				case "diffusionlb_sweep_cells_total":
					if int(g.Value) != numCells {
						t.Errorf("%s workers=%d: total gauge %v, want %d", sink.name, workers, g.Value, numCells)
					}
				case "diffusionlb_sweep_workers_busy":
					if g.Value != 0 {
						t.Errorf("%s workers=%d: busy gauge %v after completion, want 0", sink.name, workers, g.Value)
					}
				}
			}
		}
	}
}

// TestRunTelemetryCellProgress: Run goes through the same engine as the
// streams, so it records one cell event per cell and one group event per
// group.
func TestRunTelemetryCellProgress(t *testing.T) {
	spec := streamSpec()
	numCells := spec.NumCells()
	numGroups := numCells / spec.Replicates
	reg := telemetry.NewRegistry()
	tr := telemetry.NewTrace(4 * (numCells + numGroups))
	probe := telemetry.NewSweepProbe(reg, tr)
	if _, err := Run(context.Background(), spec, Options{Workers: 4, Telemetry: probe}); err != nil {
		t.Fatal(err)
	}
	kinds := countKinds(tr)
	if got := kinds[telemetry.EvSweepCell]; got != numCells {
		t.Errorf("%d cell events, want %d", got, numCells)
	}
	if got := kinds[telemetry.EvSweepGroup]; got != numGroups {
		t.Errorf("%d group events from Run, want %d", got, numGroups)
	}
}

// TestRunTelemetryFailedCell: a failed cell marks its worker idle without
// counting as completed, and no cell starts after it, so a sweep that
// fails in its first cell ends with no busy worker and no completed cell.
func TestRunTelemetryFailedCell(t *testing.T) {
	spec := Spec{
		Graphs:    []string{"torus2d:8x8"},
		Schemes:   []string{"sos"},
		Workloads: []string{"burst:1:9223372036854775807", ""},
		Rounds:    20,
	}
	reg := telemetry.NewRegistry()
	tr := telemetry.NewTrace(16)
	if _, err := Run(context.Background(), spec, Options{Workers: 1, Telemetry: telemetry.NewSweepProbe(reg, tr)}); err == nil {
		t.Fatal("Run with an overflowing burst succeeded")
	}
	snap := telemetry.TakeSnapshot(reg, nil)
	for _, c := range snap.Counters {
		if c.Name == "diffusionlb_sweep_cells_completed_total" && c.Value != 0 {
			t.Errorf("cells counter %v after a sweep that failed in its first cell, want 0", c.Value)
		}
	}
	for _, g := range snap.Gauges {
		if g.Name == "diffusionlb_sweep_workers_busy" && g.Value != 0 {
			t.Errorf("busy gauge %v after a failed sweep, want 0", g.Value)
		}
	}
	if got := countKinds(tr)[telemetry.EvSweepCell]; got != 0 {
		t.Errorf("%d cell events from a sweep that failed in its first cell, want 0", got)
	}
}
