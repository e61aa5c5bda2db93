package sweep

import (
	"bytes"
	"context"
	"testing"
)

// runtimeSpec is the shared fixture: a torus small enough for CI with both
// schemes and the barrier actor runtime next to the shared-memory engine.
func runtimeSpec() Spec {
	return Spec{
		Graphs:   []string{"torus2d:8x8"},
		Schemes:  []string{"fos", "sos"},
		Runtimes: []string{"", "actor:3"},
		Rounds:   30,
		Every:    10,
	}
}

// TestRuntimesAxis: the runtime axis expands into labelled cells, and —
// because the runtime index does not enter the cell seed and barrier mode
// is bit-identical to the shared-memory engine — an "actor:K" group's
// aggregated columns are exactly its "" sibling's, value for value.
func TestRuntimesAxis(t *testing.T) {
	spec := runtimeSpec()
	if got, want := spec.NumCells(), 4; got != want {
		t.Fatalf("NumCells = %d, want %d (2 schemes x 2 runtimes)", got, want)
	}
	res, err := Run(context.Background(), spec, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]*Group{}
	for i := range res.Groups {
		g := &res.Groups[i]
		byKey[g.Scheme+"/"+g.Runtime] = g
	}
	if len(byKey) != 4 {
		t.Fatalf("got %d distinct groups, want 4", len(byKey))
	}
	for _, scheme := range []string{"fos", "sos"} {
		shared, ok1 := byKey[scheme+"/"]
		barrier, ok2 := byKey[scheme+"/actor:3"]
		if !ok1 || !ok2 {
			t.Fatalf("missing groups for scheme %s: %v", scheme, byKey)
		}
		if len(shared.Columns) != len(barrier.Columns) {
			t.Fatalf("%s: column sets differ", scheme)
		}
		for ci := range shared.Columns {
			a, b := shared.Columns[ci], barrier.Columns[ci]
			if a.Name != b.Name {
				t.Fatalf("%s: column %d name %q vs %q", scheme, ci, a.Name, b.Name)
			}
			for row := range a.Mean {
				//lint:allow floateq barrier-mode bit-equality with the shared-memory engine is the contract
				if a.Mean[row] != b.Mean[row] || a.Min[row] != b.Min[row] || a.Max[row] != b.Max[row] {
					t.Fatalf("%s %s row %d: shared-memory %g/%g/%g vs barrier actor %g/%g/%g",
						scheme, a.Name, row, a.Mean[row], a.Min[row], a.Max[row], b.Mean[row], b.Min[row], b.Max[row])
				}
			}
		}
	}
}

// TestRuntimesValidate: malformed runtime specs and baselines without an
// actor equivalent are rejected before any cell runs.
func TestRuntimesValidate(t *testing.T) {
	spec := runtimeSpec()
	spec.Runtimes = []string{"actor:0"}
	if _, err := Run(context.Background(), spec, Options{}); err == nil {
		t.Error("actor:0 accepted")
	}
	spec = runtimeSpec()
	spec.Runtimes = []string{"actor:2"}
	spec.Rounders = []string{"continuous"}
	if _, err := Run(context.Background(), spec, Options{}); err == nil {
		t.Error("continuous rounder on the actor runtime accepted")
	}
	spec = runtimeSpec()
	spec.Runtimes = []string{"threads:2"}
	if _, err := Run(context.Background(), spec, Options{}); err == nil {
		t.Error("unknown runtime scheme accepted")
	}
}

// TestStalenessDiscrepancySweep is the pinned staleness experiment fixture:
// discrepancy versus staleness bound K ∈ {0, 1, 2, 4} for FOS vs SOS on the
// torus, byte-identical across worker counts. Stale cells share the seed of
// their barrier sibling, so the comparison isolates the transport.
func TestStalenessDiscrepancySweep(t *testing.T) {
	spec := Spec{
		Graphs:  []string{"torus2d:16x16"},
		Schemes: []string{"fos", "sos"},
		Runtimes: []string{
			"actor:4", "actor:4,stale=1", "actor:4,stale=2", "actor:4,stale=4",
		},
		Rounds: 60,
		Every:  20,
	}
	if got, want := spec.NumCells(), 8; got != want {
		t.Fatalf("NumCells = %d, want %d", got, want)
	}
	var outputs []string
	for _, workers := range []int{1, 4} {
		res, err := Run(context.Background(), spec, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		outputs = append(outputs, string(resultJSON(t, res)))

		if workers == 1 {
			// The fixture's substance: every (scheme, staleness) coordinate
			// reports a final discrepancy, and the barrier coordinate beats
			// or ties the loosest staleness bound for both schemes (more
			// staleness means balancing against older boundary state).
			final := map[string]float64{}
			for _, g := range res.Groups {
				for _, col := range g.Columns {
					if col.Name == "max_minus_avg" {
						final[g.Scheme+"/"+g.Runtime] = col.Mean[len(col.Mean)-1]
					}
				}
			}
			if len(final) != 8 {
				t.Fatalf("got %d (scheme, staleness) discrepancy readings, want 8: %v", len(final), final)
			}
			for k, v := range final {
				if v < 0 {
					t.Errorf("%s: negative discrepancy %g", k, v)
				}
			}
		}
	}
	if outputs[0] != outputs[1] {
		t.Error("staleness sweep output differs across worker counts")
	}
}

// TestStreamCSVWithRuntimes: StreamCSV renders runtime cells exactly as
// Run collects them, for every worker count (the runtime column rides
// writeGroupCSV).
func TestStreamCSVWithRuntimes(t *testing.T) {
	spec := runtimeSpec()
	res, err := Run(context.Background(), spec, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := resultCSV(t, res)
	for _, workers := range []int{1, 3} {
		var got bytes.Buffer
		if err := StreamCSV(context.Background(), spec, Options{Workers: workers}, &got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("StreamCSV (workers=%d) differs from Run's groups", workers)
		}
	}
}

// TestRuntimeSeedSharing pins the seed policy: the runtime axis must not
// perturb cell seeds, so a spec with and without the axis derives the same
// seed for the same coordinate.
func TestRuntimeSeedSharing(t *testing.T) {
	with := runtimeSpec().Expand()
	without := func() Spec { s := runtimeSpec(); s.Runtimes = nil; return s }().Expand()
	seedOf := func(cells []Cell, scheme, runtime string) (uint64, bool) {
		for _, c := range cells {
			if c.Scheme == scheme && c.Runtime == runtime {
				return c.Seed, true
			}
		}
		return 0, false
	}
	for _, scheme := range []string{"fos", "sos"} {
		base, ok := seedOf(without, scheme, "")
		if !ok {
			t.Fatalf("no %s cell in the axis-free spec", scheme)
		}
		for _, rt := range []string{"", "actor:3"} {
			got, ok := seedOf(with, scheme, rt)
			if !ok {
				t.Fatalf("no (%s, %q) cell", scheme, rt)
			}
			if got != base {
				t.Errorf("(%s, %q) seed %d, want %d — runtime leaked into the seed mix", scheme, rt, got, base)
			}
		}
	}
}
