package sweep

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"diffusionlb/internal/telemetry"
)

// withProcs raises GOMAXPROCS so the pool genuinely fans out even on
// single-core CI runners, restoring the old value afterwards.
func withProcs(t *testing.T, n int) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// resultJSON renders res with encoding/json at two-space indentation: the
// document StreamJSON writes for the same sweep.
func resultJSON(t *testing.T, res *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// resultCSV renders res's groups through the row writer StreamCSV uses:
// the bytes StreamCSV writes for the same sweep.
func resultCSV(t *testing.T, res *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	cw := csv.NewWriter(&buf)
	if err := cw.Write(csvHeader); err != nil {
		t.Fatal(err)
	}
	record := make([]string, len(csvHeader))
	for _, g := range res.Groups {
		if err := writeGroupCSV(cw, g, record); err != nil {
			t.Fatal(err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func testSpec() Spec {
	return Spec{
		Graphs:     []string{"torus2d:8x8", "cycle:16"},
		Schemes:    []string{"sos", "fos"},
		Rounders:   []string{"randomized"},
		Replicates: 3,
		Rounds:     60,
		Every:      10,
		BaseSeed:   7,
	}
}

func TestExpandDeterministic(t *testing.T) {
	spec := testSpec()
	cells := spec.Expand()
	if len(cells) != spec.NumCells() {
		t.Fatalf("Expand gave %d cells, NumCells says %d", len(cells), spec.NumCells())
	}
	if len(cells) != 2*2*1*1*1*3 {
		t.Fatalf("expected 12 cells, got %d", len(cells))
	}
	again := spec.Expand()
	seeds := map[uint64]bool{}
	for i, c := range cells {
		if c.Index != i {
			t.Errorf("cell %d has Index %d", i, c.Index)
		}
		if c.Group != i/spec.Replicates {
			t.Errorf("cell %d has Group %d, want %d", i, c.Group, i/spec.Replicates)
		}
		if again[i].Seed != c.Seed {
			t.Errorf("cell %d seed not deterministic", i)
		}
		if seeds[c.Seed] {
			t.Errorf("cell %d reuses seed %d", i, c.Seed)
		}
		seeds[c.Seed] = true
	}
	// Seeds must not depend on axis values that come later in the grid:
	// dropping the second graph keeps the first graph's seeds intact.
	short := spec
	short.Graphs = spec.Graphs[:1]
	for i, c := range short.Expand() {
		if c.Seed != cells[i].Seed {
			t.Errorf("seed %d changed when unrelated axis entries were removed", i)
		}
	}
}

// TestBetaAxisCollapsesForFOS: FOS ignores β, so a β sweep must not
// duplicate FOS cells under different labels.
func TestBetaAxisCollapsesForFOS(t *testing.T) {
	spec := Spec{
		Graphs:     []string{"torus2d:8x8"},
		Schemes:    []string{"sos", "fos"},
		Betas:      []float64{1.2, 1.8},
		Replicates: 2,
		Rounds:     20,
	}
	cells := spec.Expand()
	if len(cells) != spec.NumCells() {
		t.Fatalf("Expand gave %d cells, NumCells says %d", len(cells), spec.NumCells())
	}
	// SOS: 2 betas x 2 replicates; FOS: 1 x 2 replicates.
	if len(cells) != 6 {
		t.Fatalf("expected 6 cells, got %d", len(cells))
	}
	res, err := Run(context.Background(), spec, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var sos, fos int
	for _, g := range res.Groups {
		switch g.Scheme {
		case "sos":
			sos++
		case "fos":
			fos++
		}
	}
	if sos != 2 || fos != 1 {
		t.Errorf("got %d sos / %d fos groups, want 2 / 1", sos, fos)
	}
}

func TestSpecValidation(t *testing.T) {
	bad := []Spec{
		{Schemes: []string{"sos"}, Rounds: 10},                                // no graphs
		{Graphs: []string{"cycle:8"}, Rounds: 10},                             // no schemes
		{Graphs: []string{"cycle:8"}, Schemes: []string{"third"}, Rounds: 10}, // bad scheme
		{Graphs: []string{"cycle:8"}, Schemes: []string{"sos"}},               // no rounds
		{Graphs: []string{"cycle:8"}, Schemes: []string{"sos"}, Rounds: 10, Rounders: []string{"dice"}},
		{Graphs: []string{"cycle:8"}, Schemes: []string{"sos"}, Rounds: 10, Betas: []float64{2.5}},
		// core needs SOS beta strictly below 2; validation must reject the
		// boundary upfront, before the expensive system build.
		{Graphs: []string{"cycle:8"}, Schemes: []string{"sos"}, Rounds: 10, Betas: []float64{2}},
		// A malformed policy must fail validation before any cell runs.
		{Graphs: []string{"cycle:8"}, Schemes: []string{"sos"}, Rounds: 10, Policies: []string{"warp:9"}},
		// 0 replicates means the default 1; a negative count is a typo.
		{Graphs: []string{"cycle:8"}, Schemes: []string{"sos"}, Rounds: 10, Replicates: -3},
		// 0 means the automatic cadence; a negative one is a typo too.
		{Graphs: []string{"cycle:8"}, Schemes: []string{"sos"}, Rounds: 10, Every: -5},
	}
	for i, s := range bad {
		if _, err := Run(context.Background(), s, Options{}); err == nil {
			t.Errorf("spec %d should be rejected", i)
		}
	}
	// A bad graph spec must surface from system construction.
	s := Spec{Graphs: []string{"martian:4"}, Schemes: []string{"sos"}, Rounds: 10}
	if _, err := Run(context.Background(), s, Options{}); err == nil {
		t.Error("bad graph spec should fail")
	}
}

// TestAvgOverflowRejected: a Spec.Avg whose avg·n overflows int64 fails
// the run instead of placing a wrapped-around token count.
func TestAvgOverflowRejected(t *testing.T) {
	s := Spec{Graphs: []string{"cycle:4"}, Schemes: []string{"fos"}, Rounds: 2, Avg: math.MaxInt64/4 + 1}
	if _, err := Run(context.Background(), s, Options{}); err == nil || !strings.Contains(err.Error(), "overflows int64") {
		t.Errorf("Avg %d on 4 nodes: err = %v, want an int64 overflow error", s.Avg, err)
	}
}

// TestDeterminismAcrossWorkers is the engine's core guarantee: aggregated
// output is bitwise identical no matter how many workers execute the cells.
func TestDeterminismAcrossWorkers(t *testing.T) {
	withProcs(t, 8)
	spec := testSpec()
	spec.Speeds = []string{"", "twoclass:0.25:4"}
	spec.Rounders = []string{"randomized", "nearest"}

	var outputs [][]byte
	for _, workers := range []int{1, 3, 8} {
		res, err := Run(context.Background(), spec, Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		outputs = append(outputs, resultJSON(t, res))
	}
	if !bytes.Equal(outputs[0], outputs[1]) || !bytes.Equal(outputs[0], outputs[2]) {
		t.Fatal("aggregated output differs across worker counts")
	}
}

func TestReplicatesActuallyVary(t *testing.T) {
	spec := testSpec()
	spec.Graphs = []string{"torus2d:8x8"}
	spec.Schemes = []string{"sos"}
	res, err := Run(context.Background(), spec, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	g := res.Groups[0]
	var sawSpread bool
	for _, col := range g.Columns {
		for row := range g.Rounds {
			if col.Min[row] > col.Mean[row]+1e-12 || col.Max[row] < col.Mean[row]-1e-12 {
				t.Fatalf("min/mean/max ordering violated in %s", col.Name)
			}
			if col.Std[row] > 0 {
				sawSpread = true
			}
		}
	}
	if !sawSpread {
		t.Error("randomized replicates produced zero spread everywhere — seeds are not independent")
	}
	// The idealized scheme is deterministic: all replicates identical.
	spec.Rounders = []string{"continuous"}
	res, err = Run(context.Background(), spec, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range res.Groups[0].Columns {
		for row := range res.Groups[0].Rounds {
			if col.Std[row] != 0 {
				t.Fatalf("continuous replicates diverged (std=%g in %s)", col.Std[row], col.Name)
			}
		}
	}
}

// TestCancellationMidSweep: a cancel from inside the first job stops the
// pool from dispatching further jobs, and a sweep on a cancelled context
// runs no cell; both surface as context.Canceled.
func TestCancellationMidSweep(t *testing.T) {
	withProcs(t, 4)
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int64
		err := Map(ctx, workers, 100, func(ctx context.Context, i int) error {
			ran.Add(1)
			if i == 0 {
				cancel()
			}
			// Jobs dispatched before the cancel hold their worker until
			// it lands, so no worker can race through the queue.
			<-ctx.Done()
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: Map after a mid-run cancel = %v, want context.Canceled", workers, err)
		}
		if got := ran.Load(); got > int64(workers) {
			t.Errorf("workers=%d: %d jobs ran after the first job cancelled, want at most one per worker", workers, got)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tr := telemetry.NewTrace(64)
	_, err := Run(ctx, testSpec(), Options{Workers: 4, Telemetry: telemetry.NewSweepProbe(telemetry.NewRegistry(), tr)})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run on a cancelled context = %v, want context.Canceled", err)
	}
	if got := countKinds(tr)[telemetry.EvSweepCell]; got != 0 {
		t.Errorf("%d cells ran on a cancelled context", got)
	}
}

func TestMapOrderAndErrors(t *testing.T) {
	withProcs(t, 4)
	out := make([]int, 100)
	err := Map(context.Background(), 4, len(out), func(_ context.Context, i int) error {
		out[i] = i * i
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
	// Lowest-index error wins regardless of scheduling.
	errA, errB := errors.New("a"), errors.New("b")
	err = Map(context.Background(), 4, 50, func(_ context.Context, i int) error {
		switch i {
		case 7:
			return errA
		case 3:
			time.Sleep(5 * time.Millisecond)
			return errB
		}
		return nil
	})
	if !errors.Is(err, errB) {
		t.Fatalf("Map error = %v, want lowest-index error %v", err, errB)
	}
	// Pre-cancelled context: nothing runs.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	err = Map(ctx, 4, 10, func(_ context.Context, i int) error { ran.Add(1); return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Map = %v", err)
	}
	if got := ran.Load(); got != 0 {
		t.Fatalf("%d jobs ran under a cancelled context", got)
	}
}

// TestMapStopsAfterFailure pins Map's dispatch rule: no index starts once a
// job has failed, and Map returns the lowest failing index's error even when
// a higher index fails first. The first `workers` jobs meet at a barrier, so
// each holds its own goroutine, and every one of them fails: whichever
// goroutine claims next has seen a failure at a lower index.
func TestMapStopsAfterFailure(t *testing.T) {
	withProcs(t, 4)
	const n = 100
	for _, workers := range []int{1, 4} {
		var started [n]atomic.Bool
		var met sync.WaitGroup
		met.Add(workers)
		highFailed := make(chan struct{})
		err := Map(context.Background(), workers, n, func(_ context.Context, i int) error {
			started[i].Store(true)
			if i >= workers {
				return nil
			}
			met.Done()
			met.Wait()
			if i == workers-1 {
				close(highFailed)
			} else {
				<-highFailed
			}
			return fmt.Errorf("job %d", i)
		})
		if err == nil || err.Error() != "job 0" {
			t.Errorf("workers=%d: Map error = %v, want the lowest failing index's (job 0)", workers, err)
		}
		for i := workers; i < n; i++ {
			if started[i].Load() {
				t.Errorf("workers=%d: job %d started after jobs 0..%d failed", workers, i, workers-1)
			}
		}
	}
}

func TestWorkersResolution(t *testing.T) {
	withProcs(t, 4)
	if got := Workers(0); got != 4 {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS=4", got)
	}
	if got := Workers(-3); got != 4 {
		t.Errorf("Workers(-3) = %d, want 4", got)
	}
	if got := Workers(2); got != 2 {
		t.Errorf("Workers(2) = %d, want 2", got)
	}
	if got := Workers(99); got != 4 {
		t.Errorf("Workers(99) = %d, want cap 4", got)
	}
}

func TestOutputsWellFormed(t *testing.T) {
	spec := Spec{
		Graphs:     []string{"torus2d:8x8"},
		Schemes:    []string{"sos", "fos"},
		Replicates: 2,
		Rounds:     40,
		Every:      20,
	}
	res, err := Run(context.Background(), spec, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 2 {
		t.Fatalf("got %d groups, want 2", len(res.Groups))
	}
	for _, g := range res.Groups {
		if g.Beta == 0 || g.Lambda == 0 || g.Nodes != 64 {
			t.Errorf("group %q missing resolved spectral data: %+v", g.Label(), g)
		}
		if len(g.Rounds) == 0 || len(g.Columns) == 0 {
			t.Errorf("group %q has no data", g.Label())
		}
	}

	var rows bytes.Buffer
	if err := StreamCSV(context.Background(), spec, Options{Workers: 1}, &rows); err != nil {
		t.Fatal(err)
	}
	head := strings.SplitN(rows.String(), "\n", 2)[0]
	if head != strings.Join(csvHeader, ",") {
		t.Errorf("CSV header = %q", head)
	}
	if !strings.Contains(rows.String(), "torus2d:8x8,sos,randomized,,,,,,") {
		t.Errorf("CSV missing group rows:\n%s", rows.String())
	}

	var table bytes.Buffer
	if err := res.WriteTable(&table, 5); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"max_minus_avg_mean", "max_minus_avg_std", "replicates=2"} {
		if !strings.Contains(table.String(), want) {
			t.Errorf("table output missing %q:\n%s", want, table.String())
		}
	}
}
