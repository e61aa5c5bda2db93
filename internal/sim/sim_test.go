package sim

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"diffusionlb/internal/core"
	"diffusionlb/internal/graph"
	"diffusionlb/internal/metrics"
	"diffusionlb/internal/spectral"
)

func discreteProc(t *testing.T, w, h int, kind core.Kind, beta float64) *core.Discrete {
	t.Helper()
	g, err := graph.Torus2D(w, h)
	if err != nil {
		t.Fatal(err)
	}
	op, err := spectral.NewOperator(g, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	x0, err := metrics.PointLoad(g.NumNodes(), int64(g.NumNodes())*100, 0)
	if err != nil {
		t.Fatal(err)
	}
	proc, err := core.NewDiscrete(core.Config{Op: op, Kind: kind, Beta: beta}, nil, 7, x0)
	if err != nil {
		t.Fatal(err)
	}
	return proc
}

func TestSeriesBasics(t *testing.T) {
	s := NewSeries("a", "b")
	if err := s.Append(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(5, 3, 4); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(10, 5, 6); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 3 || s.Round(1) != 5 {
		t.Fatalf("series shape wrong: len=%d", s.Len())
	}
	col, err := s.Column("b")
	if err != nil {
		t.Fatal(err)
	}
	if col[0] != 2 || col[2] != 6 {
		t.Errorf("column b = %v", col)
	}
	last, err := s.Last("a")
	if err != nil || last != 5 {
		t.Errorf("Last(a) = %g, %v", last, err)
	}
	mn, err := s.MinOf("a")
	if err != nil || mn != 1 {
		t.Errorf("MinOf(a) = %g, %v", mn, err)
	}
	if _, err := s.Column("missing"); err == nil {
		t.Error("missing column must error")
	}
	if err := s.Append(11, 1); err == nil {
		t.Error("wrong arity must error")
	}
}

func TestSeriesCSV(t *testing.T) {
	s := NewSeries("x")
	_ = s.Append(0, 1.5)
	_ = s.Append(1, 2)
	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "round,x\n0,1.5\n1,2\n"
	if buf.String() != want {
		t.Errorf("CSV = %q, want %q", buf.String(), want)
	}
}

func TestSeriesTableDownsamples(t *testing.T) {
	s := NewSeries("v")
	for i := 0; i <= 100; i++ {
		_ = s.Append(i, float64(i))
	}
	var buf bytes.Buffer
	if err := s.WriteTable(&buf, 11); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 12 { // header + 11 rows
		t.Errorf("table has %d lines, want 12:\n%s", len(lines), buf.String())
	}
	if !strings.Contains(lines[0], "round") || !strings.Contains(lines[0], "v") {
		t.Errorf("header missing: %q", lines[0])
	}
	// First and last rounds must be present.
	if !strings.Contains(lines[1], "0") || !strings.Contains(lines[len(lines)-1], "100") {
		t.Error("table must include first and last rows")
	}
}

func TestRunnerRecordsAndConverges(t *testing.T) {
	proc := discreteProc(t, 8, 8, core.SOS, 1.8)
	r := &Runner{Proc: proc, Every: 10}
	res, err := r.Run(400)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 400 || res.SwitchRound != -1 {
		t.Fatalf("result = %+v", res)
	}
	// Recorded at round 0, every 10, and final round: 42 rows.
	if res.Series.Len() != 41 {
		t.Errorf("recorded %d rows, want 41", res.Series.Len())
	}
	first, err := res.Series.Column("max_minus_avg")
	if err != nil {
		t.Fatal(err)
	}
	if first[0] <= first[len(first)-1] {
		t.Errorf("max-avg should decrease: %g -> %g", first[0], first[len(first)-1])
	}
	// Potential must decrease massively on a converging run.
	pot, err := res.Series.Column("potential_per_n")
	if err != nil {
		t.Fatal(err)
	}
	if pot[len(pot)-1] > pot[0]/1000 {
		t.Errorf("potential barely dropped: %g -> %g", pot[0], pot[len(pot)-1])
	}
}

func TestRunnerHybridPolicy(t *testing.T) {
	proc := discreteProc(t, 8, 8, core.SOS, 1.8)
	r := &Runner{
		Proc:     proc,
		Metrics:  []Metric{MaxMinusAvg(), MaxLocalDiff()},
		Adaptive: core.SwitchAtRound{Round: 50},
	}
	res, err := r.Run(120)
	if err != nil {
		t.Fatal(err)
	}
	if res.SwitchRound != 50 {
		t.Errorf("switch at %d, want 50", res.SwitchRound)
	}
	if proc.Kind() != core.FOS {
		t.Error("process should have switched to FOS")
	}
}

func TestRunnerLockstepDeviation(t *testing.T) {
	// Discrete vs continuous deviation stays bounded and finite.
	g, err := graph.Torus2D(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	op, err := spectral.NewOperator(g, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	x0, err := metrics.PointLoad(36, 36*100, 0)
	if err != nil {
		t.Fatal(err)
	}
	x0f := make([]float64, 36)
	for i, v := range x0 {
		x0f[i] = float64(v)
	}
	cfg := core.Config{Op: op, Kind: core.SOS, Beta: 1.7}
	disc, err := core.NewDiscrete(cfg, nil, 3, x0)
	if err != nil {
		t.Fatal(err)
	}
	cont, err := core.NewContinuous(cfg, x0f)
	if err != nil {
		t.Fatal(err)
	}
	r := &Runner{
		Proc:     disc,
		Metrics:  []Metric{DeviationFrom(cont, "deviation_inf")},
		Lockstep: []core.Process{cont},
	}
	res, err := r.Run(200)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := res.Series.Column("deviation_inf")
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range dev {
		if math.IsNaN(v) || v < 0 {
			t.Fatalf("bad deviation at row %d: %g", i, v)
		}
	}
	final := dev[len(dev)-1]
	if final > 50 {
		t.Errorf("deviation %g suspiciously large for a 6x6 torus", final)
	}
}

func TestRunnerOnRoundHook(t *testing.T) {
	proc := discreteProc(t, 4, 4, core.FOS, 0)
	calls := 0
	r := &Runner{
		Proc:    proc,
		Metrics: []Metric{TotalLoad()},
		OnRound: func(round int, p core.Process) { calls++ },
	}
	if _, err := r.Run(17); err != nil {
		t.Fatal(err)
	}
	if calls != 17 {
		t.Errorf("OnRound called %d times, want 17", calls)
	}
}

func TestRunnerValidation(t *testing.T) {
	if _, err := (&Runner{}).Run(10); err == nil {
		t.Error("nil process must error")
	}
	proc := discreteProc(t, 4, 4, core.FOS, 0)
	if _, err := (&Runner{Proc: proc}).Run(-1); err == nil {
		t.Error("negative rounds must error")
	}
}

func TestTokensMovedMetric(t *testing.T) {
	proc := discreteProc(t, 6, 6, core.FOS, 0)
	m := TokensMoved()
	if got := m.Compute(proc); got != 0 {
		t.Errorf("token_hops before any round = %g, want 0", got)
	}
	proc.Step()
	if got := m.Compute(proc); got <= 0 {
		t.Errorf("token_hops after a round from a point load = %g, want > 0", got)
	}
	// Processes without traffic accounting report 0.
	g, err := graph.Cycle(8)
	if err != nil {
		t.Fatal(err)
	}
	op, err := spectral.NewOperator(g, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	cont, err := core.NewContinuous(core.Config{Op: op, Kind: core.FOS}, make([]float64, 8))
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Compute(cont); got != 0 {
		t.Errorf("continuous process token_hops = %g, want 0 (no accounting)", got)
	}
}

func TestMetricsSuiteOnBothViews(t *testing.T) {
	// Each standard metric must work on discrete (Int view) and continuous
	// (Float view) processes.
	g, err := graph.Torus2D(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	op, err := spectral.NewOperator(g, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	x0 := make([]int64, 16)
	x0[0] = 1600
	x0f := make([]float64, 16)
	x0f[0] = 1600
	cfg := core.Config{Op: op, Kind: core.FOS}
	disc, err := core.NewDiscrete(cfg, nil, 1, x0)
	if err != nil {
		t.Fatal(err)
	}
	cont, err := core.NewContinuous(cfg, x0f)
	if err != nil {
		t.Fatal(err)
	}
	all := []Metric{MaxMinusAvg(), MaxLocalDiff(), PotentialPerN(), Discrepancy(),
		MinLoad(), MinTransient(), TotalLoad(), HeteroMaxMinusTarget()}
	for _, p := range []core.Process{disc, cont} {
		p.Step()
		for _, m := range all {
			v := m.Compute(p)
			if math.IsNaN(v) {
				t.Errorf("metric %s returned NaN", m.Name())
			}
		}
	}
	// Cross-check: discrete and continuous agree approximately after one
	// deterministic-ish round from the same start.
	dTot := TotalLoad().Compute(disc)
	cTot := TotalLoad().Compute(cont)
	if math.Abs(dTot-cTot) > 1e-6 {
		t.Errorf("totals diverged: %g vs %g", dTot, cTot)
	}
}
