package core

import (
	"reflect"
	"testing"

	"diffusionlb/internal/metrics"
)

func TestCheckpointRestoreBitIdentical(t *testing.T) {
	op := torusOp(t, 12, 12)
	n := 144
	x0, err := metrics.PointLoad(n, int64(n)*1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Op: op, Kind: SOS, Beta: 1.85}

	// Reference: one uninterrupted run.
	ref, err := NewDiscrete(cfg, RandomizedRounder{}, 17, x0)
	if err != nil {
		t.Fatal(err)
	}
	Run(ref, 120)

	// Split run: 50 rounds, checkpoint, new process, restore, 70 rounds.
	first, err := NewDiscrete(cfg, RandomizedRounder{}, 17, x0)
	if err != nil {
		t.Fatal(err)
	}
	Run(first, 50)
	cp := first.Checkpoint()
	// Mutating the original after the checkpoint must not affect the copy.
	Run(first, 5)

	second, err := NewDiscrete(cfg, RandomizedRounder{}, 17, x0)
	if err != nil {
		t.Fatal(err)
	}
	if err := second.Restore(cp); err != nil {
		t.Fatal(err)
	}
	if second.Round() != 50 {
		t.Fatalf("restored round = %d, want 50", second.Round())
	}
	Run(second, 70)

	a, b := ref.LoadsInt(), second.LoadsInt()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("resumed run differs at node %d: %d vs %d", i, a[i], b[i])
		}
	}
	if ref.Round() != second.Round() {
		t.Error("round counters differ")
	}
	refTok, refMsg := ref.Traffic()
	secTok, secMsg := second.Traffic()
	if refTok != secTok || refMsg != secMsg {
		t.Errorf("traffic counters differ: (%d,%d) vs (%d,%d)", refTok, refMsg, secTok, secMsg)
	}
	refMin, _ := ref.MinTransientInt()
	secMin, _ := second.MinTransientInt()
	if refMin != secMin {
		t.Errorf("min transient differs: %d vs %d", refMin, secMin)
	}
}

func TestCheckpointPreservesHybridState(t *testing.T) {
	op := torusOp(t, 8, 8)
	x0, err := metrics.PointLoad(64, 64*100, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Op: op, Kind: SOS, Beta: 1.8}
	p, err := NewDiscrete(cfg, RandomizedRounder{}, 3, x0)
	if err != nil {
		t.Fatal(err)
	}
	Run(p, 30)
	p.SetKind(FOS)
	Run(p, 10)
	cp := p.Checkpoint()
	if cp.Kind != FOS {
		t.Errorf("checkpoint kind = %v, want FOS", cp.Kind)
	}
	q, err := NewDiscrete(cfg, RandomizedRounder{}, 3, x0)
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Restore(cp); err != nil {
		t.Fatal(err)
	}
	if q.Kind() != FOS {
		t.Error("restored process should be in FOS mode")
	}
}

func TestRestoreValidation(t *testing.T) {
	op := torusOp(t, 4, 4)
	x0 := make([]int64, 16)
	p, err := NewDiscrete(Config{Op: op, Kind: FOS}, nil, 1, x0)
	if err != nil {
		t.Fatal(err)
	}
	p.Step()
	before := p.Checkpoint()
	rejected := func(what string, cp Checkpoint) {
		t.Helper()
		if err := p.Restore(cp); err == nil {
			t.Errorf("%s must be rejected", what)
		}
		if after := p.Checkpoint(); !reflect.DeepEqual(after, before) {
			t.Errorf("rejected %s mutated the process: %+v, want %+v", what, after, before)
		}
	}
	rejected("shape mismatch", Checkpoint{Loads: make([]int64, 3)})
	cp := p.Checkpoint()
	cp.Kind = Kind(99)
	rejected("invalid kind", cp)
	cp = p.Checkpoint()
	cp.Round = 999
	cp.Loads[0] = 7
	cp.Beta = 7.5
	rejected("out-of-range beta", cp)
}

func TestContinuousCheckpointRestoreBitIdentical(t *testing.T) {
	op := torusOp(t, 12, 12)
	n := 144
	x0 := make([]float64, n)
	x0[0] = float64(n) * 1000
	cfg := Config{Op: op, Kind: SOS, Beta: 1.85}

	ref, err := NewContinuous(cfg, x0)
	if err != nil {
		t.Fatal(err)
	}
	Run(ref, 120)

	first, err := NewContinuous(cfg, x0)
	if err != nil {
		t.Fatal(err)
	}
	Run(first, 50)
	cp := first.Checkpoint()
	Run(first, 5) // mutating the original must not affect the copy

	second, err := NewContinuous(cfg, x0)
	if err != nil {
		t.Fatal(err)
	}
	if err := second.Restore(cp); err != nil {
		t.Fatal(err)
	}
	if second.Round() != 50 {
		t.Fatalf("restored round = %d, want 50", second.Round())
	}
	Run(second, 70)

	a, b := ref.LoadsFloat(), second.LoadsFloat()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("resumed run differs at node %d: %g vs %g", i, a[i], b[i])
		}
	}
	if ref.MinTransient() != second.MinTransient() {
		t.Errorf("min transient differs: %g vs %g", ref.MinTransient(), second.MinTransient())
	}
	if ref.ConservationError() != second.ConservationError() {
		t.Errorf("conservation drift differs: %g vs %g", ref.ConservationError(), second.ConservationError())
	}
}

func TestContinuousRestoreValidation(t *testing.T) {
	op := torusOp(t, 4, 4)
	p, err := NewContinuous(Config{Op: op, Kind: FOS}, make([]float64, 16))
	if err != nil {
		t.Fatal(err)
	}
	p.Step()
	before := p.Checkpoint()
	rejected := func(what string, cp ContinuousCheckpoint) {
		t.Helper()
		if err := p.Restore(cp); err == nil {
			t.Errorf("%s must be rejected", what)
		}
		if after := p.Checkpoint(); !reflect.DeepEqual(after, before) {
			t.Errorf("rejected %s mutated the process: %+v, want %+v", what, after, before)
		}
	}
	rejected("shape mismatch", ContinuousCheckpoint{Loads: make([]float64, 3)})
	cp := p.Checkpoint()
	cp.Kind = Kind(99)
	rejected("invalid kind", cp)
	cp = p.Checkpoint()
	cp.Round = 999
	cp.Loads[0] = 7
	cp.Beta = 7.5
	rejected("out-of-range beta", cp)
}

func TestCumulativeCheckpointRestoreBitIdentical(t *testing.T) {
	op := torusOp(t, 12, 12)
	n := 144
	x0, err := metrics.PointLoad(n, int64(n)*1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Op: op, Kind: SOS, Beta: 1.85}

	ref, err := NewCumulativeDiscrete(cfg, x0)
	if err != nil {
		t.Fatal(err)
	}
	Run(ref, 120)

	first, err := NewCumulativeDiscrete(cfg, x0)
	if err != nil {
		t.Fatal(err)
	}
	Run(first, 50)
	cp := first.Checkpoint()
	Run(first, 5)

	second, err := NewCumulativeDiscrete(cfg, x0)
	if err != nil {
		t.Fatal(err)
	}
	if err := second.Restore(cp); err != nil {
		t.Fatal(err)
	}
	if second.Round() != 50 {
		t.Fatalf("restored round = %d, want 50", second.Round())
	}
	Run(second, 70)

	a, b := ref.LoadsInt(), second.LoadsInt()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("resumed run differs at node %d: %d vs %d", i, a[i], b[i])
		}
	}
	ra, rb := ref.Reference().LoadsFloat(), second.Reference().LoadsFloat()
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatalf("resumed continuous reference differs at node %d: %g vs %g", i, ra[i], rb[i])
		}
	}
	if ref.MinTransient() != second.MinTransient() {
		t.Errorf("min transient differs: %g vs %g", ref.MinTransient(), second.MinTransient())
	}
}

func TestCumulativeRestoreValidation(t *testing.T) {
	op := torusOp(t, 4, 4)
	p, err := NewCumulativeDiscrete(Config{Op: op, Kind: FOS}, make([]int64, 16))
	if err != nil {
		t.Fatal(err)
	}
	p.Step()
	before := p.Checkpoint()
	rejected := func(what string, cp CumulativeCheckpoint) {
		t.Helper()
		if err := p.Restore(cp); err == nil {
			t.Errorf("%s must be rejected", what)
		}
		if after := p.Checkpoint(); !reflect.DeepEqual(after, before) {
			t.Errorf("rejected %s mutated the process: %+v, want %+v", what, after, before)
		}
	}
	rejected("shape mismatch", CumulativeCheckpoint{Loads: make([]int64, 3)})
	cp := p.Checkpoint()
	cp.Cont.Kind = Kind(99)
	rejected("invalid wrapped kind", cp)
	cp = p.Checkpoint()
	cp.Cont.Round = 999
	cp.Cont.Loads[0] = 7
	cp.Cont.Beta = 7.5
	rejected("out-of-range wrapped beta", cp)
}
