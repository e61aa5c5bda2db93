package core

import (
	"testing"

	"diffusionlb/internal/graph"
	"diffusionlb/internal/hetero"
	"diffusionlb/internal/metrics"
	"diffusionlb/internal/spectral"
)

// retargetFixture builds the shared throttle scenario: a torus with
// two-class speeds and the post-event vector where half the fast nodes
// dropped to 1.
func retargetFixture(t *testing.T) (*graph.Graph, *hetero.Speeds, *hetero.Speeds) {
	t.Helper()
	g, err := graph.Torus2D(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	before, err := hetero.TwoClass(64, 0.25, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	s := before.Slice()
	seen := 0
	for i, v := range s {
		if v == 4 {
			seen++
			if seen%2 == 0 {
				s[i] = 1
			}
		}
	}
	after, err := hetero.New(s)
	if err != nil {
		t.Fatal(err)
	}
	return g, before, after
}

// TestRetargetReweightMatchesRebuild: driving a run across a speed event
// via in-place Operator.Reweight must be bit-identical to swapping in a
// freshly constructed operator on the new speeds — Reweight is an
// optimization, not a semantic change.
func TestRetargetReweightMatchesRebuild(t *testing.T) {
	g, before, after := retargetFixture(t)
	x0, err := metrics.ProportionalLoad(64*1000, before)
	if err != nil {
		t.Fatal(err)
	}
	run := func(swap func(d *Discrete) error) *Discrete {
		op, err := spectral.NewOperator(g, before, nil)
		if err != nil {
			t.Fatal(err)
		}
		d, err := NewDiscrete(Config{Op: op, Kind: SOS, Beta: 1.8}, nil, 11, x0)
		if err != nil {
			t.Fatal(err)
		}
		Run(d, 20)
		if err := swap(d); err != nil {
			t.Fatal(err)
		}
		Run(d, 40)
		return d
	}
	viaReweight := run(func(d *Discrete) error {
		if err := d.Operator().Reweight(after); err != nil {
			return err
		}
		return d.Retarget(d.Operator())
	})
	viaRebuild := run(func(d *Discrete) error {
		fresh, err := spectral.NewOperator(g, after, nil)
		if err != nil {
			return err
		}
		return d.Retarget(fresh)
	})
	for i, v := range viaReweight.LoadsInt() {
		if viaRebuild.LoadsInt()[i] != v {
			t.Fatalf("node %d: reweight path %d != rebuild path %d", i, v, viaRebuild.LoadsInt()[i])
		}
	}
	if viaReweight.Retargets() != 1 || viaRebuild.Retargets() != 1 {
		t.Errorf("retarget counts = %d/%d, want 1/1", viaReweight.Retargets(), viaRebuild.Retargets())
	}
}

// TestRetargetPreservesState: Retarget is not a round — loads, flow memory,
// counters and the round counter survive it, and the checkpoint carries the
// retarget count.
func TestRetargetPreservesState(t *testing.T) {
	g, before, after := retargetFixture(t)
	op, err := spectral.NewOperator(g, before, nil)
	if err != nil {
		t.Fatal(err)
	}
	x0, err := metrics.PointLoad(64, 64*500, 0)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDiscrete(Config{Op: op, Kind: SOS, Beta: 1.8}, nil, 3, x0)
	if err != nil {
		t.Fatal(err)
	}
	Run(d, 15)
	loads := append([]int64(nil), d.LoadsInt()...)
	flows := append([]int64(nil), d.Flows()...)
	tok, msg := d.Traffic()
	if err := op.Reweight(after); err != nil {
		t.Fatal(err)
	}
	if err := d.Retarget(op); err != nil {
		t.Fatal(err)
	}
	if d.Round() != 15 {
		t.Errorf("round counter moved to %d across Retarget", d.Round())
	}
	for i, v := range loads {
		if d.LoadsInt()[i] != v {
			t.Fatalf("load %d changed across Retarget", i)
		}
	}
	for a, v := range flows {
		if d.Flows()[a] != v {
			t.Fatalf("flow memory %d changed across Retarget", a)
		}
	}
	if tok2, msg2 := d.Traffic(); tok2 != tok || msg2 != msg {
		t.Error("traffic counters changed across Retarget")
	}
	cp := d.Checkpoint()
	if cp.Retargets != 1 {
		t.Errorf("checkpoint retargets = %d, want 1", cp.Retargets)
	}
	d2, err := NewDiscrete(Config{Op: op, Kind: SOS, Beta: 1.8}, nil, 3, x0)
	if err != nil {
		t.Fatal(err)
	}
	if err := d2.Restore(cp); err != nil {
		t.Fatal(err)
	}
	if d2.Retargets() != 1 {
		t.Errorf("restored retargets = %d, want 1", d2.Retargets())
	}
}

// TestRetargetValidation: nil and wrong-shape operators are rejected on
// every engine, and the cumulative baseline forwards to its reference.
func TestRetargetValidation(t *testing.T) {
	g, before, _ := retargetFixture(t)
	op, err := spectral.NewOperator(g, before, nil)
	if err != nil {
		t.Fatal(err)
	}
	small, err := graph.Torus2D(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	smallOp, err := spectral.NewOperator(small, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	x0 := make([]int64, 64)
	xf := make([]float64, 64)
	d, err := NewDiscrete(Config{Op: op, Kind: FOS}, nil, 1, x0)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewContinuous(Config{Op: op, Kind: FOS}, xf)
	if err != nil {
		t.Fatal(err)
	}
	cu, err := NewCumulativeDiscrete(Config{Op: op, Kind: FOS}, x0)
	if err != nil {
		t.Fatal(err)
	}
	for _, rt := range []Retargeter{d, c, cu} {
		if err := rt.Retarget(nil); err == nil {
			t.Errorf("%T: nil operator must be rejected", rt)
		}
		if err := rt.Retarget(smallOp); err == nil {
			t.Errorf("%T: wrong-shape operator must be rejected", rt)
		}
		if err := rt.Retarget(op); err != nil {
			t.Errorf("%T: same-shape operator rejected: %v", rt, err)
		}
	}
	if cu.Retargets() != 1 {
		t.Errorf("cumulative retargets = %d, want 1 (forwarded)", cu.Retargets())
	}
}
