package core

import (
	"reflect"
	"runtime"
	"testing"

	"diffusionlb/internal/metrics"
	"diffusionlb/internal/spectral"
)

// stubProc is a Process with fully controllable loads and round counter,
// so policy tests can rig exact φ_local trajectories without depending on
// diffusion dynamics.
type stubProc struct {
	op    *spectral.Operator
	kind  Kind
	round int
	loads []int64
}

func (s *stubProc) Step()                        { s.round++ }
func (s *stubProc) Round() int                   { return s.round }
func (s *stubProc) Kind() Kind                   { return s.kind }
func (s *stubProc) SetKind(k Kind)               { s.kind = k }
func (s *stubProc) Operator() *spectral.Operator { return s.op }
func (s *stubProc) Loads() LoadView              { return LoadView{Int: s.loads} }
func (s *stubProc) MinTransient() float64        { return 0 }
func (s *stubProc) NegativeTransientRounds() int { return 0 }

// newStub builds a balanced stub on a 4x4 torus; tests then poke loads[0]
// to rig φ_local.
func newStub(t *testing.T, kind Kind) *stubProc {
	t.Helper()
	op := torusOp(t, 4, 4)
	loads := make([]int64, 16)
	for i := range loads {
		loads[i] = 100
	}
	return &stubProc{op: op, kind: kind, loads: loads}
}

func TestPotentialStallBoundedMemory(t *testing.T) {
	p := newStub(t, SOS)
	p.loads[0] = 10_000 // constant unbalanced loads: potential never improves
	s := &SwitchOnPotentialStall{Window: 10, Factor: 0.01}
	for i := 0; i < 500; i++ {
		p.Step()
		s.Decide(p)
	}
	if len(s.ring) != 11 {
		t.Errorf("stall policy holds %d samples after 500 rounds, want bounded Window+1 = 11", len(s.ring))
	}
}

// TestPotentialStallResetIsReuseSafe is the regression for the
// stale-history bug: a policy reused across runs used to carry the
// previous trajectory's samples, so its first Window decisions compared
// against the wrong run. After Reset it must behave exactly like a fresh
// value: undecidable until its own window fills.
func TestPotentialStallResetIsReuseSafe(t *testing.T) {
	const w = 5
	p := newStub(t, SOS)
	p.loads[0] = 10_000
	s := &SwitchOnPotentialStall{Window: w, Factor: 0.01}
	// Run A: fill the ring on a flat (stalled) trajectory until it fires.
	fired := false
	for i := 0; i < 2*w && !fired; i++ {
		_, fired = s.Decide(p)
	}
	if !fired {
		t.Fatal("stall policy never fired on a flat potential")
	}
	// Without a reset, the very first decision of "run B" would fire off
	// run A's tail — the corrupted-first-decisions bug.
	if _, ok := s.Decide(p); !ok {
		t.Fatal("stale policy should still fire immediately (this is the bug Reset fixes)")
	}
	// After Reset the policy is blind again for w rounds, like a fresh one.
	s.Reset()
	for i := 1; i <= w; i++ {
		if _, ok := s.Decide(p); ok {
			t.Fatalf("decision %d after Reset fired from stale history", i)
		}
	}
	if _, ok := s.Decide(p); !ok {
		t.Error("policy should fire once its own window refills on the flat trajectory")
	}
}

func TestHysteresisBandRearmsAndCoolsDown(t *testing.T) {
	p := newStub(t, SOS)
	hb := &HysteresisBand{Lo: 4, Hi: 100, Cooldown: 10}

	// Balanced SOS start: φ_local = 0 <= Lo fires the plateau switch.
	p.Step()
	if ev, ok := ApplyAdaptive(p, hb); !ok || ev.To != FOS || p.Kind() != FOS {
		t.Fatalf("balanced SOS round should switch to FOS, got %v ok=%v", ev, ok)
	}

	// A burst re-inflates φ_local past Hi, but the cooldown (10 rounds
	// since the switch at round 1) must block the re-arm until round 11.
	p.loads[0] += 100_000
	for p.Round() < 10 {
		p.Step()
		if _, ok := ApplyAdaptive(p, hb); ok {
			t.Fatalf("re-arm fired at round %d, inside the 10-round cooldown", p.Round())
		}
	}
	p.Step() // round 11
	ev, ok := ApplyAdaptive(p, hb)
	if !ok || ev.To != SOS || p.Kind() != SOS {
		t.Fatalf("post-cooldown burst round should re-arm SOS, got %v ok=%v", ev, ok)
	}
	if ev.Round != 11 {
		t.Errorf("re-arm at round %d, want 11", ev.Round)
	}

	// Inside the band nothing fires, in either direction.
	p.loads[0] = 100 + 50 // φ_local = 50, between Lo and Hi
	for i := 0; i < 30; i++ {
		p.Step()
		if _, ok := ApplyAdaptive(p, hb); ok {
			t.Fatalf("switch fired inside the hysteresis band at round %d", p.Round())
		}
	}

	// Back on the plateau (after cooldown) it returns to FOS.
	p.loads[0] = 100
	p.Step()
	if ev, ok := ApplyAdaptive(p, hb); !ok || ev.To != FOS {
		t.Fatalf("plateau after re-arm should switch back to FOS, got %v ok=%v", ev, ok)
	}

	// Reset clears the cooldown anchor: a fresh run can switch immediately.
	hb.Reset()
	fresh := newStub(t, SOS)
	fresh.Step()
	if _, ok := ApplyAdaptive(fresh, hb); !ok {
		t.Error("after Reset the band should fire on a fresh balanced run")
	}

	// An inverted band (Hi <= Lo) must never fire instead of thrashing the
	// scheme every round; PolicyFromSpec rejects it outright.
	inv := &HysteresisBand{Lo: 64, Hi: 16}
	p2 := newStub(t, SOS)
	for i := 0; i < 5; i++ {
		p2.Step()
		if _, ok := inv.Decide(p2); ok {
			t.Fatal("inverted hysteresis band fired")
		}
	}
}

// TestOneShotAdapterMatchesLegacyGating pins the one-shot gating the bare
// rules now carry themselves: a one-way rule fires only on a SOS process,
// so after the switch it is never consulted again and a pure FOS run never
// switches.
func TestOneShotAdapterMatchesLegacyGating(t *testing.T) {
	p := newStub(t, SOS)
	var rule AdaptivePolicy = SwitchAtRound{Round: 3}
	for p.Round() < 2 {
		p.Step()
		if _, ok := rule.Decide(p); ok {
			t.Fatalf("fired before its round at %d", p.Round())
		}
	}
	p.Step()
	if kind, ok := rule.Decide(p); !ok || kind != FOS {
		t.Fatal("should fire FOS at round 3")
	}
	p.SetKind(FOS)
	p.Step()
	if _, ok := rule.Decide(p); ok {
		t.Error("one-way rule fired on a FOS process")
	}
	// A FOS-only run never switches under a one-way rule.
	f := newStub(t, FOS)
	f.Step()
	f.Step()
	f.Step()
	if _, ok := (SwitchAtRound{Round: 1}).Decide(f); ok {
		t.Error("one-way rule fired on a pure FOS run")
	}
	if events := RunAdaptive(newStub(t, SOS), nil, 3); events != nil {
		t.Errorf("nil policy switched: %v", events)
	}
}

func TestPolicyFromSpecRoundTrip(t *testing.T) {
	// Name() is the canonical spec: it must re-parse to a policy with the
	// same name.
	for _, spec := range []string{
		"never", "at:2500", "local:16", "local:0.5",
		"stall:50:0.01", "adaptive:16:64:100", "adaptive:0:1:0",
	} {
		p1, err := PolicyFromSpec(spec)
		if err != nil {
			t.Fatalf("PolicyFromSpec(%q): %v", spec, err)
		}
		p2, err := PolicyFromSpec(p1.Name())
		if err != nil {
			t.Fatalf("re-parsing Name %q of %q: %v", p1.Name(), spec, err)
		}
		if p1.Name() != p2.Name() {
			t.Errorf("round trip %q -> %q -> %q", spec, p1.Name(), p2.Name())
		}
	}
	// The default-cooldown form canonicalizes to the explicit form.
	p, err := PolicyFromSpec("adaptive:16:64")
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "adaptive:16:64:50" {
		t.Errorf("default cooldown name = %q, want adaptive:16:64:50", p.Name())
	}
	// The empty spec is "no policy".
	if p, err := PolicyFromSpec(""); p != nil || err != nil {
		t.Errorf("empty spec = %v, %v; want nil, nil", p, err)
	}
}

func TestPolicyFromSpecErrors(t *testing.T) {
	for _, bad := range []string{
		"bogus:1",            // unknown kind
		"at",                 // missing round
		"at:0",               // rounds start at 1
		"at:-5",              // negative round
		"at:x",               // not a number
		"at:5:6",             // too many args
		"local",              // missing threshold
		"local:-1",           // negative threshold
		"local:NaN",          // NaN threshold
		"local:Inf",          // non-finite threshold (fires round 1 forever)
		"adaptive:16:Inf",    // non-finite band edge (can never re-arm)
		"stall:0:0.01",       // window < 1
		"stall:50:0",         // factor must be > 0
		"stall:50",           // missing factor
		"adaptive:16",        // missing hi
		"adaptive:64:16",     // lo >= hi
		"adaptive:16:16",     // degenerate band
		"adaptive:-1:16",     // negative lo
		"adaptive:16:64:-1",  // negative cooldown
		"adaptive:16:64:5:9", // too many args
		"never:1",            // never takes no args
	} {
		if _, err := PolicyFromSpec(bad); err == nil {
			t.Errorf("PolicyFromSpec(%q) should fail", bad)
		}
	}
}

// TestAdaptAndRunAdaptive pins the bare-loop ways to drive a policy:
// RunAdaptive under a one-way rule reproduces the hand-written SOS→FOS
// hybrid loop exactly, and ApplyAdaptive called from a RunUntil predicate
// (how a driver that only takes a predicate attaches a policy) reproduces
// RunAdaptive.
func TestAdaptAndRunAdaptive(t *testing.T) {
	op := torusOp(t, 6, 6)
	x0, err := metrics.PointLoad(36, 36_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	mk := func() *Discrete {
		p, err := NewDiscrete(Config{Op: op, Kind: SOS, Beta: 1.8}, RandomizedRounder{}, 2, x0)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	hand := mk()
	sw := -1
	for r := 0; r < 60; r++ {
		hand.Step()
		if sw < 0 && hand.Kind() == SOS && hand.Round() >= 25 {
			hand.SetKind(FOS)
			sw = hand.Round()
		}
	}
	adaptive := mk()
	events := RunAdaptive(adaptive, SwitchAtRound{Round: 25}, 60)
	if want := []SwitchEvent{{Round: sw, From: SOS, To: FOS}}; !reflect.DeepEqual(events, want) {
		t.Fatalf("RunAdaptive events = %v, want %v", events, want)
	}
	if !reflect.DeepEqual(hand.LoadsInt(), adaptive.LoadsInt()) {
		t.Error("RunAdaptive trajectory diverges from the hand-driven hybrid")
	}

	pred := mk()
	var predEvents []SwitchEvent
	RunUntil(pred, 60, func(p Process) bool {
		if ev, ok := ApplyAdaptive(p, SwitchAtRound{Round: 25}); ok {
			predEvents = append(predEvents, ev)
		}
		return false
	})
	if !reflect.DeepEqual(predEvents, events) {
		t.Errorf("ApplyAdaptive in a RunUntil predicate switches = %v, want %v", predEvents, events)
	}
	if !reflect.DeepEqual(pred.LoadsInt(), adaptive.LoadsInt()) {
		t.Error("ApplyAdaptive in a RunUntil predicate diverges from RunAdaptive")
	}
}

// TestParallelStepMatchesSequential pins that per-step parallelism does not
// change a single token: 64x64 = 4096 nodes sits exactly at the parallelFor
// fan-out threshold, so Workers>1 genuinely takes the goroutine path — this
// is also the test the race pass leans on for internal/core.
func TestParallelStepMatchesSequential(t *testing.T) {
	old := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(old)
	op := torusOp(t, 64, 64)
	n := 4096
	x0, err := metrics.PointLoad(n, int64(n)*1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) []int64 {
		proc, err := NewDiscrete(Config{Op: op, Kind: SOS, Beta: 1.9, Workers: workers},
			RandomizedRounder{}, 11, x0)
		if err != nil {
			t.Fatal(err)
		}
		Run(proc, 25)
		return append([]int64(nil), proc.LoadsInt()...)
	}
	seq := run(1)
	for _, workers := range []int{2, 4, 8} {
		if got := run(workers); !reflect.DeepEqual(got, seq) {
			t.Fatalf("Workers=%d loads diverge from sequential", workers)
		}
	}
}
