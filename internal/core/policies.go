package core

import (
	"errors"
	"fmt"

	"diffusionlb/internal/metrics"
	"diffusionlb/internal/spec"
)

// AdaptivePolicy decides, after every completed round, which scheme a
// hybrid run uses next. The paper (Section VI-A) observes that discrete SOS
// stalls at a small constant imbalance and proposes switching to FOS once
// that plateau is reached; it also notes that the maximum local load
// difference is a good switching signal because it is locally computable.
// SwitchAtRound, SwitchOnLocalDiff, SwitchOnPotentialStall and NeverSwitch
// are those one-way rules: each fires SOS→FOS at most once. HysteresisBand
// also re-arms SOS (FOS→SOS) when a workload burst re-inflates the signal,
// any number of times: the SOS scheme's speedup comes from its flow memory
// (the second-order iteration of Muthukrishnan–Ghosh–Schultz), so a burst
// detected after the switch should restart SOS rather than limp home at
// FOS pace.
//
// Policies may keep state across rounds; stateful policies implement
// Reset() — see ResetPolicy.
type AdaptivePolicy interface {
	// Decide returns the scheme kind the process should run from the next
	// round on, and whether to switch now. (_, false) keeps the current
	// kind. Decide is called after every completed round (after any
	// external workload injection, so controllers see post-burst loads).
	Decide(p Process) (Kind, bool)
	// Name identifies the policy in reports, in the PolicyFromSpec
	// spelling; for parser-constructed policies it round-trips through
	// PolicyFromSpec (hand-constructed values may use parameters the
	// parser rejects, e.g. a zero stall factor).
	Name() string
}

// SwitchEvent records one scheme switch of a hybrid run.
type SwitchEvent struct {
	// Round is the completed round after which the switch happened; the
	// new kind applies from the next round on.
	Round int `json:"round"`
	// From and To are the scheme kinds on either side of the switch.
	From Kind `json:"from"`
	To   Kind `json:"to"`
}

// String renders the event compactly, e.g. "150:SOS->FOS".
func (e SwitchEvent) String() string {
	return fmt.Sprintf("%d:%s->%s", e.Round, e.From, e.To)
}

// localDiff samples the speed-normalized φ_local = max |x_u/s_u − x_v/s_v|
// across an edge, the locally-computable switching signal the policies
// below share. Normalizing by speeds matters in the heterogeneous model:
// raw cross-edge load differences stay large even at the speed-proportional
// ideal, while the normalized gradient — the quantity that actually drives
// flows — goes to zero there, so thresholds keep one meaning for every
// speed profile (and the homogeneous case is unchanged). Reading speeds
// through the operator also means a mid-run Reweight moves the signal the
// same round, which is what lets a hysteresis controller detect a throttle
// event.
func localDiff(p Process) float64 {
	g := p.Operator().Graph()
	sp := p.Operator().Speeds()
	lv := p.Loads()
	if lv.Int != nil {
		return metrics.HeteroMaxLocalDiff(g, lv.Int, sp)
	}
	return metrics.HeteroMaxLocalDiff(g, lv.Float, sp)
}

// sosToFOS is the gate the one-way rules share: the rule is asked only
// while p runs SOS, and FOS is requested when it holds. A rule is never
// consulted on a FOS round, so it cannot fire twice unless something else
// re-arms SOS, and a stateful rule only ever sees SOS rounds.
func sosToFOS(p Process, fires func(Process) bool) (Kind, bool) {
	if p.Kind() != SOS || !fires(p) {
		return 0, false
	}
	return FOS, true
}

// SwitchAtRound switches SOS→FOS unconditionally after a fixed number of
// completed rounds (the paper's Figures 4/5/8 use 2500/3000 and 300..900).
type SwitchAtRound struct{ Round int }

// Decide implements AdaptivePolicy.
func (s SwitchAtRound) Decide(p Process) (Kind, bool) {
	return sosToFOS(p, func(p Process) bool { return p.Round() >= s.Round })
}

// Name implements AdaptivePolicy.
func (s SwitchAtRound) Name() string { return spec.Name("at", s.Round) }

// SwitchOnLocalDiff switches SOS→FOS once the maximum local load difference
// drops to Threshold or below — the locally-computable signal the paper
// recommends for distributed deployments.
type SwitchOnLocalDiff struct{ Threshold float64 }

// Decide implements AdaptivePolicy.
func (s SwitchOnLocalDiff) Decide(p Process) (Kind, bool) {
	return sosToFOS(p, func(p Process) bool { return localDiff(p) <= s.Threshold })
}

// Name implements AdaptivePolicy.
func (s SwitchOnLocalDiff) Name() string { return spec.Name("local", s.Threshold) }

// SwitchOnPotentialStall switches SOS→FOS when the 2-norm potential has
// improved by less than Factor (e.g. 0.01 = 1%) over the last Window SOS
// rounds — the "end of the exponential decay phase" signal visible in
// Figure 1.
//
// The policy keeps a bounded ring of the last Window+1 potential samples
// (memory is O(Window), not O(rounds)), taken on SOS rounds only. A value
// is tied to one trajectory: call Reset (or build a fresh policy) before
// reusing it for another run, or its first Window decisions are corrupted
// by the previous run's tail.
type SwitchOnPotentialStall struct {
	Window int
	Factor float64

	ring  []float64 // last Window+1 samples, oldest at head once full
	head  int
	count int
}

// window resolves the default Window.
func (s *SwitchOnPotentialStall) window() int {
	if s.Window <= 0 {
		return 50
	}
	return s.Window
}

// Reset discards the sample history so the value can start a fresh run.
func (s *SwitchOnPotentialStall) Reset() { s.head, s.count = 0, 0 }

// Decide implements AdaptivePolicy.
func (s *SwitchOnPotentialStall) Decide(p Process) (Kind, bool) { return sosToFOS(p, s.stalled) }

// stalled records p's potential in the ring and reports whether it
// improved by less than Factor since the sample Window rounds ago.
func (s *SwitchOnPotentialStall) stalled(p Process) bool {
	lv := p.Loads()
	var phi float64
	if lv.Int != nil {
		phi = metrics.Potential(lv.Int, p.Operator().Speeds())
	} else {
		phi = metrics.Potential(lv.Float, p.Operator().Speeds())
	}
	w := s.window()
	if len(s.ring) != w+1 {
		// First use, or Window changed mid-run (which discards history).
		s.ring = make([]float64, w+1)
		s.Reset()
	}
	s.ring[s.head] = phi
	s.head = (s.head + 1) % len(s.ring)
	if s.count < len(s.ring) {
		s.count++
	}
	if s.count <= w {
		return false
	}
	old := s.ring[s.head] // oldest of the stored samples: w rounds ago
	if old <= 0 {
		return true
	}
	improvement := (old - phi) / old
	return improvement < s.Factor
}

// Name implements AdaptivePolicy.
func (s *SwitchOnPotentialStall) Name() string {
	return spec.Name("stall", s.window(), s.Factor)
}

// NeverSwitch is the identity policy (pure SOS or pure FOS run).
type NeverSwitch struct{}

// Decide implements AdaptivePolicy.
func (NeverSwitch) Decide(Process) (Kind, bool) { return 0, false }

// Name implements AdaptivePolicy.
func (NeverSwitch) Name() string { return "never" }

// HysteresisBand is the re-arming adaptive controller: it switches to FOS
// when φ_local (the max local load difference) drops to Lo or below — the
// paper's plateau signal — and re-arms SOS when φ_local climbs back to Hi
// or above, e.g. after a workload burst. The band Lo < Hi plus the Cooldown
// (a minimum number of rounds between consecutive switches) prevents
// thrashing when φ_local hovers near a threshold.
//
// φ_local is locally computable (a max over edges), so the controller is
// implementable in a distributed deployment, like the paper's switch
// signal. The zero Cooldown is valid (no rate limit). A value carries the
// round of its last switch; call Reset (or build a fresh policy, e.g. via
// PolicyFromSpec) before reusing it for another run.
type HysteresisBand struct {
	// Lo is the switch-to-FOS threshold: φ_local <= Lo on an SOS round
	// fires the plateau switch.
	Lo float64
	// Hi is the re-arm threshold: φ_local >= Hi on an FOS round restarts
	// SOS. Must exceed Lo.
	Hi float64
	// Cooldown is the minimum number of rounds between two switches.
	Cooldown int

	lastSwitch int // 1 + round of the last switch; 0 = never switched
}

// Reset clears the cooldown anchor so the value can start a fresh run.
func (h *HysteresisBand) Reset() { h.lastSwitch = 0 }

// Decide implements AdaptivePolicy.
func (h *HysteresisBand) Decide(p Process) (Kind, bool) {
	// An inverted or degenerate band (Hi <= Lo) would fire both directions
	// on consecutive rounds and thrash the scheme; PolicyFromSpec rejects
	// it, and a hand-constructed one never fires rather than oscillating.
	if h.Hi <= h.Lo {
		return 0, false
	}
	if h.lastSwitch > 0 && p.Round()-(h.lastSwitch-1) < h.Cooldown {
		return 0, false
	}
	phi := localDiff(p)
	switch p.Kind() {
	case SOS:
		if phi <= h.Lo {
			h.lastSwitch = p.Round() + 1
			return FOS, true
		}
	case FOS:
		if phi >= h.Hi {
			h.lastSwitch = p.Round() + 1
			return SOS, true
		}
	}
	return 0, false
}

// Name implements AdaptivePolicy.
func (h *HysteresisBand) Name() string {
	return spec.Name("adaptive", h.Lo, h.Hi, h.Cooldown)
}

// ResetPolicy clears any per-run state the policy value carries (stall
// history, hysteresis cooldown anchor), making it safe to reuse for a
// fresh run. Stateless policies and nil are no-ops. Callers that cannot
// reset (shared values) should build fresh policies instead, e.g. via
// PolicyFromSpec — that is what sweep cells do.
func ResetPolicy(policy any) {
	if r, ok := policy.(interface{ Reset() }); ok {
		r.Reset()
	}
}

// ErrBadPolicySpec reports a malformed switch-policy spec.
var ErrBadPolicySpec = errors.New("core: invalid policy spec")

// PolicyFromSpec builds a fresh AdaptivePolicy from a compact textual
// spec, the syntax shared by the lbsim CLI and the sweep engine (mirroring
// workload.FromSpec):
//
//	at:ROUND              switch SOS→FOS after a fixed round
//	local:THRESHOLD       switch SOS→FOS once φ_local <= THRESHOLD
//	stall:WINDOW:FACTOR   switch SOS→FOS when the potential improved by
//	                      less than FACTOR over the last WINDOW rounds
//	adaptive:LO:HI[:COOLDOWN]
//	                      re-arming hysteresis band: →FOS at φ_local <= LO,
//	                      back →SOS at φ_local >= HI, at most one switch
//	                      per COOLDOWN rounds (default 50)
//	never                 never switch
//
// The empty spec means no policy and returns (nil, nil). Every call
// returns a fresh value, so stateful policies never leak history between
// runs; Name() of the result is the canonical spec and re-parses.
func PolicyFromSpec(s string) (AdaptivePolicy, error) {
	if s == "" {
		return nil, nil
	}
	r := spec.Positional(ErrBadPolicySpec, s)
	var p AdaptivePolicy
	switch r.Kind() {
	case "never":
		p = NeverSwitch{}
	case "at":
		round := r.Int(1)
		r.Check(round >= 1, "switch round must be >= 1")
		p = SwitchAtRound{Round: round}
	case "local":
		thr := r.Float(1)
		r.Check(thr >= 0, "threshold must be >= 0")
		p = SwitchOnLocalDiff{Threshold: thr}
	case "stall":
		window, factor := r.Int(1), r.Float(2)
		r.Check(window >= 1, "window must be >= 1")
		r.Check(factor > 0, "factor must be > 0")
		p = &SwitchOnPotentialStall{Window: window, Factor: factor}
	case "adaptive":
		lo, hi, cooldown := r.Float(1), r.Float(2), r.OptInt(3, 50)
		r.Check(lo >= 0, "lo must be >= 0")
		r.Check(hi > lo, "hi must exceed lo (hysteresis band)")
		r.Check(cooldown >= 0, "cooldown must be >= 0")
		p = &HysteresisBand{Lo: lo, Hi: hi, Cooldown: cooldown}
	default:
		r.Fail("unknown kind (at|local|stall|adaptive|never)")
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return p, nil
}

// ApplyAdaptive evaluates the policy against p and actuates the switch it
// requests, reporting the event. A request for the current kind is a no-op.
func ApplyAdaptive(p Process, policy AdaptivePolicy) (SwitchEvent, bool) {
	kind, ok := policy.Decide(p)
	if !ok || kind == p.Kind() {
		return SwitchEvent{}, false
	}
	from := p.Kind()
	p.SetKind(kind)
	return SwitchEvent{Round: p.Round(), From: from, To: kind}, true
}

// RunAdaptive drives p for maxRounds rounds under a policy and returns the
// switch history (nil if the policy never fired). Under one of the one-way
// rules this is the paper's SOS→FOS hybrid, with at most one event. A nil
// policy never switches.
func RunAdaptive(p Process, policy AdaptivePolicy, maxRounds int) []SwitchEvent {
	var events []SwitchEvent
	for r := 0; r < maxRounds; r++ {
		p.Step()
		if policy == nil {
			continue
		}
		if ev, ok := ApplyAdaptive(p, policy); ok {
			events = append(events, ev)
		}
	}
	return events
}

// Run drives p for rounds rounds.
func Run(p Process, rounds int) {
	for r := 0; r < rounds; r++ {
		p.Step()
	}
}

// RunUntil drives p until pred returns true or maxRounds is reached,
// returning the number of rounds executed and whether pred fired.
func RunUntil(p Process, maxRounds int, pred func(Process) bool) (rounds int, ok bool) {
	for r := 0; r < maxRounds; r++ {
		p.Step()
		if pred(p) {
			return r + 1, true
		}
	}
	return maxRounds, false
}

// ConvergedWithin returns a predicate that fires when the discrepancy
// (max − min load) is at most eps — a convenient RunUntil condition.
func ConvergedWithin(eps float64) func(Process) bool {
	return func(p Process) bool {
		lv := p.Loads()
		if lv.Int != nil {
			return metrics.Discrepancy(lv.Int) <= eps
		}
		return metrics.Discrepancy(lv.Float) <= eps
	}
}

// ProportionallyConvergedWithin is the heterogeneous analogue: fires when
// the speed-normalized discrepancy max x_i/s_i − min x_i/s_i is at most eps.
func ProportionallyConvergedWithin(eps float64) func(Process) bool {
	return func(p Process) bool {
		sp := p.Operator().Speeds()
		lv := p.Loads()
		if lv.Int != nil {
			return metrics.HeteroNormalizedDiscrepancy(lv.Int, sp) <= eps
		}
		return metrics.HeteroNormalizedDiscrepancy(lv.Float, sp) <= eps
	}
}
