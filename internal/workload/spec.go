package workload

import (
	"errors"
	"fmt"

	"diffusionlb/internal/randx"
	"diffusionlb/internal/spec"
)

// ErrBadSpec reports a malformed workload spec.
var ErrBadSpec = errors.New("workload: invalid spec")

// FromSpec builds a Mutator from a compact textual spec, the syntax shared
// by the lbsim CLI and the sweep engine:
//
//	burst:ROUND:AMOUNT[:NODE]       one-shot hotspot (default node 0)
//	hotspot:PERIOD:AMOUNT[:NODE]    recurring burst every PERIOD rounds;
//	                                without NODE each burst hits a node
//	                                drawn from the (seed, round) stream
//	poisson:RATE[:UNTIL]            Poisson(RATE) arrivals at every node
//	                                each round (UNTIL > 0 stops them)
//	churn:PERIOD:ARRIVE:DEPART[:UNTIL]
//	                                batch arrivals/departures at random
//	                                nodes every PERIOD rounds
//	adversary:AMOUNT[:TOP]          AMOUNT tokens per round onto the TOP
//	                                most-loaded nodes (default 1)
//
// Parts joined with "+" compose: "burst:100:50000+poisson:0.5". The empty
// spec means no workload and returns (nil, nil). n is the node count
// (bounds-checks fixed nodes); seed is the master seed the mutator's
// counter streams derive from, with each composed part salted by its
// position so parts stay statistically independent.
func FromSpec(s string, n int, seed uint64) (Mutator, error) {
	if s == "" {
		return nil, nil
	}
	if n <= 0 {
		return nil, fmt.Errorf("%w: %d nodes", ErrBadSpec, n)
	}
	muts, err := spec.Split(ErrBadSpec, s, false, func(part string, i int) (Mutator, error) {
		return fromOneSpec(part, n, randx.Mix(seed, uint64(i)))
	})
	if err != nil {
		return nil, err
	}
	if len(muts) == 1 {
		return muts[0], nil
	}
	return Compose(muts), nil
}

// ValidateSpec reports whether s parses, without needing the real node
// count (sweep validation runs before graphs are built). Node indices are
// only checked for well-formedness here; the real bounds check happens when
// the cell builds its mutator against the actual graph.
func ValidateSpec(s string) error {
	_, err := FromSpec(s, 1<<31-1, 0)
	return err
}

// fromOneSpec parses a single "+"-free part.
func fromOneSpec(part string, n int, seed uint64) (Mutator, error) {
	r := spec.Positional(ErrBadSpec, part)
	var m Mutator
	switch r.Kind() {
	case "burst":
		round, amount, node := r.Int(1), r.Int(2), r.OptInt(3, 0)
		r.Check(round >= 1, "burst round must be >= 1")
		r.Check(amount >= 0, "amount must be >= 0 (departures are churn's job, which never drives a node below zero)")
		r.Check(node >= 0 && node < n, "node %d outside [0,%d)", node, n)
		m = NewBurst(round, node, int64(amount))
	case "hotspot":
		period, amount, node := r.Int(1), r.Int(2), r.OptInt(3, -1)
		r.Check(period >= 1, "hotspot period must be >= 1")
		r.Check(amount >= 0, "amount must be >= 0")
		// Omitting NODE means "draw a node per burst"; an explicit negative
		// is a typo, not a request for that mode.
		r.Check(r.Len() < 3 || (node >= 0 && node < n), "node %d outside [0,%d)", node, n)
		m = NewHotspot(period, int64(amount), node, seed)
	case "poisson":
		rate, until := r.Float(1), r.OptInt(2, 0)
		// The sampler is O(rate) per node per round, so an absurd rate is a
		// hang, not a simulation; 1e4 tokens/node/round is far beyond any
		// sensible scenario.
		r.Check(rate >= 0 && rate <= 1e4, "rate must be a float in [0, 10000]")
		r.Check(until >= 0, "until must be >= 0 (0 = never stop)")
		m = NewPoisson(rate, until, seed)
	case "churn":
		period, arrive, depart, until := r.Int(1), r.Int(2), r.Int(3), r.OptInt(4, 0)
		r.Check(period >= 1, "churn period must be >= 1")
		r.Check(arrive >= 0 && depart >= 0, "arrive/depart must be >= 0")
		r.Check(until >= 0, "until must be >= 0 (0 = never stop)")
		m = NewChurn(period, int64(arrive), int64(depart), until, seed)
	case "adversary":
		amount, top := r.Int(1), r.OptInt(2, 1)
		r.Check(amount >= 0, "amount must be >= 0")
		r.Check(top >= 1, "top must be >= 1")
		m = NewAdversary(int64(amount), top)
	default:
		r.Fail("unknown kind (burst|hotspot|poisson|churn|adversary)")
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return m, nil
}
