package scenario

import (
	"errors"
	"fmt"

	"diffusionlb/internal/envdyn"
	"diffusionlb/internal/nodeset"
	"diffusionlb/internal/randx"
	"diffusionlb/internal/spec"
)

// ErrBadSpec reports a malformed scenario spec.
var ErrBadSpec = errors.New("scenario: invalid spec")

// FromSpec builds a Scenario from a compact textual spec, the syntax shared
// by the lbsim CLI and the sweep engine. Like the environment family it is
// key=value (the events have too many optional knobs for positions):
//
//	drain:at=R,frac=F[,ramp=W][,restore=R2[,rramp=W2]][,sel=fast|slow|random]
//	    migration-on-leave: the selected F·n nodes ramp their speed to the
//	    floor of 1 over W rounds from round R *and* shed their load to
//	    their non-draining neighbors on the same schedule; restore=R2 ramps
//	    the speed back over W2 rounds while the nodes pull load back toward
//	    their neighbors' mean
//	correlated:at=R,frac=F,factor=X,load=L[,until=U][,sel=...]
//	    a throttle (speed × X from round R, optionally until U) and an
//	    L-token burst aimed at the same node set in round R
//	cascade:at=R,waves=K,gap=G,frac=F,factor=X[,load=L][,dur=D][,jitter=J][,sel=...]
//	    K chained correlated events, wave w starting at R + w·G plus a
//	    jitter drawn from the (seed, w) counter stream in [0, J]; each
//	    wave's throttle lasts D rounds (0 = forever) and selects its own
//	    node set (default random — a rolling failure)
//
// Parts joined with "+" form a Timeline, and "compose(...)" is an accepted
// wrapper around a "+"-joined list. The empty spec means no scenario and
// returns (nil, nil). n is the node count (must be positive); seed is the
// master seed the selection and jitter streams derive from, with each
// composed part salted by its position.
func FromSpec(s string, n int, seed uint64) (*Scenario, error) {
	if s == "" {
		return nil, nil
	}
	if n <= 0 {
		return nil, fmt.Errorf("%w: %d nodes", ErrBadSpec, n)
	}
	events, err := spec.Split(ErrBadSpec, s, true, func(part string, i int) (Event, error) {
		return fromOneSpec(part, randx.Mix(seed, uint64(i)))
	})
	if err != nil {
		return nil, err
	}
	return New(events...), nil
}

// ValidateSpec reports whether s parses, without needing the real node
// count (sweep validation runs before graphs are built).
func ValidateSpec(s string) error {
	_, err := FromSpec(s, 1<<31-1, 0)
	return err
}

// fromOneSpec parses a single "+"-free event.
func fromOneSpec(part string, seed uint64) (Event, error) {
	r := spec.Keyed(ErrBadSpec, part)
	var e Event
	switch r.Kind() {
	case "drain":
		// The scenario drain takes exactly the envdyn drain's parameters:
		// read through the shared helper so the two grammars cannot
		// silently diverge.
		ed := envdyn.ReadDrain(r, seed)
		e = &Drain{At: ed.At, Ramp: ed.Ramp, Restore: ed.Restore, RestoreRamp: ed.RestoreRamp,
			Frac: ed.Frac, Sel: ed.Sel, Seed: ed.Seed}
	case "correlated":
		r.Require("at", "frac", "factor", "load")
		c := &Correlated{At: r.KeyInt("at", 0), Until: r.KeyInt("until", 0), Frac: r.KeyFloat("frac", 0),
			Factor: r.KeyFloat("factor", 0), Load: int64(r.KeyInt("load", 0)), Sel: r.Sel(nodeset.Fast), Seed: seed}
		r.Check(c.At >= 1, "at must be >= 1")
		r.Check(c.Until == 0 || c.Until > c.At, "until must exceed at")
		r.Check(c.Frac > 0 && c.Frac <= 1, "frac must be in (0, 1]")
		r.Check(c.Factor > 0, "factor must be > 0")
		r.Check(c.Load >= 0, "load must be >= 0")
		e = c
	case "cascade":
		r.Require("at", "waves", "gap", "frac", "factor")
		c := &Cascade{At: r.KeyInt("at", 0), Waves: r.KeyInt("waves", 0), Gap: r.KeyInt("gap", 0),
			Jitter: r.KeyInt("jitter", 0), Frac: r.KeyFloat("frac", 0), Factor: r.KeyFloat("factor", 0),
			Load: int64(r.KeyInt("load", 0)), Dur: r.KeyInt("dur", 0), Sel: r.Sel(nodeset.Random), Seed: seed}
		r.Check(c.At >= 1, "at must be >= 1")
		r.Check(c.Waves >= 1, "waves must be >= 1")
		r.Check(c.Gap >= 1, "gap must be >= 1")
		r.Check(c.Jitter >= 0, "jitter must be >= 0")
		r.Check(c.Frac > 0 && c.Frac <= 1, "frac must be in (0, 1]")
		r.Check(c.Factor > 0, "factor must be > 0")
		r.Check(c.Load >= 0, "load must be >= 0")
		r.Check(c.Dur >= 0, "dur must be >= 0 (0 = forever)")
		e = c
	default:
		r.Fail("unknown kind (drain|correlated|cascade)")
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return e, nil
}
