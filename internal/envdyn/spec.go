package envdyn

import (
	"errors"
	"fmt"

	"diffusionlb/internal/randx"
	"diffusionlb/internal/spec"
)

// ErrBadSpec reports a malformed environment spec.
var ErrBadSpec = errors.New("envdyn: invalid spec")

// FromSpec builds a Dynamics from a compact textual spec, the syntax shared
// by the lbsim CLI and the sweep engine. Unlike the positional grammars of
// the other spec families, environment components take key=value arguments
// (they have too many optional knobs for positions to stay readable):
//
//	throttle:at=R,frac=F,factor=X[,until=U][,sel=fast|slow|random]
//	    from round R on, the selected F·n nodes run at X times their base
//	    speed (X in (0, 1]); until=U restores them at round U
//	throttle:every=P,dur=D,frac=F,factor=X[,sel=...]
//	    recurring: active during the first D rounds of every P-round period
//	boost:...
//	    same keys as throttle with factor >= 1 (speed-up events)
//	drain:at=R,frac=F[,ramp=T][,restore=R2[,rramp=T2]][,sel=...]
//	    ramp the selected nodes' speed to the floor of 1 over T rounds from
//	    round R (a leave proxy); restore=R2 ramps back up over T2 rounds (a
//	    join proxy)
//	jitter:sigma=S[,cap=C][,frac=F][,sel=...]
//	    bounded random-walk speed drift exp(S·w_i(t)), multiplier clamped
//	    to [1/C, C] (default C=4); default selection is every node
//
// Parts joined with "+" compose multiplicatively, and "compose(...)" is an
// accepted wrapper around a "+"-joined list:
// "throttle:at=100,frac=0.25,factor=0.25+jitter:sigma=0.05". The empty spec
// means a static environment and returns (nil, nil). n is the node count
// (must be positive); seed is the master seed the selection and jitter
// streams derive from, with each composed part salted by its position.
//
// The selection fraction resolves to max(1, round(F·n)) nodes; sel=fast
// (the default for throttle/boost/drain) targets the highest base speeds
// with ties broken toward the lowest index.
func FromSpec(s string, n int, seed uint64) (Dynamics, error) {
	if s == "" {
		return nil, nil
	}
	if n <= 0 {
		return nil, fmt.Errorf("%w: %d nodes", ErrBadSpec, n)
	}
	dyns, err := spec.Split(ErrBadSpec, s, true, func(part string, i int) (Dynamics, error) {
		return fromOneSpec(part, randx.Mix(seed, uint64(i)))
	})
	if err != nil {
		return nil, err
	}
	if len(dyns) == 1 {
		return dyns[0], nil
	}
	return Compose(dyns), nil
}

// ValidateSpec reports whether s parses, without needing the real node
// count (sweep validation runs before graphs are built).
func ValidateSpec(s string) error {
	_, err := FromSpec(s, 1<<31-1, 0)
	return err
}

// ReadDrain reads and checks the drain component's key=value arguments
// into a Drain, recording any failure in r. It is exported because the
// scenario grammar's drain event takes the exact same parameters:
// internal/scenario reads through this helper, so the -env and -scenario
// drain grammars cannot silently diverge.
func ReadDrain(r *spec.Reader, seed uint64) *Drain {
	r.Require("at", "frac")
	d := &Drain{At: r.KeyInt("at", 0), Ramp: r.KeyInt("ramp", 1), Restore: r.KeyInt("restore", 0),
		RestoreRamp: r.KeyInt("rramp", 1), Frac: r.KeyFloat("frac", 0), Sel: r.Sel(SelFast), Seed: seed}
	r.Check(d.At >= 1, "at must be >= 1")
	r.Check(d.Ramp >= 1, "ramp must be >= 1")
	r.Check(d.Frac > 0 && d.Frac <= 1, "frac must be in (0, 1]")
	r.Check(r.Has("restore") || !r.Has("rramp"), "rramp needs restore")
	if r.Has("restore") {
		r.Check(d.Restore >= d.At+d.Ramp, "restore must be >= at+ramp (drain completes first)")
		r.Check(d.RestoreRamp >= 1, "rramp must be >= 1")
	}
	return d
}

// fromOneSpec parses a single "+"-free component.
func fromOneSpec(part string, seed uint64) (Dynamics, error) {
	r := spec.Keyed(ErrBadSpec, part)
	var d Dynamics
	switch kind := r.Kind(); kind {
	case "throttle", "boost":
		r.Require("frac", "factor")
		t := &Throttle{At: r.KeyInt("at", 0), Until: r.KeyInt("until", 0), Every: r.KeyInt("every", 0),
			Dur: r.KeyInt("dur", 0), Frac: r.KeyFloat("frac", 0), Factor: r.KeyFloat("factor", 0),
			Sel: r.Sel(SelFast), Boost: kind == "boost", Seed: seed}
		switch {
		case r.Has("at") && r.Has("every"):
			r.Fail("set either at=... (one-shot) or every=...,dur=... (recurring), not both")
		case r.Has("every"):
			r.Check(t.Every >= 1, "every must be >= 1")
			r.Check(r.Has("dur") && t.Dur >= 1 && t.Dur <= t.Every, "recurring mode needs dur in [1, every]")
			r.Check(!r.Has("until"), "until only applies to one-shot mode")
		case r.Has("at"):
			r.Check(t.At >= 1, "at must be >= 1")
			r.Check(!r.Has("dur"), "dur only applies to recurring mode")
			r.Check(t.Until == 0 || t.Until > t.At, "until must exceed at")
		default:
			r.Fail("missing schedule: at=... or every=...,dur=...")
		}
		r.Check(t.Frac > 0 && t.Frac <= 1, "frac must be in (0, 1]")
		r.Check(t.Factor > 0, "factor must be > 0")
		r.Check(t.Boost || t.Factor <= 1, "throttle factor must be <= 1 (use boost for speed-ups)")
		r.Check(!t.Boost || t.Factor >= 1, "boost factor must be >= 1 (use throttle for slow-downs)")
		d = t
	case "drain":
		d = ReadDrain(r, seed)
	case "jitter":
		r.Require("sigma")
		j := &Jitter{Sigma: r.KeyFloat("sigma", 0), Cap: r.KeyFloat("cap", 4), Frac: r.KeyFloat("frac", 1),
			Sel: r.Sel(SelRandom), Seed: seed}
		r.Check(j.Sigma > 0 && j.Sigma <= 2, "sigma must be in (0, 2]")
		r.Check(j.Cap > 1 && j.Cap <= 1e6, "cap must be in (1, 1e6]")
		r.Check(j.Frac > 0 && j.Frac <= 1, "frac must be in (0, 1]")
		d = j
	default:
		r.Fail("unknown kind (throttle|boost|drain|jitter)")
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return d, nil
}
