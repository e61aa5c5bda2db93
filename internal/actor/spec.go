package actor

import (
	"errors"
	"fmt"

	"diffusionlb/internal/spec"
)

// ErrBadSpec reports a malformed actor runtime spec.
var ErrBadSpec = errors.New("actor: invalid spec")

// Options configures the actor runtime: the actor count (the shard
// partition — the deployment topology) and the bounded-staleness window.
type Options struct {
	// Actors is the number of shard actors K ≥ 1. 1 runs inline with no
	// goroutines or channels.
	Actors int
	// Stale is the staleness bound S ≥ 0: a link's boundary state may lag
	// up to S rounds behind its sender. 0 is barrier mode, bit-identical
	// to the shared-memory engine.
	Stale int
}

// FromSpec parses an actor runtime spec:
//
//	actor:K           barrier mode with K actors
//	actor:K,stale=S   bounded staleness S (stale=0 is barrier mode)
//
// The grammar is the -runtime flag of cmd/lbsim and the runtimes axis of
// sweep.Spec; an empty runtime spec there means the shared-memory engine
// and is the caller's case to handle, not this parser's.
func FromSpec(s string) (Options, error) {
	r := spec.Keyed(ErrBadSpec, s)
	r.Check(r.Kind() == "actor", "want actor:K[,stale=S]")
	o := Options{Actors: r.Int(1), Stale: r.KeyInt("stale", 0)}
	r.Check(o.Actors >= 1, "actor count must be >= 1")
	r.Check(o.Stale >= 0, "staleness must be >= 0")
	if err := r.Err(); err != nil {
		return Options{}, err
	}
	return o, nil
}

// Name returns the canonical spec the options round-trip through:
// "actor:K" in barrier mode, "actor:K,stale=S" otherwise.
func (o Options) Name() string {
	if o.Stale > 0 {
		return fmt.Sprintf("actor:%d,stale=%d", o.Actors, o.Stale)
	}
	return fmt.Sprintf("actor:%d", o.Actors)
}
