package actor

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
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
func FromSpec(spec string) (Options, error) {
	bad := func(format string, args ...any) (Options, error) {
		return Options{}, fmt.Errorf("%w: %q: %s", ErrBadSpec, spec, fmt.Sprintf(format, args...))
	}
	rest, ok := strings.CutPrefix(spec, "actor:")
	if !ok {
		return bad("want actor:K[,stale=S]")
	}
	kStr, tail, hasTail := strings.Cut(rest, ",")
	k, err := strconv.Atoi(kStr)
	if err != nil || k < 1 {
		return bad("actor count %q must be an integer >= 1", kStr)
	}
	o := Options{Actors: k}
	if hasTail {
		sStr, ok := strings.CutPrefix(tail, "stale=")
		if !ok {
			return bad("unknown option %q, want stale=S", tail)
		}
		s, err := strconv.Atoi(sStr)
		if err != nil || s < 0 {
			return bad("staleness %q must be an integer >= 0", sStr)
		}
		o.Stale = s
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
