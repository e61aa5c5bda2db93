// Package actor is the message-passing shard-actor runtime: each shard of
// a shard.Layout partition becomes an actor that owns its contiguous node
// and arc ranges, and neighboring actors exchange per-round boundary
// messages over channels instead of reading each other's state — the
// architectural step from the lockstep shared-memory simulator toward the
// paper's distributed setting, where nodes exchange load over edges
// (ICDCS'15, Section II). A message's payload is a version row its sender
// wrote on the link; the receiver reads the row in place.
//
// The actors run core.Discrete's own kernel. The runtime builds a
// core.Discrete on its partition through core.NewHalo, and per logical
// round every actor steps the engine's three passes on its own shard,
// with explicit communication at the two points where the lockstep engine
// reads across shard boundaries:
//
//  1. normalize its own loads z_i = x_i/s_i, write the boundary z values
//     its neighbors' gradients need into each outgoing link's version row
//     and send one zMsg per outgoing link; receive one per incoming link
//     and copy the selected version, read from the sender's row, into the
//     link's ghost slots of z;
//  2. zero its cut arcs, compute and round its own scheduled flows Ŷ
//     (remote heads read from the ghost slots), write the tokens sent on
//     each outgoing link's cut arcs into its flux row and send one fluxMsg
//     per outgoing link, and receive incoming flux, read from the
//     sender's rows, as a per-node credit;
//  3. apply: debit sent tokens, add the credit, record the transient and
//     end-of-round minima and traffic counts in the shard's reduction
//     slot, then subtract the credited tokens from the cut arcs, so a cut
//     arc's SOS memory is what it sent minus what it was credited.
//
// Sender-decides semantics: each node rounds only its positive scheduled
// flows and the receiver credits tokens on receipt. Exact IEEE
// antisymmetry of the scheduled flows makes arc ownership unique in
// barrier mode, so the runtime is bit-identical to core.Discrete for every
// actor count — pinned against the golden dynamics timeline by the
// equivalence tests.
//
// Modes. With Options.Stale == 0 (barrier) every message is consumed in
// the round it was produced: a logical round barrier, bit-identical to the
// fused Layout.Run kernels. With Stale == S > 0 (bounded staleness) each
// link draws a deterministic lag L ∈ {0..S} per round from the master seed
// (randx.Mix — a seeded counter stream, never wall-clock races), and the
// receiving actor uses z version t−L and applies flux through version t−L:
// an actor effectively runs up to S rounds ahead of its slowest neighbor,
// applying the freshest boundary state it has. Tokens debited from a
// sender but not yet credited are the runtime's in-flight load
// (InFlightLoad); Σ loads + in-flight is conserved every round, and the
// in-flight load is zero at every quiescence point in barrier mode.
//
// Workload injection, speed events (Retarget), β re-optimization and
// scheme switches are the embedded engine's own between-rounds methods:
// the one kernel reads one set of round parameters, so there is nothing
// to deliver to the actors.
package actor

import (
	"fmt"

	"diffusionlb/internal/core"
	"diffusionlb/internal/randx"
	"diffusionlb/internal/shard"
	"diffusionlb/internal/spectral"
	"diffusionlb/internal/telemetry"
)

// lagSalt separates the staleness schedule's hash stream from every other
// consumer of the master seed (rounding seeds PCG streams with
// PCGPair3(seed, round, node); the lag draws mix in this salt).
const lagSalt = 0x6163746f724c6167 // "actorLag"

// discrete is core.Discrete under an unexported name: embedded in Runtime
// it promotes the engine's state accessors and between-rounds mutators,
// while the engine itself, and with it a Step that bypasses the
// transport, stays out of callers' reach.
type discrete = core.Discrete

// Runtime is a message-passing discrete diffusion process (see the package
// comment). It implements core.Process, Injector, Retargeter, BetaSetter,
// Sharded and InFlightReporter, so the sim.Runner drives it exactly like
// the shared-memory engines.
type Runtime struct {
	// The engine holds every piece of discrete state: loads, flows, round
	// parameters, counters and the per-shard kernel scratch. In barrier
	// mode its Flows equal the shared-memory engine's exactly; under
	// staleness the two directions of a cut edge may disagree (each owner
	// knows what it sent and what it has been credited, which is the
	// distributed semantics).
	*discrete
	halo  core.Halo
	stale int

	act   []actorState
	links []*link

	// tel, when attached, receives per-actor round latencies, boundary
	// message counts with realized lags, and the in-flight load gauge.
	// Write-only: nothing the runtime computes ever depends on it, so
	// trajectories are bit-identical with or without a probe (pinned by
	// the differential determinism tests).
	//lint:allow checkpointsync observability sink, deliberately outside checkpoint state
	tel *telemetry.ActorProbe
}

var (
	_ core.Process          = (*Runtime)(nil)
	_ core.Injector         = (*Runtime)(nil)
	_ core.Retargeter       = (*Runtime)(nil)
	_ core.BetaSetter       = (*Runtime)(nil)
	_ core.Sharded          = (*Runtime)(nil)
	_ core.InFlightReporter = (*Runtime)(nil)
)

// New builds an actor runtime over op's graph with the given scheme,
// rounder (nil means the paper's RandomizedRounder), master seed for the
// rounding and staleness streams, and initial integer loads (copied).
// opts.Actors fixes the shard partition — unlike the shared-memory
// engines, the partition is the deployment topology here, so it is
// explicit rather than derived from a worker count.
func New(op *spectral.Operator, kind core.Kind, beta float64, rounder core.Rounder, seed uint64, initial []int64, opts Options) (*Runtime, error) {
	if op == nil {
		return nil, fmt.Errorf("%w: nil operator", core.ErrBadConfig)
	}
	if opts.Actors < 1 {
		return nil, fmt.Errorf("%w: actor runtime needs at least 1 actor, got %d", core.ErrBadConfig, opts.Actors)
	}
	if opts.Stale < 0 {
		return nil, fmt.Errorf("%w: negative staleness bound %d", core.ErrBadConfig, opts.Stale)
	}
	lay, err := shard.NewLayout(op.Graph(), opts.Actors)
	if err != nil {
		return nil, err
	}
	r := &Runtime{stale: opts.Stale}
	heads, mates, ghosts := buildTopology(r, lay)
	cfg := core.Config{Op: op, Kind: kind, Beta: beta}
	if r.discrete, r.halo, err = core.NewHalo(cfg, lay, rounder, seed, initial, heads, mates, ghosts); err != nil {
		return nil, err
	}
	return r, nil
}

// step runs one logical round of this actor: the engine's passes on the
// actor's shard around the z and flux exchanges (see the package comment).
// Sends always precede receives, so with every actor live the channel
// protocol cannot deadlock, and each capacity-1 channel carries exactly
// one message of each type per round.
func (a *actorState) step() {
	r, h := a.r, a.r.halo
	t := r.Round()
	span := r.stale + 1
	z, next, credit := h.Z(), h.Next(), h.Credit()
	sw := r.tel.StartActorRound(a.id)
	h.PassZ(a.id, a.lo, a.hi)
	for _, l := range a.out {
		row := l.zRows[t%span]
		for k, i := range l.sendNodes {
			row[k] = z[i]
		}
		l.zCh <- zMsg{round: t}
		for _, arc := range l.cutArcs {
			next[arc] = 0
		}
	}
	for li, l := range a.in {
		m := <-l.zCh
		if m.round != t {
			panic(fmt.Sprintf("actor: z message for round %d received in round %d on link %d->%d", m.round, t, l.src, l.dst))
		}
		a.lag[li] = a.lagOf(l, t)
		copy(z[l.ghost:], l.zRows[(t-a.lag[li])%span])
	}
	h.PassRound(a.id, a.lo, a.hi)
	for _, l := range a.out {
		row := l.fRows[t%span]
		var tot int64
		for k, arc := range l.cutArcs {
			f := next[arc]
			row[k] = f
			tot += f
		}
		l.fSums[t%span] = tot
		l.sentTotal += tot
		l.fCh <- fluxMsg{round: t}
		r.tel.LinkSent(t, l.src, l.dst)
	}
	for li, l := range a.in {
		m := <-l.fCh
		if m.round != t {
			panic(fmt.Sprintf("actor: flux message for round %d received in round %d on link %d->%d", m.round, t, l.src, l.dst))
		}
		for v := l.applied + 1; v <= t-a.lag[li]; v++ {
			row := l.fRows[v%span]
			for k, i := range l.recvNodes {
				credit[i] += row[k]
			}
			l.appliedTotal += l.fSums[v%span]
		}
		r.tel.LinkReceived(t, l.dst, l.src, a.lag[li])
	}
	// PassApply reads each cut arc's sent tokens for the transient load and
	// the traffic counts, so received flux reaches it as the per-node
	// credit and leaves the cut arcs' SOS memory only afterwards.
	h.PassApply(a.id, a.lo, a.hi)
	for li, l := range a.in {
		thru := t - a.lag[li]
		for v := l.applied + 1; v <= thru; v++ {
			row := l.fRows[v%span]
			for k, arc := range l.recvArcs {
				next[arc] -= row[k]
			}
		}
		l.applied = max(l.applied, thru)
	}
	sw.Stop()
}

func stepActor(act []actorState, a int) { act[a].step() }

// lagOf draws the link's staleness lag for round t: a deterministic
// function of (seed, link, round), so async interleavings replay exactly —
// staleness is data the schedule selects, never a wall-clock race. Barrier
// mode always returns 0; early rounds clamp the lag so version t−lag ≥ 0.
func (a *actorState) lagOf(l *link, t int) int {
	stale := a.r.stale
	if stale == 0 {
		return 0
	}
	lag := int(randx.Mix(a.r.Seed(), lagSalt, uint64(l.src), uint64(l.dst), uint64(t)) % uint64(stale+1))
	if lag > t {
		lag = t
	}
	return lag
}

// Step executes one synchronous logical round: the engine latches the
// round's parameters, all actors run their round concurrently,
// synchronized against each other purely by the link channels, and the
// engine folds the per-shard reduction slots in shard order (bit-stable
// for every GOMAXPROCS).
//
// The actors run through shard.Run with one worker per actor and no
// GOMAXPROCS cap: the step protocol's blocking receives synchronize
// neighbors against each other, so every actor must be live within a round
// (the Go scheduler multiplexes them onto however many cores exist). A
// single actor runs inline with no goroutines and no channels.
func (r *Runtime) Step() {
	r.halo.Begin()
	shard.Run(len(r.act), len(r.act), r.act, stepActor)
	r.halo.End()
	if r.tel != nil {
		r.tel.SetInFlight(float64(r.InFlightLoad()))
	}
}

// SetTelemetry attaches (or with nil detaches) an actor probe. The probe
// is write-only observability state: it never influences the trajectory,
// so it is deliberately outside checkpoint state and may be attached or
// swapped at any round boundary.
func (r *Runtime) SetTelemetry(p *telemetry.ActorProbe) { r.tel = p }

// InFlightLoad implements core.InFlightReporter: tokens debited from
// senders but not yet credited by receivers, summed over links in
// construction order. Zero at every round boundary in barrier mode;
// bounded by the staleness window otherwise. Σ Loads + InFlightLoad is
// conserved at every round boundary.
func (r *Runtime) InFlightLoad() int64 {
	var inFlight int64
	for _, l := range r.links {
		inFlight += l.sentTotal - l.appliedTotal
	}
	return inFlight
}

// Actors returns the actor count (== ShardLayout().Shards()).
func (r *Runtime) Actors() int { return len(r.act) }

// Stale returns the staleness bound S (0 means barrier mode).
func (r *Runtime) Stale() int { return r.stale }

// Options returns the runtime's options in canonical form.
func (r *Runtime) Options() Options { return Options{Actors: len(r.act), Stale: r.stale} }

// MemoryFootprint returns the resident bytes of the runtime's own arrays:
// the engine's (halo maps and ghost slots included), and each link's index
// lists and version rows — the price of the message-passing transport
// relative to the shared-memory engine.
func (r *Runtime) MemoryFootprint() int64 {
	bytes := r.discrete.MemoryFootprint()
	for s := range r.act {
		bytes += int64(len(r.act[s].lag)) * 8
	}
	for _, l := range r.links {
		bytes += int64(len(l.sendNodes)+len(l.cutArcs)+len(l.recvArcs)+len(l.recvNodes)) * 4
		bytes += int64(len(l.fSums)) * 8
		for v := range l.zRows {
			bytes += int64(len(l.zRows[v]))*8 + int64(len(l.fRows[v]))*8
		}
	}
	return bytes
}
