package telemetry

import "strconv"

// This file preregisters the diffusionlb_* metric families as probe
// bundles — one per instrumented layer — so that hot-path recording is a
// plain handle operation with no name lookup. Every constructor is
// nil-safe: a nil registry yields a nil probe whose methods no-op, which
// is how the Nop configuration costs nothing.

// RunProbe instruments one sim.Runner run: per-round gauges for the
// signals the paper's analysis tracks (discrepancy, potential, Σ speeds,
// stale β gap) plus lifecycle trace events.
type RunProbe struct {
	trace *Trace

	rounds      *Counter
	roundTime   *Histogram
	discrepancy *Gauge
	potential   *Gauge
	speedSum    *Gauge
	staleBeta   *Gauge
}

// NewRunProbe registers the run-level metric families. Either argument
// may be nil; a fully nil probe is returned only when both are.
func NewRunProbe(r *Registry, t *Trace) *RunProbe {
	if r == nil && t == nil {
		return nil
	}
	return &RunProbe{
		trace: t,
		rounds: r.Counter("diffusionlb_rounds_total",
			"Completed simulation rounds."),
		roundTime: r.Histogram("diffusionlb_round_seconds",
			"Wall-clock time per simulation round.", DurationBuckets()),
		discrepancy: r.Gauge("diffusionlb_discrepancy",
			"Current max-min load discrepancy."),
		potential: r.Gauge("diffusionlb_potential",
			"Current quadratic potential around the target."),
		speedSum: r.Gauge("diffusionlb_speed_sum",
			"Current sum of node speeds."),
		staleBeta: r.Gauge("diffusionlb_stale_beta_rounds",
			"Rounds executed on a stale beta while re-optimization waited out the cooldown."),
	}
}

// StartRound begins timing one round (zero Stopwatch when detached).
func (p *RunProbe) StartRound() Stopwatch {
	if p == nil {
		return Stopwatch{}
	}
	return p.roundTime.Start()
}

// RoundCompleted records the per-round gauges and the EvRound event.
func (p *RunProbe) RoundCompleted(round int, discrepancy, potential, speedSum, staleBeta float64) {
	if p == nil {
		return
	}
	p.rounds.Inc()
	p.discrepancy.Set(discrepancy)
	p.potential.Set(potential)
	p.speedSum.Set(speedSum)
	p.staleBeta.Set(staleBeta)
	p.trace.Emit(EvRound, round, 0, 0, discrepancy)
}

// Inject records a workload or scenario load injection.
func (p *RunProbe) Inject(round int, net float64) {
	if p == nil {
		return
	}
	p.trace.Emit(EvInject, round, 0, 0, net)
}

// Reweight records a speed event: changed node count and the new Σ s_i.
func (p *RunProbe) Reweight(round, changed int, speedSum float64) {
	if p == nil {
		return
	}
	p.trace.Emit(EvReweight, round, changed, 0, speedSum)
}

// BetaReopt records a β re-optimization installing betaOpt.
func (p *RunProbe) BetaReopt(round int, betaOpt float64) {
	if p == nil {
		return
	}
	p.trace.Emit(EvBetaReopt, round, 0, 0, betaOpt)
}

// Switch records a scheme switch to the given order (1 = FOS, 2 = SOS).
func (p *RunProbe) Switch(round, order int) {
	if p == nil {
		return
	}
	p.trace.Emit(EvSwitch, round, 0, 0, float64(order))
}

// Scenario records a coupled scenario event: speed-changed node count and
// the load moved.
func (p *RunProbe) Scenario(round, changed int, loadMoved float64) {
	if p == nil {
		return
	}
	p.trace.Emit(EvScenario, round, changed, 0, loadMoved)
}

// ActorProbe instruments the shard-actor runtime: per-actor round latency,
// boundary message counters, realized staleness lags and in-flight load.
type ActorProbe struct {
	trace *Trace

	roundTime []*Histogram // indexed by actor
	sent      *Counter
	received  *Counter
	inflight  *Gauge
	lag       *Histogram
	events    bool
}

// NewActorProbe registers the actor metric families for an actors-sized
// runtime. emitMessageEvents switches per-message EvActorSend/EvActorRecv
// trace emission on (it is off by default: boundary traffic is O(links)
// per round and would flood a small ring).
func NewActorProbe(r *Registry, t *Trace, actors int, emitMessageEvents bool) *ActorProbe {
	if r == nil && t == nil {
		return nil
	}
	p := &ActorProbe{
		trace: t,
		sent: r.Counter("diffusionlb_actor_messages_sent_total",
			"Boundary messages sent across actor links."),
		received: r.Counter("diffusionlb_actor_messages_received_total",
			"Boundary messages received across actor links."),
		inflight: r.Gauge("diffusionlb_actor_inflight_load",
			"Load currently carried by in-flight boundary messages."),
		lag: r.Histogram("diffusionlb_actor_link_lag_rounds",
			"Realized staleness lag per received boundary message, in rounds.", LagBuckets()),
		events: emitMessageEvents,
	}
	for k := 0; k < actors; k++ {
		p.roundTime = append(p.roundTime, r.Histogram("diffusionlb_actor_round_seconds",
			"Wall-clock time per actor per round.", DurationBuckets(),
			"actor", strconv.Itoa(k)))
	}
	return p
}

// StartActorRound begins timing actor k's round.
func (p *ActorProbe) StartActorRound(k int) Stopwatch {
	if p == nil || k >= len(p.roundTime) {
		return Stopwatch{}
	}
	return p.roundTime[k].Start()
}

// LinkSent records one boundary send from src to dst.
func (p *ActorProbe) LinkSent(round, src, dst int) {
	if p == nil {
		return
	}
	p.sent.Inc()
	if p.events {
		p.trace.Emit(EvActorSend, round, src, dst, 0)
	}
}

// LinkReceived records one boundary receive at dst from src with the
// observed staleness lag in rounds.
func (p *ActorProbe) LinkReceived(round, dst, src, lag int) {
	if p == nil {
		return
	}
	p.received.Inc()
	p.lag.Observe(float64(lag))
	if p.events {
		p.trace.Emit(EvActorRecv, round, dst, src, float64(lag))
	}
}

// SetInFlight records the load currently carried by in-flight messages.
func (p *ActorProbe) SetInFlight(load float64) {
	if p == nil {
		return
	}
	p.inflight.Set(load)
}

// Checkpoint records a checkpoint capture over actors shards.
func (p *ActorProbe) Checkpoint(round, actors int) {
	if p == nil {
		return
	}
	p.trace.Emit(EvCheckpoint, round, actors, 0, 0)
}

// Restore records a checkpoint restore over actors shards.
func (p *ActorProbe) Restore(round, actors int) {
	if p == nil {
		return
	}
	p.trace.Emit(EvRestore, round, actors, 0, 0)
}

// SweepProbe instruments a parameter sweep: live cell progress, completed
// groups, and worker utilization.
type SweepProbe struct {
	trace *Trace

	cellsTotal  *Gauge
	cellsDone   *Counter
	groups      *Counter
	workersBusy *Gauge
}

// NewSweepProbe registers the sweep metric families.
func NewSweepProbe(r *Registry, t *Trace) *SweepProbe {
	if r == nil && t == nil {
		return nil
	}
	return &SweepProbe{
		trace: t,
		cellsTotal: r.Gauge("diffusionlb_sweep_cells_total",
			"Total cells in the running sweep."),
		cellsDone: r.Counter("diffusionlb_sweep_cells_completed_total",
			"Sweep cells completed."),
		groups: r.Counter("diffusionlb_sweep_groups_flushed_total",
			"Aggregation groups completed and handed on by the sweep engine."),
		workersBusy: r.Gauge("diffusionlb_sweep_workers_busy",
			"Sweep workers currently executing a cell."),
	}
}

// Begin records the sweep's total cell count.
func (p *SweepProbe) Begin(total int) {
	if p == nil {
		return
	}
	p.cellsTotal.Set(float64(total))
}

// CellStart marks one worker busy.
func (p *SweepProbe) CellStart() {
	if p == nil {
		return
	}
	p.workersBusy.Add(1)
}

// CellDone marks one worker idle. A cell that completed (ok) also counts
// as completed and records progress (done of total); a failed one does not.
func (p *SweepProbe) CellDone(done, total int, ok bool) {
	if p == nil {
		return
	}
	p.workersBusy.Add(-1)
	if !ok {
		return
	}
	p.cellsDone.Inc()
	p.trace.Emit(EvSweepCell, 0, done, total, 0)
}

// GroupFlushed records one aggregation group the sweep engine handed on.
func (p *SweepProbe) GroupFlushed(group int) {
	if p == nil {
		return
	}
	p.groups.Inc()
	p.trace.Emit(EvSweepGroup, 0, group, 0, 0)
}
