package main

import (
	"runtime"
	"time"

	"diffusionlb/internal/core"
	"diffusionlb/internal/sim"
	"diffusionlb/internal/spectral"
	"diffusionlb/internal/workload"
)

// span is one timed call across a layer seam. Times are nanoseconds since
// the tracer's epoch.
type span struct {
	name       string
	start, end int64
	// parent is the index of the enclosing span, -1 for a root.
	parent int32
	// round is the Runner round the span ran in (0 during setup). Round r
	// runs from the OnRound(r−1) call to the OnRound(r) call; the first
	// round starts when Runner.Run is called and the last ends when it
	// returns, so the metric sample a round records is charged to the next.
	round int32
	// mallocs is the allocator Mallocs delta inside the span; it is
	// counted for Step spans only.
	mallocs uint64
}

func (s span) dur() int64 { return s.end - s.start }

// tracer keeps spans in memory; they are written out when the benchmark
// ends. Its methods are called from the Runner's goroutine only.
type tracer struct {
	epoch  time.Time
	spans  []span
	open   []int32
	round  int32
	rounds int32 // total rounds of the run in progress
	runID  int32
	ms     runtime.MemStats
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, capacity)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span under the innermost open span.
func (t *tracer) begin(name string) int32 {
	parent := int32(-1)
	if k := len(t.open); k > 0 {
		parent = t.open[k-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, start: t.now(), parent: parent, round: t.round})
	t.open = append(t.open, id)
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int32) {
	t.spans[id].end = t.now()
	t.open = t.open[:len(t.open)-1]
}

// call runs f inside a span; on a nil tracer it just runs f. Setup calls
// are timed this way.
func (t *tracer) call(name string, f func()) {
	if t == nil {
		f()
		return
	}
	id := t.begin(name)
	f()
	t.end(id)
}

// startRun opens the run span and the span of round 1.
func (t *tracer) startRun(rounds int) {
	t.rounds = int32(rounds)
	t.round = 1
	t.runID = t.begin("sim.Runner.Run")
	t.begin("sim.round")
}

// mark is the Runner.OnRound hook: it closes round r and opens round r+1,
// except after the last round, whose span closes when Run returns.
func (t *tracer) mark(r int) {
	if int32(r) >= t.rounds {
		return
	}
	t.end(t.open[len(t.open)-1])
	t.round = int32(r) + 1
	t.begin("sim.round")
}

// endRun closes the last round span and the run span.
func (t *tracer) endRun() {
	for len(t.open) > 0 {
		top := t.open[len(t.open)-1]
		t.end(top)
		if top == t.runID {
			break
		}
	}
	t.round = 0
}

// timedStep runs step inside a span and counts the allocations made inside
// it. The two ReadMemStats calls stop the world, so they stay outside the
// Step span and are recorded as their own trace.ReadMemStats spans, which
// keeps them out of the Runner's self time.
func (t *tracer) timedStep(name string, step func()) {
	id := t.begin(name)
	pre := t.spans[id].start
	runtime.ReadMemStats(&t.ms)
	m0 := t.ms.Mallocs
	start := t.now()
	step()
	end := t.now()
	runtime.ReadMemStats(&t.ms)
	post := t.now()
	t.spans[id].start, t.spans[id].end = start, end
	t.spans[id].mallocs = t.ms.Mallocs - m0
	t.open = t.open[:len(t.open)-1]
	parent, round := t.spans[id].parent, t.spans[id].round
	t.spans = append(t.spans,
		span{name: "trace.ReadMemStats", start: pre, end: start, parent: parent, round: round},
		span{name: "trace.ReadMemStats", start: end, end: post, parent: parent, round: round})
}

// engine is the method set the Runner reaches on both engines the
// benchmark drives: core.Discrete and actor.Runtime.
type engine interface {
	core.Process
	core.Injector
	core.Retargeter
	core.BetaSetter
	core.Sharded
	Injected() (added, removed int64)
	Traffic() (tokens, messages int64)
}

// tracedEngine times the engine calls the Runner makes between rounds and
// the Step itself. Embedding engine forwards exactly its method set, so
// the Runner, the metrics and the policy see the same optional interfaces
// as on the bare engine; the Sharded forward is what keeps reweights on the
// engine's shard layout.
type tracedEngine struct {
	engine
	tr *tracer
	// Span names, prefixed with the engine's layer ("core" or "actor").
	step, inject, retarget, setBeta, setKind string
}

func (e *tracedEngine) Step() { e.tr.timedStep(e.step, e.engine.Step) }

func (e *tracedEngine) Inject(deltas []int64) (err error) {
	e.tr.call(e.inject, func() { err = e.engine.Inject(deltas) })
	return err
}

func (e *tracedEngine) Retarget(op *spectral.Operator) (err error) {
	e.tr.call(e.retarget, func() { err = e.engine.Retarget(op) })
	return err
}

func (e *tracedEngine) SetBeta(beta float64) (err error) {
	e.tr.call(e.setBeta, func() { err = e.engine.SetBeta(beta) })
	return err
}

func (e *tracedEngine) SetKind(k core.Kind) {
	e.tr.call(e.setKind, func() { e.engine.SetKind(k) })
}

// tracedInFlight adds the in-flight forward for engines that report it.
type tracedInFlight struct {
	*tracedEngine
	inFlight core.InFlightReporter
}

func (e tracedInFlight) InFlightLoad() int64 { return e.inFlight.InFlightLoad() }

// traceEngine wraps p so every seam call is timed, keeping every optional
// interface p has.
func traceEngine(p engine, tr *tracer, layer string) core.Process {
	te := &tracedEngine{engine: p, tr: tr,
		step: layer + ".Step", inject: layer + ".Inject", retarget: layer + ".Retarget",
		setBeta: layer + ".SetBeta", setKind: layer + ".SetKind"}
	if ifr, ok := p.(core.InFlightReporter); ok {
		return tracedInFlight{tracedEngine: te, inFlight: ifr}
	}
	return te
}

// tracedMetric times one sim.Metric.Compute.
type tracedMetric struct {
	sim.Metric
	tr   *tracer
	span string
}

func (m tracedMetric) Compute(p core.Process) (v float64) {
	m.tr.call(m.span, func() { v = m.Metric.Compute(p) })
	return v
}

func traceMetrics(ms []sim.Metric, tr *tracer) []sim.Metric {
	out := make([]sim.Metric, len(ms))
	for i, m := range ms {
		out[i] = tracedMetric{Metric: m, tr: tr, span: "metrics.Compute/" + m.Name()}
	}
	return out
}

// tracedMutator times workload.Mutator.Deltas.
type tracedMutator struct {
	workload.Mutator
	tr *tracer
}

func (m tracedMutator) Deltas(round int, loads workload.Loads, out []int64) (changed bool) {
	m.tr.call("workload.Deltas", func() { changed = m.Mutator.Deltas(round, loads, out) })
	return changed
}

// tracedPolicy times core.AdaptivePolicy.Decide.
type tracedPolicy struct {
	core.AdaptivePolicy
	tr *tracer
}

func (p tracedPolicy) Decide(proc core.Process) (k core.Kind, ok bool) {
	p.tr.call("core.AdaptivePolicy.Decide", func() { k, ok = p.AdaptivePolicy.Decide(proc) })
	return k, ok
}
