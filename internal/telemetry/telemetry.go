// Package telemetry is the repo's zero-overhead observability layer: a
// lock-cheap metrics registry (counters, gauges, fixed-bucket histograms),
// a structured trace of run lifecycle events, and an HTTP exposition
// surface (Prometheus text format, JSON snapshot, net/http/pprof) that any
// long-running process — lbsim, the future lbserve daemon — can embed.
//
// Determinism contract. Telemetry is write-only from the simulation's point
// of view: engine, runner and runtime code may *record* into preregistered
// handles (Counter.Add, Gauge.Set, Histogram.Observe, Trace emissions) but
// must never read telemetry state back — wall-clock timestamps exist only
// inside this package and never feed into simulation state, so a
// trajectory is bit-identical with telemetry attached or detached (pinned
// by the differential determinism tests, enforced statically by the lbvet
// telemetryread analyzer). Within the telemetry layer itself, wall-clock
// reads and cross-goroutine interleaving of trace sequence numbers are
// legal: they describe when the simulation was observed, not what it
// computed.
//
// Zero overhead when disabled. Every handle is nil-safe: a nil *Registry
// hands out nil handles, and every recording method on a nil handle is an
// inlineable nil-check no-op — the Nop configuration compiles down to
// nothing on the hot path. When enabled, recording is allocation-free:
// counters and gauges are single atomic words, histograms are fixed bucket
// arrays chosen at registration time, and the handles are preregistered so
// no name lookup or map access happens per record.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Nop is the disabled registry: it hands out nil handles whose recording
// methods compile to nil-check no-ops. Attaching Nop (or simply a nil
// probe) must be indistinguishable, trajectory-wise, from attaching a live
// registry — that is the layer's core contract.
var Nop *Registry

// Registry holds the registered metric handles. Registration takes a
// mutex; recording into a handle never does. The exposition order is the
// registration order, so output is deterministic (no map iteration).
type Registry struct {
	mu      sync.Mutex
	metrics []metric
	byName  map[string]*family
}

// family groups all handles registered under one metric name (label
// variants share TYPE/HELP lines in the Prometheus exposition).
type family struct {
	name, help, kind string
}

// metric is one registered handle in registration order.
type metric struct {
	fam *family
	// labels is the pre-rendered Prometheus label block, e.g. `{actor="3"}`
	// (empty for unlabelled handles).
	labels string
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// NewRegistry builds an empty live registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*family{}}
}

// renderLabels renders alternating key, value pairs as a Prometheus label
// block. Pairs must come in complete key/value couples.
func renderLabels(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	if len(kv)%2 != 0 {
		panic(fmt.Sprintf("telemetry: odd label list %q", kv))
	}
	s := "{"
	for i := 0; i < len(kv); i += 2 {
		if i > 0 {
			s += ","
		}
		s += kv[i] + `="` + kv[i+1] + `"`
	}
	return s + "}"
}

// register records the handle under name, validating that a name is never
// reused with a different kind or help string.
func (r *Registry) register(name, help, kind string, m metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	fam, ok := r.byName[name]
	if !ok {
		fam = &family{name: name, help: help, kind: kind}
		r.byName[name] = fam
	} else if fam.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %q registered as %s and %s", name, fam.kind, kind))
	}
	m.fam = fam
	r.metrics = append(r.metrics, m)
}

// Counter registers (and returns a handle to) a monotonically increasing
// counter. Optional labels come as alternating key, value strings; every
// distinct label combination is its own handle. A nil registry returns a
// nil handle, whose methods no-op.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	c := &Counter{}
	r.register(name, help, "counter", metric{labels: renderLabels(labels), c: c})
	return c
}

// Gauge registers a gauge: a float64 that can move in both directions.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	g := &Gauge{}
	r.register(name, help, "gauge", metric{labels: renderLabels(labels), g: g})
	return g
}

// Histogram registers a fixed-bucket histogram. bounds are the inclusive
// upper bucket bounds in ascending order (the +Inf bucket is implicit);
// they are fixed at registration so observation is a branch-free scan over
// a small array with no allocation.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	if !sort.Float64sAreSorted(bounds) {
		panic(fmt.Sprintf("telemetry: histogram %q bounds not ascending: %v", name, bounds))
	}
	h := &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
	r.register(name, help, "histogram", metric{labels: renderLabels(labels), h: h})
	return h
}

// Counter is a monotonically increasing integer metric. The zero method
// set on a nil receiver makes every recording site free when telemetry is
// detached.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds delta (which must be non-negative for Prometheus semantics;
// negative deltas are recorded as given — the exposition does not police
// monotonicity).
func (c *Counter) Add(delta int64) {
	if c == nil {
		return
	}
	c.v.Add(delta)
}

// Value returns the current count. Read-back: legal in telemetry,
// exposition and test code, forbidden in engine code (lbvet telemetryread).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous float64 metric stored as atomic bits.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add moves the gauge by delta (CAS loop; gauges move rarely compared to
// counters, so contention is negligible).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		v := math.Float64frombits(old) + delta
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current gauge value (read-back; see Counter.Value).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket histogram: counts[i] is the number of
// observations ≤ bounds[i], counts[len(bounds)] the +Inf bucket. The sum
// is kept as atomic float bits.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Int64
	sumBits atomic.Uint64
	total   atomic.Int64
}

// Observe records one sample: a short linear scan over the fixed bounds
// (histograms here have ≤ ~20 buckets; a branchy binary search would not
// pay) plus three atomic updates. No allocation.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.total.Add(1)
	for {
		old := h.sumBits.Load()
		s := math.Float64frombits(old) + v
		if h.sumBits.CompareAndSwap(old, math.Float64bits(s)) {
			return
		}
	}
}

// Stopwatch times one interval into a histogram. It is a value type: Start
// on a nil histogram returns the zero Stopwatch and Stop on it is a no-op,
// so timing sites cost nothing when telemetry is detached. The wall-clock
// read lives here, inside the telemetry layer — callers hold an opaque
// token, never a timestamp.
type Stopwatch struct {
	h  *Histogram
	t0 time.Time
}

// Start begins timing an interval that Stop will record in seconds.
func (h *Histogram) Start() Stopwatch {
	if h == nil {
		return Stopwatch{}
	}
	return Stopwatch{h: h, t0: time.Now()} //lint:allow nodeterminism telemetry layer: wall-clock latency is the observation; it never feeds back into simulation state
}

// Stop records the elapsed seconds since Start.
func (sw Stopwatch) Stop() {
	if sw.h == nil {
		return
	}
	sw.h.Observe(time.Since(sw.t0).Seconds()) //lint:allow nodeterminism telemetry layer: wall-clock latency is the observation; it never feeds back into simulation state
}

// snapshot copies the histogram's state consistently enough for
// exposition (Prometheus scrapes tolerate torn reads across buckets).
func (h *Histogram) snapshot() (cum []int64, sum float64, count int64) {
	cum = make([]int64, len(h.counts))
	var running int64
	for i := range h.counts {
		running += h.counts[i].Load()
		cum[i] = running
	}
	return cum, math.Float64frombits(h.sumBits.Load()), h.total.Load()
}

// DurationBuckets are the default latency bounds in seconds: 1µs to ~10s
// in decade-and-a-half steps — wide enough for a per-round kernel and a
// whole sweep cell alike.
func DurationBuckets() []float64 {
	return []float64{
		1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
		1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
	}
}

// LagBuckets are the bounds for realized staleness lags in rounds: the
// bounded-staleness runtime draws small integer lags, so unit buckets up
// to 16 cover every practical staleness window.
func LagBuckets() []float64 {
	return []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 12, 16}
}
