// Package telemetryread is an lbvet analysistest fixture: each // want
// comment pins a diagnostic of the telemetryread analyzer, and the
// undecorated declarations pin the write-only surface that must stay
// clean. The fixture imports the real telemetry package so the opacity
// test runs against the genuine handle types.
package telemetryread

import (
	"io"

	"diffusionlb/internal/telemetry"
)

// register is the blessed preregistration shape: every result is an opaque
// handle, so nothing here is a read-back.
func register(reg *telemetry.Registry) (*telemetry.Counter, *telemetry.Gauge, *telemetry.Histogram) {
	c := reg.Counter("fixture_ops_total", "operations")
	g := reg.Gauge("fixture_depth", "queue depth")
	h := reg.Histogram("fixture_seconds", "latency", telemetry.DurationBuckets())
	return c, g, h
}

// record is the blessed hot-path shape: recording methods return nothing.
func record(c *telemetry.Counter, g *telemetry.Gauge, h *telemetry.Histogram) {
	c.Inc()
	c.Add(3)
	g.Set(1.5)
	g.Add(-0.5)
	h.Observe(0.25)
	sw := h.Start() // Stopwatch is an opaque handle, not a read-back.
	sw.Stop()
}

// probes: constructors and every recording method are write-only.
func probes(reg *telemetry.Registry, tr *telemetry.Trace) {
	rp := telemetry.NewRunProbe(reg, tr)
	rp.RoundCompleted(1, 0.5, 0.25, 4, 0)
	rp.Inject(1, 100)
	ap := telemetry.NewActorProbe(reg, tr, 4, false)
	ap.LinkSent(1, 0, 1)
	ap.SetInFlight(12)
	sp := telemetry.NewSweepProbe(reg, tr)
	sp.Begin(10)
	sp.CellDone(1, 10, true)
	tr.Emit(telemetry.EvRound, 1, 0, 0, 0)
}

// readBacks is what the contract forbids in engine code: any call whose
// result leaks telemetry state back to the caller.
func readBacks(reg *telemetry.Registry, tr *telemetry.Trace, c *telemetry.Counter, g *telemetry.Gauge, w io.Writer) {
	_ = c.Value()                       // want `telemetry read-back: Value returns int64`
	_ = g.Value()                       // want `telemetry read-back: Value returns float64`
	_ = tr.Seq()                        // want `telemetry read-back: Seq returns uint64`
	_ = tr.Events()                     // want `telemetry read-back: Events returns \[\]`
	_ = telemetry.TakeSnapshot(reg, tr) // want `telemetry read-back: TakeSnapshot returns`
	_ = reg.WritePrometheus(w)          // want `telemetry read-back: WritePrometheus returns error`
}

// branchOnTelemetry is the failure mode the analyzer exists for: a
// trajectory decision coupled to an observability read.
func branchOnTelemetry(c *telemetry.Counter) int {
	if c.Value() > 100 { // want `telemetry read-back: Value returns int64`
		return 1
	}
	return 0
}

// allowEscapeHatch: a justified //lint:allow suppresses the diagnostic,
// the same escape hatch every other analyzer honours.
func allowEscapeHatch(c *telemetry.Counter) int64 {
	//lint:allow telemetryread fixture exercises the suppression path
	return c.Value()
}
