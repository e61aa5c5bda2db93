package telemetry

import (
	"math"
	"strings"
	"testing"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}

	g := r.Gauge("g", "a gauge")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %g, want 1.5", got)
	}

	h := r.Histogram("h", "a histogram", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1.5, 3, 100} {
		h.Observe(v)
	}
	cum, sum, count := h.snapshot()
	if count != 4 {
		t.Fatalf("count = %d, want 4", count)
	}
	if sum != 105 {
		t.Fatalf("sum = %g, want 105", sum)
	}
	want := []int64{1, 2, 3, 4} // cumulative: ≤1, ≤2, ≤4, +Inf
	for i, w := range want {
		if cum[i] != w {
			t.Fatalf("cum[%d] = %d, want %d (all %v)", i, cum[i], w, cum)
		}
	}
}

func TestNilHandlesNoOp(t *testing.T) {
	// The whole Nop surface must be callable without panicking.
	var r *Registry = Nop
	c := r.Counter("x_total", "x")
	g := r.Gauge("y", "y")
	h := r.Histogram("z", "z", DurationBuckets())
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	sw := h.Start()
	sw.Stop()
	if c.Value() != 0 || g.Value() != 0 {
		t.Fatal("nil handles should read zero")
	}
	var tr *Trace
	tr.Emit(EvRound, 1, 0, 0, 0)
	if tr.Seq() != 0 || tr.Events() != nil {
		t.Fatal("nil trace should be empty")
	}
	if err := r.WritePrometheus(nil); err != nil {
		t.Fatalf("nil registry WritePrometheus: %v", err)
	}
	if p := NewRunProbe(nil, nil); p != nil {
		t.Fatal("NewRunProbe(nil, nil) should be nil")
	}
	var rp *RunProbe
	rp.StartRound().Stop()
	rp.RoundCompleted(1, 0, 0, 0, 0)
	rp.Inject(1, 0)
	rp.Reweight(1, 0, 0)
	rp.BetaReopt(1, 0)
	rp.Switch(1, 2)
	rp.Scenario(1, 0, 0)
	var ap *ActorProbe
	ap.StartActorRound(0).Stop()
	ap.LinkSent(0, 0, 1)
	ap.LinkReceived(0, 1, 0, 2)
	ap.SetInFlight(0)
	ap.Checkpoint(0, 4)
	ap.Restore(0, 4)
	var sp *SweepProbe
	sp.Begin(10)
	sp.CellStart()
	sp.CellDone(1, 10, true)
	sp.GroupFlushed(0)
}

// TestRecordingAllocs pins the 0-alloc hot-path contract for live handles
// and for the nil (Nop) configuration.
func TestRecordingAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a_total", "a")
	g := r.Gauge("b", "b")
	h := r.Histogram("d", "d", DurationBuckets())
	if n := testing.AllocsPerRun(100, func() {
		c.Inc()
		g.Set(3.25)
		h.Observe(0.002)
	}); n != 0 {
		t.Fatalf("live recording allocates %v per op, want 0", n)
	}
	var nc *Counter
	var ng *Gauge
	var nh *Histogram
	if n := testing.AllocsPerRun(100, func() {
		nc.Inc()
		ng.Set(3.25)
		nh.Observe(0.002)
		nh.Start().Stop()
	}); n != 0 {
		t.Fatalf("nil recording allocates %v per op, want 0", n)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dual", "first as counter")
	defer func() {
		if recover() == nil {
			t.Fatal("reusing a name with a different kind should panic")
		}
	}()
	r.Gauge("dual", "now as gauge")
}

func TestTraceRing(t *testing.T) {
	tr := NewTrace(16)
	for i := 0; i < 40; i++ {
		tr.Emit(EvRound, i, 0, 0, float64(i))
	}
	if got := tr.Seq(); got != 40 {
		t.Fatalf("seq = %d, want 40", got)
	}
	evs := tr.Events()
	if len(evs) != 16 {
		t.Fatalf("retained %d events, want 16", len(evs))
	}
	for i, e := range evs {
		wantSeq := uint64(25 + i)
		if e.Seq != wantSeq {
			t.Fatalf("evs[%d].Seq = %d, want %d", i, e.Seq, wantSeq)
		}
		if e.Round != int32(24+i) {
			t.Fatalf("evs[%d].Round = %d, want %d", i, e.Round, 24+i)
		}
	}
}

func TestEventKindNames(t *testing.T) {
	kinds := []EventKind{
		EvRound, EvInject, EvReweight, EvBetaReopt, EvSwitch, EvScenario,
		EvActorSend, EvActorRecv, EvCheckpoint, EvRestore, EvSweepCell, EvSweepGroup,
	}
	seen := map[string]bool{}
	for _, k := range kinds {
		name := k.String()
		if name == "" || strings.HasPrefix(name, "kind(") {
			t.Fatalf("kind %d has no name", k)
		}
		if seen[name] {
			t.Fatalf("duplicate kind name %q", name)
		}
		seen[name] = true
		b, err := k.MarshalJSON()
		if err != nil || string(b) != `"`+name+`"` {
			t.Fatalf("MarshalJSON(%v) = %s, %v", k, b, err)
		}
	}
	if got := EventKind(200).String(); got != "kind(200)" {
		t.Fatalf("unknown kind renders %q", got)
	}
}

func TestGaugeAddConcurrentSafe(t *testing.T) {
	g := NewRegistry().Gauge("acc", "accumulator")
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func() {
			for i := 0; i < 1000; i++ {
				g.Add(1)
			}
			done <- struct{}{}
		}()
	}
	for w := 0; w < 4; w++ {
		<-done
	}
	if got := g.Value(); got != 4000 {
		t.Fatalf("gauge = %g, want 4000", got)
	}
}

func TestHistogramBoundsValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("descending bounds should panic")
		}
	}()
	NewRegistry().Histogram("bad", "bad", []float64{2, 1})
}

func TestStopwatchRecords(t *testing.T) {
	h := NewRegistry().Histogram("lat", "lat", DurationBuckets())
	sw := h.Start()
	sw.Stop()
	_, sum, count := h.snapshot()
	if count != 1 {
		t.Fatalf("count = %d, want 1", count)
	}
	if sum < 0 || math.IsNaN(sum) {
		t.Fatalf("sum = %g, want non-negative", sum)
	}
}
