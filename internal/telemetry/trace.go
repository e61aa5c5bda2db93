package telemetry

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// EventKind enumerates the run-lifecycle trace vocabulary. The set covers
// everything the ROADMAP's serving mode needs to observe live: per-round
// completion, every control-plane mutation (injection, reweight/retarget,
// β re-optimization, policy switches, coupled scenario events), the actor
// runtime's boundary messaging with its observed per-link staleness,
// checkpoint/restore cuts, and sweep progress.
type EventKind uint8

const (
	// EvRound marks one completed simulation round; Value carries the
	// recorded discrepancy.
	EvRound EventKind = iota + 1
	// EvInject marks an external load injection (workload or scenario load
	// half); Value is the net injected load.
	EvInject
	// EvReweight marks a speed event applied to the operator (reweight +
	// retarget); A is the number of changed nodes, Value the new Σ s_i.
	EvReweight
	// EvBetaReopt marks a β re-optimization; Value is the installed β_opt.
	EvBetaReopt
	// EvSwitch marks a scheme switch; Value is the target order (1 = FOS,
	// 2 = SOS).
	EvSwitch
	// EvScenario marks a coupled scenario round; A is the number of
	// speed-changed nodes, Value the load moved.
	EvScenario
	// EvActorSend marks one actor-to-actor boundary send (z + flux pair for
	// one link in one round); A is the sending actor, B the receiver.
	EvActorSend
	// EvActorRecv marks the matching receive; A is the receiving actor, B
	// the sender, Value the observed staleness lag (rounds) on the link.
	EvActorRecv
	// EvCheckpoint marks a checkpoint capture; A is the actor count.
	EvCheckpoint
	// EvRestore marks a checkpoint restore; A is the actor count.
	EvRestore
	// EvSweepCell marks one completed sweep cell; A is the completed count,
	// B the total.
	EvSweepCell
	// EvSweepGroup marks one aggregation group the sweep engine handed on,
	// in group-index order; A is the group index.
	EvSweepGroup
)

// eventKindNames renders the vocabulary; keep in sync with the constants.
var eventKindNames = [...]string{
	EvRound:      "round",
	EvInject:     "inject",
	EvReweight:   "reweight",
	EvBetaReopt:  "beta_reopt",
	EvSwitch:     "switch",
	EvScenario:   "scenario",
	EvActorSend:  "actor_send",
	EvActorRecv:  "actor_recv",
	EvCheckpoint: "checkpoint",
	EvRestore:    "restore",
	EvSweepCell:  "sweep_cell",
	EvSweepGroup: "sweep_group",
}

// String returns the snake_case event name used in JSON snapshots.
func (k EventKind) String() string {
	if int(k) < len(eventKindNames) && eventKindNames[k] != "" {
		return eventKindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// MarshalJSON renders the kind as its name string.
func (k EventKind) MarshalJSON() ([]byte, error) {
	return []byte(`"` + k.String() + `"`), nil
}

// UnmarshalJSON parses a kind name back into its constant (unknown names
// decode to 0 rather than erroring, so snapshots stay forward-compatible).
func (k *EventKind) UnmarshalJSON(b []byte) error {
	s := strings.Trim(string(b), `"`)
	for i, name := range eventKindNames {
		if name == s {
			*k = EventKind(i)
			return nil
		}
	}
	*k = 0
	return nil
}

// Event is one structured trace record. Seq is a monotonic sequence number
// assigned at emission — under concurrent emitters (the actor runtime) the
// interleaving across goroutines is scheduling-dependent, which is legal
// here: the trace describes when the run was observed. Wall is the
// emission wall-clock time in Unix nanoseconds; it exists only in this
// layer and never feeds back into simulation state.
type Event struct {
	Seq   uint64    `json:"seq"`
	Kind  EventKind `json:"kind"`
	Round int32     `json:"round"`
	// A and B identify the event's subjects (actor ids, progress counts);
	// see the EventKind docs. Zero when unused.
	A     int32   `json:"a,omitempty"`
	B     int32   `json:"b,omitempty"`
	Value float64 `json:"value,omitempty"`
	Wall  int64   `json:"wall_ns"`
}

// Trace is a bounded ring of lifecycle events with monotonic sequence
// numbers. Emission takes a short mutex (telemetry is lock-cheap, not
// lock-free; the ring is only ever written when a collector is attached).
// A nil Trace no-ops every emission.
type Trace struct {
	mu   sync.Mutex
	seq  uint64
	ring []Event
	n    int // filled slots, ≤ len(ring)
	next int // ring write cursor
}

// NewTrace builds a trace ring holding the most recent capacity events
// (minimum 16).
func NewTrace(capacity int) *Trace {
	if capacity < 16 {
		capacity = 16
	}
	return &Trace{ring: make([]Event, capacity)}
}

// Emit appends one event, stamping the next sequence number and the
// wall-clock time. Nil-safe.
func (t *Trace) Emit(kind EventKind, round int, a, b int, value float64) {
	if t == nil {
		return
	}
	wall := time.Now().UnixNano() //lint:allow nodeterminism telemetry layer: the wall timestamp annotates the trace record and never feeds back into simulation state
	t.mu.Lock()
	t.seq++
	t.ring[t.next] = Event{
		Seq: t.seq, Kind: kind, Round: int32(round),
		A: int32(a), B: int32(b), Value: value, Wall: wall,
	}
	t.next = (t.next + 1) % len(t.ring)
	if t.n < len(t.ring) {
		t.n++
	}
	t.mu.Unlock()
}

// Seq returns the number of events emitted so far (read-back; forbidden in
// engine code).
func (t *Trace) Seq() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seq
}

// Events returns the retained events in ascending sequence order
// (read-back; forbidden in engine code).
func (t *Trace) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, t.n)
	start := t.next - t.n
	for i := 0; i < t.n; i++ {
		out = append(out, t.ring[((start+i)%len(t.ring)+len(t.ring))%len(t.ring)])
	}
	return out
}
