package obs

import (
	"sync"
	"time"
)

// RecordedEvent is one event — an epoch phase or an applied fault — as
// the flight recorder keeps it: what ran, when (simulated time), in what
// order, and how long it took.
type RecordedEvent struct {
	// Kind is the phase or fault kind ("faults", "crash", ...).
	Kind string `json:"kind"`
	// At is the simulated instant the event was due.
	At time.Time `json:"at"`
	// Seq is the owner's sequence number for the event: the simulator
	// numbers phase k of epoch N as N*phases+k and a fault by its index
	// in FaultScript.Expand; the orchestrator numbers faults from 1 in the
	// order it applies them.
	Seq uint64 `json:"seq"`
	// DurationNs is the event's wall time.
	DurationNs int64 `json:"duration_ns"`
}

// FlightRecorder keeps the most recent events in a fixed-size
// ring buffer for post-mortem inspection: when a fault storm or an
// anomalous epoch shows up in the aggregates, the recorder answers
// "what exactly just happened". Record writes a plain struct into the
// preallocated ring — no allocation — and is mutex-guarded so a live
// scrape can snapshot it while the owner keeps recording.
type FlightRecorder struct {
	mu    sync.Mutex
	ring  []RecordedEvent
	next  int
	count int
	// total counts every event ever recorded (not just the retained
	// window), so wraparound is visible to consumers.
	total uint64
}

// NewFlightRecorder builds a recorder retaining the last n events
// (n <= 0 = DefaultFlightRecorderEvents).
func NewFlightRecorder(n int) *FlightRecorder {
	if n <= 0 {
		n = DefaultFlightRecorderEvents
	}
	return &FlightRecorder{ring: make([]RecordedEvent, n)}
}

// Cap is the ring capacity.
func (r *FlightRecorder) Cap() int { return len(r.ring) }

// Record appends one event, overwriting the oldest once the ring is
// full.
func (r *FlightRecorder) Record(kind string, at time.Time, seq uint64, durationNs int64) {
	r.mu.Lock()
	r.ring[r.next] = RecordedEvent{Kind: kind, At: at, Seq: seq, DurationNs: durationNs}
	r.next++
	if r.next == len(r.ring) {
		r.next = 0
	}
	if r.count < len(r.ring) {
		r.count++
	}
	r.total++
	r.mu.Unlock()
}

// Total is how many events have ever been recorded (retained or
// overwritten).
func (r *FlightRecorder) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Events copies out the retained window, oldest first.
func (r *FlightRecorder) Events() []RecordedEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.eventsLocked()
}

func (r *FlightRecorder) eventsLocked() []RecordedEvent {
	out := make([]RecordedEvent, 0, r.count)
	start := r.next - r.count
	if start < 0 {
		start += len(r.ring)
	}
	for i := 0; i < r.count; i++ {
		out = append(out, r.ring[(start+i)%len(r.ring)])
	}
	return out
}

// RecorderState is the serializable form of a flight recorder, carried
// inside checkpoint envelopes so a restored run keeps its pre-restore
// event window.
type RecorderState struct {
	// Cap is the ring capacity the recorder was built with.
	Cap int `json:"cap"`
	// Total is the all-time recorded-event count.
	Total uint64 `json:"total"`
	// Events is the retained window, oldest first.
	Events []RecordedEvent `json:"events,omitempty"`
}

// State exports the recorder for checkpointing. The returned state
// shares no memory with the recorder.
func (r *FlightRecorder) State() RecorderState {
	r.mu.Lock()
	defer r.mu.Unlock()
	return RecorderState{Cap: len(r.ring), Total: r.total, Events: r.eventsLocked()}
}

// RecorderFromState rebuilds a recorder from an exported state. Events
// beyond the state's capacity are impossible in a State-produced value
// but tolerated: only the newest Cap entries are retained.
func RecorderFromState(st RecorderState) *FlightRecorder {
	r := NewFlightRecorder(st.Cap)
	r.total = st.Total - uint64(len(st.Events))
	for _, ev := range st.Events {
		r.Record(ev.Kind, ev.At, ev.Seq, ev.DurationNs)
	}
	return r
}
