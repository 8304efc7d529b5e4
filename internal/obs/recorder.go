package obs

import (
	"sync"
	"time"
)

// RecordedEvent is one applied fault as the orchestrator's flight
// recorder keeps it: what ran, when (simulated time), in what order, and
// how long it took.
type RecordedEvent struct {
	// Kind is the fault kind ("crash", "degrade", ...).
	Kind string `json:"kind"`
	// At is the simulated instant the event was due.
	At time.Time `json:"at"`
	// Seq numbers the orchestrator's faults from 1 in the order it
	// applies them.
	Seq uint64 `json:"seq"`
	// DurationNs is the event's wall time.
	DurationNs int64 `json:"duration_ns"`
}

// FlightRecorder keeps the most recent events in a fixed-size
// ring buffer for post-mortem inspection: when a fault storm shows up
// in the aggregates, the recorder answers
// "what exactly just happened". Record writes a plain struct into the
// preallocated ring — no allocation — and is mutex-guarded so a live
// scrape can snapshot it while the owner keeps recording.
type FlightRecorder struct {
	mu    sync.Mutex
	ring  []RecordedEvent
	next  int
	count int
}

// NewFlightRecorder builds a recorder retaining the last n events
// (n <= 0 = DefaultFlightRecorderEvents).
func NewFlightRecorder(n int) *FlightRecorder {
	if n <= 0 {
		n = DefaultFlightRecorderEvents
	}
	return &FlightRecorder{ring: make([]RecordedEvent, n)}
}

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
	r.mu.Unlock()
}

// Events copies out the retained window, oldest first.
func (r *FlightRecorder) Events() []RecordedEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
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
