// Package events holds the world-dynamics vocabulary both drivers share:
// declarative fault scripts (Fault, FaultScript) and the FaultQueue that
// the simulator's faults phase and the orchestrator's tick drain in
// (due instant, insertion order). Neither driver schedules closures: the
// simulator runs a fixed phase list per epoch, and the orchestrator a
// fixed tick sequence.
//
// Timeline is a general (At, Seq)-ordered scheduler of closures. No
// driver uses it; the performance ledger probes its dispatch cost.
//
// # Determinism contract
//
// Both queues are pure functions of their insertion calls. A Timeline
// dispatches in ascending (At, Seq) order, where Seq is the schedule
// sequence number, and a FaultQueue pops in (At, insertion order): two
// entries due at the same instant come out in the order they went in,
// never in heap or map order. The package reads no wall clock and uses no
// randomness.
package events

import (
	"time"
)

// Apply is an event's action, invoked with the simulated instant the
// event fires at. Apply functions must not read the wall clock; any
// state they need should be captured at schedule time or derived from at.
type Apply func(at time.Time) error

// Event is one scheduled action on a timeline.
type Event struct {
	// At is the simulated instant the event is due.
	At time.Time
	// Seq is the schedule sequence number: the total order tie-break for
	// events due at the same instant.
	Seq uint64
	// Kind labels the event for telemetry and debugging.
	Kind string
	// Apply performs the event.
	Apply Apply
}

// Timeline is a deterministic priority-queue scheduler ordered by
// (At, Seq). The zero value is ready to use. A Timeline is not safe for
// concurrent use.
//
// The heap is hand-rolled rather than container/heap: the stdlib
// interface boxes every Event through interface{} on Push and Pop, which
// is two heap allocations per scheduled event.
type Timeline struct {
	h   eventHeap
	seq uint64
}

// NewTimeline returns an empty timeline.
func NewTimeline() *Timeline { return &Timeline{} }

// Schedule enqueues an event and returns its sequence number.
func (t *Timeline) Schedule(at time.Time, kind string, fn Apply) uint64 {
	seq := t.seq
	t.seq++
	t.h = append(t.h, Event{At: at, Seq: seq, Kind: kind, Apply: fn})
	t.h.up(len(t.h) - 1)
	return seq
}

// Len reports the number of pending events.
func (t *Timeline) Len() int { return len(t.h) }

// NextAt returns the due instant of the earliest pending event; ok is
// false when the timeline is empty.
func (t *Timeline) NextAt() (at time.Time, ok bool) {
	if len(t.h) == 0 {
		return time.Time{}, false
	}
	return t.h[0].At, true
}

// ProcessNext pops and applies the earliest event due at or before now.
// ok reports whether an event was processed; the event is returned either
// way so callers can attribute an Apply error to its kind. Step loops are
// thin wrappers over it:
//
//	for ev, ok, err := tl.ProcessNext(now); ok; ev, ok, err = tl.ProcessNext(now) {
//		if err != nil { ... ev.Kind ... }
//	}
func (t *Timeline) ProcessNext(now time.Time) (ev Event, ok bool, err error) {
	ev, ok = t.PopDue(now)
	if !ok {
		return Event{}, false, nil
	}
	return ev, true, ev.Apply(now)
}

// PopDue removes and returns the earliest event due at or before now, in
// (At, Seq) order; ok is false when no pending event is due. The typical
// dispatch loop is:
//
//	for ev, ok := tl.PopDue(now); ok; ev, ok = tl.PopDue(now) {
//		if err := ev.Apply(now); err != nil { ... }
//	}
func (t *Timeline) PopDue(now time.Time) (ev Event, ok bool) {
	if len(t.h) == 0 || t.h[0].At.After(now) {
		return Event{}, false
	}
	ev = t.h[0]
	n := len(t.h) - 1
	t.h[0] = t.h[n]
	t.h[n] = Event{} // release the Apply closure for GC
	t.h = t.h[:n]
	if n > 0 {
		t.h.down(0)
	}
	return ev, true
}

// eventHeap is a binary min-heap of events ordered by (At, Seq).
type eventHeap []Event

func (h eventHeap) less(i, j int) bool {
	if !h[i].At.Equal(h[j].At) {
		return h[i].At.Before(h[j].At)
	}
	return h[i].Seq < h[j].Seq
}

// up restores the heap property after appending at index i.
func (h eventHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// down restores the heap property after replacing the element at index i.
func (h eventHeap) down(i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		min := l
		if r := l + 1; r < n && h.less(r, l) {
			min = r
		}
		if !h.less(min, i) {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}
