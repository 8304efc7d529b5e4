package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one interval the benchmark timed around a call into a layer.
// Spans of one rep share Rep; Parent is the enclosing span (-1 at the
// top), so a layer's self time is its span minus its children.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Rep     int    `json:"rep"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder is
// the untraced pass: begin and end return at once without reading the
// clock, so the same driving code serves both passes.
type recorder struct {
	t0    time.Time
	rep   int
	spans []span
	open  []int
}

// newRecorder sizes the span buffer for a simulated year of Steps, so
// the traced rep does not pay for regrowing it.
func newRecorder() *recorder {
	return &recorder{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (r *recorder) begin(name string) int {
	if r == nil {
		return -1
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Rep: r.rep})
	r.open = append(r.open, id)
	r.spans[id].StartNs = int64(time.Since(r.t0))
	return id
}

// end closes the span begin returned and reports its duration (0 when
// untraced).
func (r *recorder) end(id int) time.Duration {
	if r == nil {
		return 0
	}
	s := &r.spans[id]
	s.EndNs = int64(time.Since(r.t0))
	r.open = r.open[:len(r.open)-1]
	return time.Duration(s.EndNs - s.StartNs)
}

func (r *recorder) write(path string) error {
	b, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
