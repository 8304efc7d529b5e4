package obs

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"
)

func TestTracerAccumulates(t *testing.T) {
	tr := NewTracer([]string{"a", "b"}, -1)
	for i := 0; i < 3; i++ {
		p := tr.Begin(0)
		tr.End(0, p)
	}
	p := tr.Begin(1)
	tr.End(1, p)

	rep := tr.Report()
	if len(rep) != 2 {
		t.Fatalf("got %d phases, want 2", len(rep))
	}
	if rep[0].Name != "a" || rep[0].Calls != 3 {
		t.Errorf("phase a: %+v, want 3 calls", rep[0])
	}
	if rep[1].Name != "b" || rep[1].Calls != 1 {
		t.Errorf("phase b: %+v, want 1 call", rep[1])
	}
	if rep[0].TotalNs < 0 || rep[0].MaxNs < 0 {
		t.Errorf("negative timing: %+v", rep[0])
	}
	if rep[0].MaxNs > rep[0].TotalNs {
		t.Errorf("max %d exceeds total %d", rep[0].MaxNs, rep[0].TotalNs)
	}
}

func TestTracerAllocProbes(t *testing.T) {
	// Probe every call: a phase that allocates ~1 MiB per call must show
	// a visibly large sampled allocation volume.
	tr := NewTracer([]string{"alloc"}, 1)
	var sink [][]byte
	for i := 0; i < 4; i++ {
		p := tr.Begin(0)
		sink = append(sink, make([]byte, 1<<20))
		tr.End(0, p)
	}
	_ = sink
	rep := tr.Report()[0]
	if rep.AllocProbes != 4 {
		t.Fatalf("alloc probes = %d, want 4", rep.AllocProbes)
	}
	if rep.AllocBytes < 4<<20 {
		t.Errorf("sampled alloc bytes = %d, want >= %d", rep.AllocBytes, 4<<20)
	}
	if per := rep.AllocBytesPerCall(); per < 1<<20 {
		t.Errorf("alloc bytes per call = %.0f, want >= %d", per, 1<<20)
	}
}

func TestTracerBeginEndZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name  string
		every int
	}{
		{"probes-off", -1},
		{"probes-every-call", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := NewTracer([]string{"p"}, tc.every)
			if got := testing.AllocsPerRun(1000, func() {
				p := tr.Begin(0)
				tr.End(0, p)
			}); got != 0 {
				t.Errorf("Begin/End allocates %.2f per call, want 0", got)
			}
		})
	}
}

func TestTracerMerge(t *testing.T) {
	agg := NewTracer([]string{"a", "b"}, -1)
	w1 := NewTracer([]string{"a", "b"}, -1)
	w2 := NewTracer([]string{"a", "b"}, -1)
	for i := 0; i < 2; i++ {
		p := w1.Begin(0)
		w1.End(0, p)
	}
	p := w2.Begin(0)
	w2.End(0, p)
	p = w2.Begin(1)
	w2.End(1, p)

	if err := agg.Merge(w1); err != nil {
		t.Fatal(err)
	}
	if err := agg.Merge(w2); err != nil {
		t.Fatal(err)
	}
	rep := agg.Report()
	if rep[0].Calls != 3 || rep[1].Calls != 1 {
		t.Errorf("merged calls = %d/%d, want 3/1", rep[0].Calls, rep[1].Calls)
	}
	want := w1.Report()[0].TotalNs + w2.Report()[0].TotalNs
	if rep[0].TotalNs != want {
		t.Errorf("merged total = %d, want %d", rep[0].TotalNs, want)
	}

	if err := agg.Merge(NewTracer([]string{"a"}, -1)); err == nil {
		t.Error("merging mismatched phase count succeeded")
	}
	if err := agg.Merge(NewTracer([]string{"a", "c"}, -1)); err == nil {
		t.Error("merging mismatched phase names succeeded")
	}
}

func TestTracerMergeOrderIndependent(t *testing.T) {
	// The shard coordinator merges per-shard tracers into one aggregate
	// in shard-index order, but the guarantee must not depend on it:
	// every accumulator is a sum or a max, so any merge order yields the
	// same report.
	mk := func(calls0, calls1 int) *Tracer {
		w := NewTracer([]string{"a", "b"}, -1)
		for i := 0; i < calls0; i++ {
			w.End(0, w.Begin(0))
		}
		for i := 0; i < calls1; i++ {
			w.End(1, w.Begin(1))
		}
		return w
	}
	workers := []*Tracer{mk(3, 1), mk(1, 4), mk(2, 2)}

	forward := NewTracer([]string{"a", "b"}, -1)
	for _, w := range workers {
		if err := forward.Merge(w); err != nil {
			t.Fatal(err)
		}
	}
	backward := NewTracer([]string{"a", "b"}, -1)
	for i := len(workers) - 1; i >= 0; i-- {
		if err := backward.Merge(workers[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(forward.Report(), backward.Report()) {
		t.Errorf("merge order changed the report:\nforward:  %+v\nbackward: %+v",
			forward.Report(), backward.Report())
	}
	if got := forward.Report()[0].Calls; got != 6 {
		t.Errorf("phase a calls = %d, want 6", got)
	}
	if got := forward.Report()[1].Calls; got != 7 {
		t.Errorf("phase b calls = %d, want 7", got)
	}
}

func TestRecorderWraparound(t *testing.T) {
	r := NewFlightRecorder(4)
	base := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 10; i++ {
		r.Record("ev", base.Add(time.Duration(i)*time.Hour), uint64(i), int64(i))
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		if want := uint64(6 + i); ev.Seq != want {
			t.Errorf("event %d seq = %d, want %d (oldest-first window)", i, ev.Seq, want)
		}
	}
}

func TestRecorderPartialWindow(t *testing.T) {
	r := NewFlightRecorder(8)
	r.Record("a", time.Time{}, 1, 0)
	r.Record("b", time.Time{}, 2, 0)
	evs := r.Events()
	if len(evs) != 2 || evs[0].Kind != "a" || evs[1].Kind != "b" {
		t.Fatalf("partial window = %+v", evs)
	}
}

// TestRecorderStateRoundTrip: the recorder's state leaves it only as the
// window Events copies out, which round-trips through JSON as the
// orchestrator's /api/v1/obs serves it, shares no memory with the ring,
// and leaves the ring wrapping on.
func TestRecorderStateRoundTrip(t *testing.T) {
	r := NewFlightRecorder(3)
	base := time.Date(2024, 6, 1, 12, 0, 0, 0, time.UTC)
	for i := 0; i < 5; i++ {
		r.Record("crash", base.Add(time.Duration(i)*time.Minute), uint64(i), int64(100+i))
	}
	window := r.Events()
	raw, err := json.Marshal(window)
	if err != nil {
		t.Fatal(err)
	}
	var decoded []RecordedEvent
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(decoded, window) {
		t.Errorf("window round trip diverged:\n  got  %+v\n  want %+v", decoded, window)
	}

	window[0].Kind = "doctored"
	if r.Events()[0].Kind != "crash" {
		t.Error("the copied-out window shares memory with the ring")
	}
	r.Record("recover", base.Add(time.Hour), 9, 7)
	evs := r.Events()
	if len(evs) != 3 || evs[2].Kind != "recover" || evs[0].Seq != 3 {
		t.Errorf("recording after a copy-out broken: %+v", evs)
	}
}

func TestRecorderRecordZeroAlloc(t *testing.T) {
	r := NewFlightRecorder(16)
	at := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	if got := testing.AllocsPerRun(1000, func() {
		r.Record("ev", at, 1, 10)
	}); got != 0 {
		t.Errorf("Record allocates %.2f per call, want 0", got)
	}
}
