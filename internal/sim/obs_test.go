package sim

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/obs"
)

// obsOn returns cfg with default observability enabled.
func obsOn(cfg Config) Config {
	cfg.Obs = &obs.Config{}
	return cfg
}

// TestObsZeroAlloc is the observability allocation gate: the epoch hot
// loop must stay inside the same steady-state budget as the untraced
// loop with the tracer, alloc probes, and flight recorder all on.
func TestObsZeroAlloc(t *testing.T) {
	const budget = 2.0
	for name, cfg := range allocModes(300) {
		t.Run(name, func(t *testing.T) {
			if got := epochAllocs(t, obsOn(cfg), 24*3, 24*9); got > budget {
				t.Errorf("traced steady-state allocations per epoch = %.2f, budget %.1f", got, budget)
			}
		})
	}
}

// TestObsByteIdentical locks in that tracing is pure telemetry: every
// mode produces byte-identical results with observability on and off.
func TestObsByteIdentical(t *testing.T) {
	w := allocWorld(t)
	for name, cfg := range allocModes(300) {
		t.Run(name, func(t *testing.T) {
			cfg.Hours = 24 * 6
			plain, err := NewEngine(cfg, w)
			if err != nil {
				t.Fatal(err)
			}
			want, err := finalState(plain)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := NewEngine(obsOn(cfg), w)
			if err != nil {
				t.Fatal(err)
			}
			got, err := finalState(traced)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatal("traced run diverged from untraced run")
			}
		})
	}
}

// TestObsTracerReport checks the tracer sees every scheduled phase with
// plausible accumulators over a faults-mode run (the mode that schedules
// all eight phases).
func TestObsTracerReport(t *testing.T) {
	cfg := obsOn(allocModes(50)["faults"])
	cfg.Hours = 24 * 3
	e, err := NewEngine(cfg, allocWorld(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := finalState(e); err != nil {
		t.Fatal(err)
	}
	rep := e.Tracer().Report()
	if got, want := len(rep), len(PhaseNames()); got != want {
		t.Fatalf("tracer has %d phases, want %d", got, want)
	}
	for _, ps := range rep {
		if ps.Calls != int64(cfg.Hours) {
			t.Errorf("phase %s ran %d times, want %d", ps.Name, ps.Calls, cfg.Hours)
		}
		if ps.TotalNs < 0 || ps.MaxNs < 0 || ps.TotalNs < ps.MaxNs {
			t.Errorf("phase %s has inconsistent timings: total=%d max=%d", ps.Name, ps.TotalNs, ps.MaxNs)
		}
		if ps.AllocProbes == 0 {
			t.Errorf("phase %s was never alloc-probed", ps.Name)
		}
	}
}

// TestObsRecorderCheckpointRoundTrip proves the flight recorder survives
// a checkpoint: snapshot a traced faults run mid-flight — between the
// crash and its recover — push the snapshot through JSON (the checkpoint
// envelope), restore, and compare the recorded windows; then run both
// to the end and require the restored run to have recorded exactly the
// donor's (Kind, At, Seq) sequence, phases and faults alike. The ring
// holds the whole run, so every event after the restore is compared.
func TestObsRecorderCheckpointRoundTrip(t *testing.T) {
	w := allocWorld(t)
	cfg := obsOn(allocModes(50)["faults"])
	cfg.Hours = 24 * 4
	cfg.Obs.FlightRecorderEvents = 1024
	const cut = 30 // between the crash (24 h) and its recover (36 h)

	e, err := NewEngine(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	for e.Epoch() < cut {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	snap := e.Snapshot()
	if snap.Recorder == nil {
		t.Fatal("snapshot carries no recorder state")
	}
	if snap.Recorder.Total == 0 || len(snap.Recorder.Events) == 0 {
		t.Fatal("recorder state is empty at mid-run")
	}
	kinds := map[string]bool{}
	for _, ev := range snap.Recorder.Events {
		kinds[ev.Kind] = true
	}
	if !kinds["accrual"] {
		t.Errorf("recorded window %v misses the accrual phase", kinds)
	}

	raw, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var decoded Snapshot
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	restored, err := NewEngineFrom(cfg, w, &decoded)
	if err != nil {
		t.Fatal(err)
	}
	rec := restored.FlightRecorder()
	if rec == nil {
		t.Fatal("restored engine has no recorder")
	}
	if !reflect.DeepEqual(rec.Events(), e.FlightRecorder().Events()) {
		t.Fatal("restored recorder window differs from donor's")
	}
	if rec.Total() != e.FlightRecorder().Total() {
		t.Fatalf("restored recorder total = %d, donor %d", rec.Total(), e.FlightRecorder().Total())
	}

	// The restored ring keeps recording — and the trajectory is still the
	// donor's.
	for !restored.Done() {
		if err := restored.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if rec.Total() <= snap.Recorder.Total {
		t.Fatal("restored recorder did not advance after restore")
	}
	wantState, err := finalState(e)
	if err != nil {
		t.Fatal(err)
	}
	gotState := restored.Finish().State()
	gotState.SolveTimeNs = 0
	if !reflect.DeepEqual(gotState, wantState) {
		t.Fatal("restored traced run diverged from donor")
	}
	untimed := func(evs []obs.RecordedEvent) []obs.RecordedEvent {
		for i := range evs {
			evs[i].DurationNs = 0
		}
		return evs
	}
	got, want := untimed(rec.Events()), untimed(e.FlightRecorder().Events())
	if len(want) != cfg.Hours*8+2 {
		t.Fatalf("donor recorded %d events, want %d phases and 2 faults", len(want), cfg.Hours*8)
	}
	if !reflect.DeepEqual(got, want) {
		for i := range want {
			if i >= len(got) || got[i] != want[i] {
				t.Fatalf("restored run's recorder diverges from the donor's at event %d: %+v, want %+v", i, got[min(i, len(got)-1)], want[i])
			}
		}
		t.Fatalf("restored run recorded %d events, donor %d", len(got), len(want))
	}
}

// TestObsRestoreWithoutObs checks the obs/no-obs checkpoint corners: a
// traced snapshot restores into an untraced config (recorder state is
// simply dropped), and an untraced snapshot restores into a traced
// config (the recorder starts empty).
func TestObsRestoreWithoutObs(t *testing.T) {
	w := allocWorld(t)
	cfg := allocModes(50)["faults"]
	cfg.Hours = 24 * 2

	traced, err := NewEngine(obsOn(cfg), w)
	if err != nil {
		t.Fatal(err)
	}
	for traced.Epoch() < cfg.Hours/2 {
		if err := traced.Step(); err != nil {
			t.Fatal(err)
		}
	}
	plain, err := NewEngineFrom(cfg, w, traced.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if plain.FlightRecorder() != nil {
		t.Fatal("untraced restore grew a recorder")
	}

	bare, err := NewEngine(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	for bare.Epoch() < cfg.Hours/2 {
		if err := bare.Step(); err != nil {
			t.Fatal(err)
		}
	}
	snap := bare.Snapshot()
	if snap.Recorder != nil {
		t.Fatal("untraced snapshot carries recorder state")
	}
	rt, err := NewEngineFrom(obsOn(cfg), w, snap)
	if err != nil {
		t.Fatal(err)
	}
	if rt.FlightRecorder() == nil || rt.FlightRecorder().Total() != 0 {
		t.Fatal("traced restore from untraced snapshot should start an empty recorder")
	}
}

// BenchmarkEpochAllocsObs is BenchmarkEpochAllocs with full
// observability on — the per-epoch tracing overhead.
func BenchmarkEpochAllocsObs(b *testing.B) {
	for name, cfg := range allocModes(300) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			cfg := obsOn(cfg)
			cfg.Hours = 24*3 + b.N
			e, err := NewEngine(cfg, allocWorld(b))
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < 24*3; i++ {
				if err := e.Step(); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := e.Step(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
