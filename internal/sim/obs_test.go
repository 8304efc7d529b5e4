package sim

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/obs"
)

// obsOn returns cfg with default observability enabled.
func obsOn(cfg Config) Config {
	cfg.Obs = &obs.Config{}
	return cfg
}

// TestObsZeroAlloc is the observability allocation gate: the epoch hot
// loop must stay inside the same steady-state budget as the untraced
// loop with the tracer and its alloc probes on.
func TestObsZeroAlloc(t *testing.T) {
	for name, cfg := range allocModes(300) {
		t.Run(name, func(t *testing.T) {
			if got, _ := epochAllocs(t, obsOn(cfg), 24*3, 24*9); got > epochAllocBudget {
				t.Errorf("traced steady-state allocations per epoch = %.2f, budget %.1f", got, epochAllocBudget)
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
	if got, want := len(rep), len(phaseNames); got != want {
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

// TestObsRecorderCheckpointRoundTrip: testdata/faults_traced_epoch35.ckpt
// is the faults-mode envelope at epoch 35 of a traced run, between the
// crash (30 h) and its recover (40 h), written while snapshots still
// carried the engine's flight recorder under "recorder". It must still
// decode and restore into a traced config, and the run must go on to the
// uninterrupted Result.
func TestObsRecorderCheckpointRoundTrip(t *testing.T) {
	w := testWorld(t)
	cfg := obsOn(checkpointModes(t, w)[3])
	const cut = 35

	env, err := os.ReadFile(filepath.Join("testdata", "faults_traced_epoch35.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(env, []byte(`"recorder":`)) {
		t.Fatal("fixture carries no recorder")
	}
	var snap Snapshot
	if err := checkpoint.Decode(bytes.NewReader(env), "engine", &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Epoch != cut {
		t.Fatalf("fixture at epoch %d, want %d", snap.Epoch, cut)
	}
	restored, err := NewEngineFrom(cfg, w, &snap)
	if err != nil {
		t.Fatal(err)
	}
	donor, err := NewEngine(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	wantState, err := finalState(donor)
	if err != nil {
		t.Fatal(err)
	}
	gotState, err := finalState(restored)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotState, wantState) {
		t.Fatal("restored traced run diverged from the uninterrupted one")
	}
}

// TestObsRestoreWithoutObs checks the obs/no-obs checkpoint corners: a
// traced snapshot restores into an untraced config, and an untraced
// snapshot restores into a traced config.
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
	if plain.Tracer() != nil {
		t.Fatal("untraced restore grew a tracer")
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
	rt, err := NewEngineFrom(obsOn(cfg), w, bare.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if rt.Tracer() == nil {
		t.Fatal("traced restore from untraced snapshot has no tracer")
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
