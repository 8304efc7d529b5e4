package sim

import (
	"testing"

	"repro/internal/carbon"
	"repro/internal/placement"
)

// runEngine executes a config to completion on a fresh engine.
func runEngine(t *testing.T, cfg Config, w *World) *Result {
	t.Helper()
	e, err := NewEngine(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	for !e.Done() {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	return e.Finish()
}

// TestEngineWarmRedeploy exercises the opt-in warm-started redeploy: the
// run completes, places the same number of apps as the cold redeploy, and
// keeps the result feasible-by-construction (Step would error otherwise).
func TestEngineWarmRedeploy(t *testing.T) {
	w := testWorld(t)
	cfg := shortConfig(carbon.RegionEurope, placement.CarbonAware{})
	cfg.Hours = 24 * 5
	cfg.AppLifetimeHours = 24 * 7
	cfg.RedeployEveryHours = 12
	cold := runEngine(t, cfg, w)
	cfg.WarmRedeploy = true
	warm := runEngine(t, cfg, w)
	if warm.Placed != cold.Placed || warm.Unplaced != cold.Unplaced {
		t.Errorf("warm redeploy placed %d/%d, cold %d/%d",
			warm.Placed, warm.Unplaced, cold.Placed, cold.Unplaced)
	}
	if warm.Batches != cold.Batches {
		t.Errorf("warm redeploy ran %d batches, cold %d", warm.Batches, cold.Batches)
	}
	if warm.CarbonG <= 0 {
		t.Error("warm redeploy accrued no carbon")
	}
}
