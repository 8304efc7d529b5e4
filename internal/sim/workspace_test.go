package sim

import (
	"testing"

	"repro/internal/carbon"
	"repro/internal/energy"
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

// TestStrandedRedeployViewsOnce holds a cold redeploy whose construct
// strands a running app to one workspace view: the identity fallback
// solves the view the cold solve used, and each solve still counts one
// batch. On the churn shape (a fleet the cold greedy cannot always
// repack) an epoch builds at most a placement view and a redeploy view,
// and solves each once, except for one second solve when the redeploy
// falls back.
func TestStrandedRedeployViewsOnce(t *testing.T) {
	cfg := DefaultConfig(carbon.RegionUS, placement.CarbonAware{})
	cfg.Hours = 120
	cfg.ArrivalsPerHour = 120
	cfg.AppLifetimeHours = 72
	cfg.RedeployEveryHours = 6
	cfg.Devices = []string{energy.A2.Name, energy.GTX1080.Name, energy.OrinNano.Name}
	e, err := NewEngine(cfg, testWorld(t))
	if err != nil {
		t.Fatal(err)
	}
	fallbacks := 0
	for !e.Done() {
		views, batches := e.views, e.res.Batches
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
		dv, db := e.views-views, e.res.Batches-batches
		if dv > 2 || db < dv || db > dv+1 {
			t.Fatalf("epoch %d built %d views for %d solves", e.epoch-1, dv, db)
		}
		fallbacks += db - dv
	}
	if fallbacks == 0 {
		t.Fatal("no cold redeploy stranded an app: the check is vacuous")
	}
	t.Logf("%d of %d solves fell back to the identity seed on the cold solve's view", fallbacks, e.res.Batches)
}
