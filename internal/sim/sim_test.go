package sim

import (
	"math"
	"sync"
	"testing"

	"repro/internal/carbon"
	"repro/internal/placement"
)

var (
	worldOnce sync.Once
	world     *World
	worldErr  error
)

func testWorld(t testing.TB) *World {
	t.Helper()
	worldOnce.Do(func() { world, worldErr = NewWorld(42) })
	if worldErr != nil {
		t.Fatal(worldErr)
	}
	return world
}

// shortConfig runs one simulated month to keep tests fast.
func shortConfig(region carbon.Region, pol placement.Policy) Config {
	cfg := DefaultConfig(region, pol)
	cfg.Hours = 24 * 30
	cfg.ArrivalsPerHour = 4
	return cfg
}

func TestRunBasics(t *testing.T) {
	w := testWorld(t)
	res, err := Run(shortConfig(carbon.RegionEurope, placement.CarbonAware{}), w)
	if err != nil {
		t.Fatal(err)
	}
	if res.Placed == 0 {
		t.Fatal("no apps placed in a month of arrivals")
	}
	if res.CarbonG <= 0 || res.EnergyKWh <= 0 {
		t.Errorf("carbon=%v energy=%v, want positive", res.CarbonG, res.EnergyKWh)
	}
	if res.Latency.N() != res.Placed {
		t.Errorf("latency samples %d != placed %d", res.Latency.N(), res.Placed)
	}
	if res.Batches == 0 || res.SolveTime <= 0 {
		t.Errorf("solver telemetry missing: batches=%d time=%v", res.Batches, res.SolveTime)
	}
}

func TestRunDeterministic(t *testing.T) {
	w := testWorld(t)
	cfg := shortConfig(carbon.RegionUS, placement.CarbonAware{})
	cfg.Hours = 24 * 7
	a, err := Run(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if a.CarbonG != b.CarbonG || a.Placed != b.Placed || a.EnergyKWh != b.EnergyKWh {
		t.Errorf("non-deterministic: %v/%v vs %v/%v", a.CarbonG, a.Placed, b.CarbonG, b.Placed)
	}
}

func TestCarbonEdgeBeatsLatencyAware(t *testing.T) {
	// The Figure 11 headline: CarbonEdge saves substantial carbon vs
	// Latency-aware in both regions, at a bounded latency increase.
	w := testWorld(t)
	for _, region := range []carbon.Region{carbon.RegionUS, carbon.RegionEurope} {
		ce, err := Run(shortConfig(region, placement.CarbonAware{}), w)
		if err != nil {
			t.Fatal(err)
		}
		la, err := Run(shortConfig(region, placement.LatencyAware{}), w)
		if err != nil {
			t.Fatal(err)
		}
		s := CompareToBaseline(ce, la)
		if s.CarbonSavingPct < 10 {
			t.Errorf("%v: carbon saving %.1f%%, want >= 10%% (paper: 49.5%%/67.8%%)", region, s.CarbonSavingPct)
		}
		if s.LatencyIncreaseMs < 0 {
			t.Errorf("%v: latency decreased by %.1f ms under CarbonEdge?", region, -s.LatencyIncreaseMs)
		}
		if s.LatencyIncreaseMs > cfg20RTT() {
			t.Errorf("%v: latency increase %.1f ms exceeds the RTT limit", region, s.LatencyIncreaseMs)
		}
	}
}

func cfg20RTT() float64 { return 20 }

func TestEuropeSavesMoreThanUS(t *testing.T) {
	// Paper: Europe sees larger savings (67.8% vs 49.5%) because its
	// zones are greener and more varied.
	w := testWorld(t)
	saving := func(region carbon.Region) float64 {
		ce, err := Run(shortConfig(region, placement.CarbonAware{}), w)
		if err != nil {
			t.Fatal(err)
		}
		la, err := Run(shortConfig(region, placement.LatencyAware{}), w)
		if err != nil {
			t.Fatal(err)
		}
		return CompareToBaseline(ce, la).CarbonSavingPct
	}
	us, eu := saving(carbon.RegionUS), saving(carbon.RegionEurope)
	if eu <= us {
		t.Errorf("EU saving %.1f%% <= US saving %.1f%%, paper reports the opposite ordering", eu, us)
	}
}

func TestLatencyLimitSweepDiminishingReturns(t *testing.T) {
	// Figure 12: savings grow with the latency limit, with diminishing
	// returns; latency overhead grows roughly linearly.
	w := testWorld(t)
	limits := []float64{5, 10, 20, 30}
	savings := make([]float64, len(limits))
	increases := make([]float64, len(limits))
	for i, lim := range limits {
		cfgCE := shortConfig(carbon.RegionEurope, placement.CarbonAware{})
		cfgCE.Hours = 24 * 14
		cfgCE.RTTLimitMs = lim
		ce, err := Run(cfgCE, w)
		if err != nil {
			t.Fatal(err)
		}
		cfgLA := cfgCE
		cfgLA.Policy = placement.LatencyAware{}
		la, err := Run(cfgLA, w)
		if err != nil {
			t.Fatal(err)
		}
		s := CompareToBaseline(ce, la)
		savings[i] = s.CarbonSavingPct
		increases[i] = s.LatencyIncreaseMs
	}
	for i := 1; i < len(limits); i++ {
		if savings[i] < savings[i-1]-3 {
			t.Errorf("savings dropped from %.1f%% to %.1f%% as limit rose %v->%v ms",
				savings[i-1], savings[i], limits[i-1], limits[i])
		}
		if increases[i] < increases[i-1]-2 {
			t.Errorf("latency increase shrank materially as limit rose: %.1f -> %.1f", increases[i-1], increases[i])
		}
	}
	if savings[len(savings)-1] <= savings[0] {
		t.Errorf("loosening 5->30 ms gained nothing: %.1f%% -> %.1f%%", savings[0], savings[len(savings)-1])
	}
}

func TestLoadDistributionShiftsGreen(t *testing.T) {
	// Figure 11c: CarbonEdge's executed load sees lower carbon intensity
	// than Latency-aware's.
	w := testWorld(t)
	cfg := shortConfig(carbon.RegionEurope, placement.CarbonAware{})
	cfg.CollectLoadCI = true
	ce, err := Run(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Policy = placement.LatencyAware{}
	la, err := Run(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if mean(ce.LoadCI) >= mean(la.LoadCI) {
		t.Errorf("CarbonEdge load CI %.0f >= Latency-aware %.0f", mean(ce.LoadCI), mean(la.LoadCI))
	}
}

func TestSeasonalityTracking(t *testing.T) {
	w := testWorld(t)
	cfg := shortConfig(carbon.RegionEurope, placement.CarbonAware{})
	cfg.Hours = 24 * 60 // two months
	res, err := Run(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if res.MonthlyCarbonG[0] <= 0 || res.MonthlyCarbonG[1] <= 0 {
		t.Errorf("monthly carbon = %v, want both months positive", res.MonthlyCarbonG[:2])
	}
	var total float64
	for _, v := range res.MonthlyCarbonG {
		total += v
	}
	if math.Abs(total-res.CarbonG) > 1e-6 {
		t.Errorf("monthly sum %v != total %v", total, res.CarbonG)
	}
	if res.MonthlyPlacements.Len() == 0 {
		t.Error("no monthly placement counts recorded")
	}
}

func TestDemandCapacityScenarios(t *testing.T) {
	// Figure 14: scenario changes must alter outcomes but keep the
	// CarbonEdge advantage.
	w := testWorld(t)
	for _, scn := range []Scenario{Uniform, ByPopulation} {
		cfg := shortConfig(carbon.RegionUS, placement.CarbonAware{})
		cfg.Hours = 24 * 14
		cfg.Demand = scn
		cfg.Capacity = scn
		ce, err := Run(cfg, w)
		if err != nil {
			t.Fatal(err)
		}
		cfgLA := cfg
		cfgLA.Policy = placement.LatencyAware{}
		la, err := Run(cfgLA, w)
		if err != nil {
			t.Fatal(err)
		}
		s := CompareToBaseline(ce, la)
		if s.CarbonSavingPct <= 0 {
			t.Errorf("scenario %v: no carbon saving (%.1f%%)", scn, s.CarbonSavingPct)
		}
	}
}

func TestActivationAccounting(t *testing.T) {
	// With ServersAlwaysOn=false, base power of woken servers accrues,
	// so total energy must exceed the always-counted dynamic energy of
	// an identical run.
	w := testWorld(t)
	cfg := shortConfig(carbon.RegionEurope, placement.CarbonAware{})
	cfg.Hours = 24 * 7
	cfg.ServersAlwaysOn = false
	withBase, err := Run(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ServersAlwaysOn = true
	dynamicOnly, err := Run(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if withBase.EnergyKWh <= dynamicOnly.EnergyKWh {
		t.Errorf("base-power accounting missing: %v <= %v", withBase.EnergyKWh, dynamicOnly.EnergyKWh)
	}
}

func TestConfigValidation(t *testing.T) {
	w := testWorld(t)
	bad := []Config{
		{},
		{Hours: 10},
		{Hours: 10, RTTLimitMs: 20},
		func() Config {
			c := DefaultConfig(carbon.RegionUS, placement.CarbonAware{})
			c.Devices = nil
			return c
		}(),
	}
	// NaN passed the old "<= 0" test of the RTT limit, and the capacity
	// was not checked at all: a NaN capacity placed every app with no
	// capacity bound, and a NaN limit or a negative capacity placed
	// nothing.
	for _, v := range []float64{math.NaN(), math.Inf(1), -5, 0} {
		for _, set := range []func(*Config){
			func(c *Config) { c.RTTLimitMs = v },
			func(c *Config) { c.CapacityMilliPerSite = v },
		} {
			c := DefaultConfig(carbon.RegionUS, placement.CarbonAware{})
			set(&c)
			bad = append(bad, c)
		}
	}
	for i, cfg := range bad {
		if _, err := Run(cfg, w); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestScenarioStrings(t *testing.T) {
	if Uniform.String() != "uniform" || ByPopulation.String() != "population" || BySiteWeight.String() != "site-weight" {
		t.Error("scenario strings wrong")
	}
}

func TestCompareToBaselineEdgeCases(t *testing.T) {
	s := CompareToBaseline(&Result{}, &Result{})
	if s.CarbonSavingPct != 0 || s.EnergyRatio != 0 {
		t.Errorf("empty compare = %+v", s)
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var t float64
	for _, v := range xs {
		t += v
	}
	return t / float64(len(xs))
}

func TestRedeploymentImprovesCarbon(t *testing.T) {
	// §7 extension: with long-lived apps, periodically re-placing them
	// tracks carbon-intensity drift and reduces emissions vs static
	// placement (for free when migration costs nothing).
	w := testWorld(t)
	cfg := shortConfig(carbon.RegionEurope, placement.CarbonAware{})
	cfg.Hours = 24 * 21
	cfg.AppLifetimeHours = 24 * 7 // long-lived: placements go stale
	static, err := Run(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	cfg.RedeployEveryHours = 12
	dynamic, err := Run(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if dynamic.Migrations == 0 {
		t.Fatal("redeployment never migrated anything")
	}
	if dynamic.CarbonG > static.CarbonG*1.02 {
		t.Errorf("redeployment worsened carbon: %.0f vs %.0f g", dynamic.CarbonG, static.CarbonG)
	}
}

func TestMigrationCostAccrued(t *testing.T) {
	w := testWorld(t)
	cfg := shortConfig(carbon.RegionEurope, placement.CarbonAware{})
	cfg.Hours = 24 * 14
	cfg.AppLifetimeHours = 24 * 7
	cfg.RedeployEveryHours = 12
	cfg.MigrationDataMB = 500
	cfg.MigrationJPerMB = 0.2
	res, err := Run(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if res.Migrations == 0 {
		t.Skip("no migrations occurred in this window")
	}
	if res.MigrationKWh <= 0 || res.MigrationCarbonG <= 0 {
		t.Errorf("migration costs not accrued: %v kWh, %v g over %d migrations",
			res.MigrationKWh, res.MigrationCarbonG, res.Migrations)
	}
	wantKWh := float64(res.Migrations) * 500 * 0.2 / 3.6e6
	if math.Abs(res.MigrationKWh-wantKWh) > 1e-9 {
		t.Errorf("migration energy %v kWh, want %v", res.MigrationKWh, wantKWh)
	}
}

func TestRedeploymentPreservesFeasibility(t *testing.T) {
	// After redeployment every live app must still be hosted and server
	// accounting must stay consistent (no capacity leak: a full release/
	// re-place cycle returns used resources to a consistent state).
	w := testWorld(t)
	cfg := shortConfig(carbon.RegionEurope, placement.CarbonAware{})
	cfg.Hours = 24 * 10
	cfg.AppLifetimeHours = 48
	cfg.RedeployEveryHours = 6
	res, err := Run(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if res.Placed == 0 {
		t.Fatal("nothing placed")
	}
	// Determinism must hold with redeployment enabled too.
	res2, err := Run(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if res.CarbonG != res2.CarbonG || res.Migrations != res2.Migrations {
		t.Errorf("redeployment non-deterministic: %v/%d vs %v/%d",
			res.CarbonG, res.Migrations, res2.CarbonG, res2.Migrations)
	}
}
