package experiments

import (
	"math"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/latency"
	"repro/internal/sim"
)

var (
	suiteOnce sync.Once
	suite     *Suite
	suiteErr  error
)

// testSuite shares one world across tests, with a short CDN span so the
// simulation-backed experiments stay fast.
func testSuite(t *testing.T) *Suite {
	t.Helper()
	suiteOnce.Do(func() { suite, suiteErr = NewSuite(42, 24*21) })
	if suiteErr != nil {
		t.Fatal(suiteErr)
	}
	return suite
}

func TestFig1SharesAndSeries(t *testing.T) {
	s := testSuite(t)
	r, err := s.Fig1()
	if err != nil {
		t.Fatal(err)
	}
	// Poland is coal-dominated; Ontario is nuclear+hydro dominated.
	pl := r.Shares["PL"]
	if fossil := pl[5] + pl[6] + pl[7]; fossil < 0.5 {
		t.Errorf("Poland fossil share %.2f, want > 0.5", fossil)
	}
	on := r.Shares["CA-ON"]
	if lowC := on[2] + on[3]; lowC < 0.6 {
		t.Errorf("Ontario hydro+nuclear share %.2f, want > 0.6", lowC)
	}
	for _, id := range r.Zones {
		if len(r.Series[id]) != 96 {
			t.Errorf("%s series %d samples, want 96", id, len(r.Series[id]))
		}
	}
	if !strings.Contains(r.String(), "Figure 1a") {
		t.Error("render missing header")
	}
}

func TestFig2SnapshotOrdering(t *testing.T) {
	s := testSuite(t)
	r, err := s.Fig2()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Snapshots) != 4 {
		t.Fatalf("snapshots = %d", len(r.Snapshots))
	}
	ratios := map[string]float64{}
	for _, snap := range r.Snapshots {
		ratios[snap.Region] = snap.MinMaxRatio
		if snap.MinMaxRatio < 1 {
			t.Errorf("%s ratio %.2f < 1", snap.Region, snap.MinMaxRatio)
		}
	}
	if ratios["Central EU"] <= ratios["Florida"] {
		t.Errorf("Central EU spread (%.1f) should exceed Florida (%.1f)", ratios["Central EU"], ratios["Florida"])
	}
}

func TestFig3Ratios(t *testing.T) {
	s := testSuite(t)
	r, err := s.Fig3()
	if err != nil {
		t.Fatal(err)
	}
	if r.WestRatio < 2 || r.WestRatio > 3.5 {
		t.Errorf("West US ratio %.2f, paper: 2.7", r.WestRatio)
	}
	if r.EURatio < 7 || r.EURatio > 15 {
		t.Errorf("Central EU ratio %.2f, paper: 10.8", r.EURatio)
	}
}

func TestFig4Swings(t *testing.T) {
	s := testSuite(t)
	r, err := s.Fig4()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.ZoneNames) != 5 {
		t.Fatalf("zones = %v", r.ZoneNames)
	}
	for _, name := range r.ZoneNames {
		if len(r.TwoDay[name]) != 48 || len(r.Monthly[name]) != 12 {
			t.Errorf("%s series lengths %d/%d", name, len(r.TwoDay[name]), len(r.Monthly[name]))
		}
	}
	// Kingman's solar reliance gives it a big seasonal swing (paper:
	// ~200 g/kWh between March and November).
	mk := r.Monthly["Kingman"]
	lo, hi := mk[0], mk[0]
	for _, v := range mk {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi-lo < 30 {
		t.Errorf("Kingman seasonal swing %.0f g/kWh, expected substantial", hi-lo)
	}
}

func TestTable1Matrices(t *testing.T) {
	s := testSuite(t)
	r, err := s.Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Florida.Names()) != 5 || len(r.CentralEU.Names()) != 5 {
		t.Fatalf("matrix sizes %d/%d", len(r.Florida.Names()), len(r.CentralEU.Names()))
	}
	lo, hi := oneWaySpan(r.Florida)
	if lo < 0.5 || hi > 12 {
		t.Errorf("Florida latencies [%.1f, %.1f] ms outside paper band", lo, hi)
	}
	lo, hi = oneWaySpan(r.CentralEU)
	if lo < 1 || hi > 25 {
		t.Errorf("Central EU latencies [%.1f, %.1f] ms outside paper band", lo, hi)
	}
}

// oneWaySpan is the least and greatest one-way latency between two
// distinct locations of m.
func oneWaySpan(m *latency.Matrix) (lo, hi float64) {
	lo = math.Inf(1)
	n := len(m.Names())
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			lo, hi = min(lo, m.OneWayMs(i, j)), max(hi, m.OneWayMs(i, j))
		}
	}
	return lo, hi
}

func TestFig5Monotone(t *testing.T) {
	s := testSuite(t)
	r, err := s.Fig5()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Summaries) != 3 {
		t.Fatalf("summaries = %d", len(r.Summaries))
	}
	for i := 1; i < 3; i++ {
		if r.Summaries[i].FracAbove40 < r.Summaries[i-1].FracAbove40 {
			t.Error("saving fraction should grow with radius")
		}
	}
}

func TestFig7Render(t *testing.T) {
	s := testSuite(t)
	r, err := s.Fig7()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Profiles) != 10 {
		t.Errorf("profiles = %d, want 10", len(r.Profiles))
	}
}

func TestFig8And9(t *testing.T) {
	s := testSuite(t)
	r9, err := s.Fig9()
	if err != nil {
		t.Fatal(err)
	}
	if r9.MeanIncreaseMs < 0 {
		t.Errorf("mean response increase %.2f ms negative", r9.MeanIncreaseMs)
	}
	if r9.MaxIncreaseMs > 25 {
		t.Errorf("max response increase %.2f ms, paper reports < 10.1", r9.MaxIncreaseMs)
	}
}

func TestFig10Savings(t *testing.T) {
	s := testSuite(t)
	r, err := s.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	var fl, eu float64
	for _, row := range r.Rows {
		if row.SavingPct <= 0 {
			t.Errorf("%s/%s: no saving (%.1f%%)", row.Region, row.App, row.SavingPct)
		}
		if row.App == "ResNet50" {
			switch row.Region {
			case "Florida":
				fl = row.SavingPct
			case "Central EU":
				eu = row.SavingPct
			}
		}
	}
	if eu <= fl {
		t.Errorf("Central EU saving %.1f%% <= Florida %.1f%% (paper: 78.7%% vs 39.4%%)", eu, fl)
	}
}

func TestFig11HeadlineShape(t *testing.T) {
	s := testSuite(t)
	r, err := s.Fig11()
	if err != nil {
		t.Fatal(err)
	}
	if r.US.CarbonSavingPct < 10 || r.Europe.CarbonSavingPct < 10 {
		t.Errorf("savings US %.1f%% / EU %.1f%%, both should be >= 10%%", r.US.CarbonSavingPct, r.Europe.CarbonSavingPct)
	}
	if r.Europe.CarbonSavingPct <= r.US.CarbonSavingPct {
		t.Errorf("EU %.1f%% <= US %.1f%%", r.Europe.CarbonSavingPct, r.US.CarbonSavingPct)
	}
	if r.US.LatencyIncreaseMs > 20 || r.Europe.LatencyIncreaseMs > 20 {
		t.Errorf("latency increases exceed the RTT limit: %+v", r)
	}
	if len(r.LoadCDF) != 4 {
		t.Errorf("load CDFs = %d series", len(r.LoadCDF))
	}
}

func TestFig12Shape(t *testing.T) {
	s := testSuite(t)
	r, err := s.Fig12()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 6 {
		t.Fatalf("points = %d", len(r.Points))
	}
	first, last := r.Points[0], r.Points[len(r.Points)-1]
	if last.EU.CarbonSavingPct <= first.EU.CarbonSavingPct {
		t.Errorf("EU savings flat across limits: %.1f -> %.1f", first.EU.CarbonSavingPct, last.EU.CarbonSavingPct)
	}
	if last.EU.LatencyIncreaseMs <= first.EU.LatencyIncreaseMs {
		t.Errorf("EU latency overhead should grow with the limit")
	}
}

func TestFig14ScenariosComplete(t *testing.T) {
	s := testSuite(t)
	r, err := s.Fig14()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 6 {
		t.Fatalf("rows = %d, want 2 regions x 3 scenarios", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Savings.CarbonSavingPct <= 0 {
			t.Errorf("%s/%s: saving %.1f%%", row.Region, row.Scenario, row.Savings.CarbonSavingPct)
		}
	}
}

func TestFig15PolicyOrdering(t *testing.T) {
	s := testSuite(t)
	r, err := s.Fig15()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 16 {
		t.Fatalf("rows = %d, want 4 pools x 4 policies", len(r.Rows))
	}
	cell := func(pool, policy string) Fig15Row {
		for _, row := range r.Rows {
			if row.Pool == pool && row.Policy == policy {
				return row
			}
		}
		t.Fatalf("missing cell %s/%s", pool, policy)
		return Fig15Row{}
	}
	// On the heterogeneous pool, CarbonEdge must beat every baseline on
	// carbon (the 98.4%/79%/63% result).
	ce := cell("Hetero.", "CarbonEdge")
	for _, base := range []string{"Latency-aware", "Intensity-aware", "Energy-aware"} {
		if ce.CarbonG >= cell("Hetero.", base).CarbonG {
			t.Errorf("CarbonEdge carbon %.0f >= %s %.0f on Hetero", ce.CarbonG, base, cell("Hetero.", base).CarbonG)
		}
	}
	// Energy-aware must use the least energy on the hetero pool.
	ea := cell("Hetero.", "Energy-aware")
	if ea.EnergyKWh > ce.EnergyKWh {
		t.Errorf("Energy-aware energy %.2f > CarbonEdge %.2f", ea.EnergyKWh, ce.EnergyKWh)
	}
	// Orin pool consumes far less energy than GTX pool under any policy
	// (the 95.6% observation).
	if cell(energyOrin(), "Latency-aware").EnergyKWh >= cell("GTX 1080", "Latency-aware").EnergyKWh {
		t.Error("Orin pool should use less energy than GTX pool")
	}
}

func energyOrin() string { return "Orin Nano" }

func TestFig16TradeoffEndpoints(t *testing.T) {
	s := testSuite(t)
	r, err := s.Fig16()
	if err != nil {
		t.Fatal(err)
	}
	for name, pts := range map[string][]Fig16Point{"low": r.Low, "high": r.High} {
		if len(pts) != 11 {
			t.Fatalf("%s: %d points", name, len(pts))
		}
		// alpha=1 (pure energy) must use no more energy than alpha=0
		// (pure carbon); alpha=0 must emit no more carbon than alpha=1.
		if pts[10].EnergyKWh > pts[0].EnergyKWh+1e-9 {
			t.Errorf("%s: energy at alpha=1 (%.2f) exceeds alpha=0 (%.2f)", name, pts[10].EnergyKWh, pts[0].EnergyKWh)
		}
		if pts[0].CarbonG > pts[10].CarbonG+1e-9 {
			t.Errorf("%s: carbon at alpha=0 (%.0f) exceeds alpha=1 (%.0f)", name, pts[0].CarbonG, pts[10].CarbonG)
		}
	}
}

func TestFig17WithinPaperEnvelope(t *testing.T) {
	s := testSuite(t)
	r, err := s.Fig17()
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range append(append([]Fig17Point{}, r.ByServers...), r.ByApps...) {
		if pt.SolveTime > 3*time.Second {
			t.Errorf("%d servers x %d apps took %v, paper bound is 3 s", pt.Servers, pt.Apps, pt.SolveTime)
		}
		if pt.AllocMB > 200 {
			t.Errorf("%d servers x %d apps allocated %.0f MB, paper bound is 200 MB", pt.Servers, pt.Apps, pt.AllocMB)
		}
	}
}

func TestOverheadWithinPaperScale(t *testing.T) {
	s := testSuite(t)
	r, err := s.Overhead()
	if err != nil {
		t.Fatal(err)
	}
	if r.Batches == 0 {
		t.Fatal("no batches measured")
	}
	// Paper: ~3.3 ms per decision; allow generous slack for CI noise.
	if r.PlacementMs > 500 {
		t.Errorf("placement decision %.1f ms, unexpectedly slow", r.PlacementMs)
	}
}

func TestAblationSolverGapSmall(t *testing.T) {
	s := testSuite(t)
	r, err := s.AblationSolver()
	if err != nil {
		t.Fatal(err)
	}
	if !r.HeurFeasible {
		t.Error("heuristic produced infeasible assignments")
	}
	if r.MeanGapPct > 10 {
		t.Errorf("mean optimality gap %.1f%%, want <= 10%%", r.MeanGapPct)
	}
}

func TestAblationForecastOracleBest(t *testing.T) {
	s := testSuite(t)
	r, err := s.AblationForecast()
	if err != nil {
		t.Fatal(err)
	}
	oracle := r.CarbonG["oracle"]
	for name, v := range r.CarbonG {
		if v < oracle-1e-6 {
			t.Errorf("%s (%.0f g) beat the oracle (%.0f g)", name, v, oracle)
		}
	}
	if len(r.CarbonG) != 3 {
		t.Errorf("forecasters = %d", len(r.CarbonG))
	}
}

func TestAblationBatch(t *testing.T) {
	s := testSuite(t)
	r, err := s.AblationBatch()
	if err != nil {
		t.Fatal(err)
	}
	if r.Batches[1] <= r.Batches[12] {
		t.Errorf("hourly batching (%d invocations) should invoke more than 12-hourly (%d)", r.Batches[1], r.Batches[12])
	}
}

func TestAblationActivation(t *testing.T) {
	s := testSuite(t)
	r, err := s.AblationActivation()
	if err != nil {
		t.Fatal(err)
	}
	// Without the activation term the policy wakes servers freely, so
	// it should consume at least as much energy.
	if r.WithoutKWh < r.WithTermKWh-1e-6 {
		t.Errorf("no-activation energy %.2f kWh below with-term %.2f kWh", r.WithoutKWh, r.WithTermKWh)
	}
}

func TestTrafficScenarios(t *testing.T) {
	s := testSuite(t)
	r, err := s.Traffic()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 12 {
		t.Fatalf("rows = %d, want 2 regions x 3 scenarios x 2 policies", len(r.Rows))
	}
	cell := func(region, scn, pol string) TrafficRow {
		for _, row := range r.Rows {
			if row.Region == region && row.Scenario == scn && row.Policy == pol {
				return row
			}
		}
		t.Fatalf("missing cell %s/%s/%s", region, scn, pol)
		return TrafficRow{}
	}
	for _, row := range r.Rows {
		if row.Requests == 0 {
			t.Errorf("%s/%s/%s: no traffic generated", row.Region, row.Scenario, row.Policy)
		}
		if row.SLOPct < 0 || row.SLOPct > 100 {
			t.Errorf("%s/%s/%s: SLO attainment %.1f%% out of range", row.Region, row.Scenario, row.Policy, row.SLOPct)
		}
		if row.P99Ms < row.P50Ms {
			t.Errorf("%s/%s/%s: p99 %.1f below p50 %.1f", row.Region, row.Scenario, row.Policy, row.P99Ms, row.P50Ms)
		}
		if row.CarbonPerMReqG <= 0 {
			t.Errorf("%s/%s/%s: no per-request carbon", row.Region, row.Scenario, row.Policy)
		}
	}
	// Flash crowds must stress the system harder than the same region and
	// policy under steady load.
	for _, region := range []string{"US", "Europe"} {
		steady := cell(region, "steady", "CarbonEdge")
		flash := cell(region, "flash-crowd", "CarbonEdge")
		if flash.SpillPct+flash.DropPct <= steady.SpillPct+steady.DropPct {
			t.Errorf("%s: flash crowd (%.2f%% degraded) not harder than steady (%.2f%%)",
				region, flash.SpillPct+flash.DropPct, steady.SpillPct+steady.DropPct)
		}
	}
	if !strings.Contains(r.String(), "Traffic scenarios") {
		t.Error("render missing header")
	}
}

func TestTrafficDeterministicAcrossParallelism(t *testing.T) {
	// The traffic family must render bit-identically whether the grid
	// runs serially or on a worker pool (run under -race in CI). A week
	// of simulated traffic is plenty to exercise every scenario shape.
	s := testSuite(t)
	defer func(hours int) { s.Parallel, s.CDNHours = 0, hours }(s.CDNHours)
	s.CDNHours = 24 * 7
	s.Parallel = 1
	serial, err := s.Traffic()
	if err != nil {
		t.Fatal(err)
	}
	s.Parallel = 4
	parallel, err := s.Traffic()
	if err != nil {
		t.Fatal(err)
	}
	if serial.String() != parallel.String() {
		t.Errorf("serial and parallel traffic sweeps diverged:\nserial:\n%s\nparallel:\n%s", serial, parallel)
	}
}

func TestShardedDeterministicAcrossWorkers(t *testing.T) {
	// The sharded family's table (everything except the "~ " wall-clock
	// lines) must be bit-identical whether shard engines step serially
	// or on a worker pool — the CI smoke diffs exactly this, run under
	// -race here.
	s := testSuite(t)
	defer func(hours, shards int) { s.CDNHours, s.Shards = hours, shards }(s.CDNHours, s.Shards)
	s.CDNHours = 24 * 7
	s.Shards = 1
	serial, err := s.Sharded()
	if err != nil {
		t.Fatal(err)
	}
	s.Shards = 4
	parallel, err := s.Sharded()
	if err != nil {
		t.Fatal(err)
	}
	strip := func(out string) string {
		var keep []string
		for _, line := range strings.Split(out, "\n") {
			if !strings.HasPrefix(line, "~ ") {
				keep = append(keep, line)
			}
		}
		return strings.Join(keep, "\n")
	}
	if strip(serial.String()) != strip(parallel.String()) {
		t.Errorf("serial and parallel sharded runs diverged:\nserial:\n%s\nparallel:\n%s", serial, parallel)
	}
	// Rows cover every (region, shard count) cell, and sharding actually
	// exchanged work at counts > 1.
	if want := len(cdnRegions) * len(shardCounts); len(serial.Rows) != want {
		t.Fatalf("sharded family has %d rows, want %d", len(serial.Rows), want)
	}
	var exchanged bool
	for _, row := range serial.Rows {
		if row.Shards > 1 && (row.Forwarded > 0 || row.Spill > 0) {
			exchanged = true
		}
		if row.Digest == "" {
			t.Errorf("row %s x%d has no digest", row.Region, row.Shards)
		}
	}
	if !exchanged {
		t.Error("no cross-shard exchange in any multi-shard row")
	}
}

func TestRegistryComplete(t *testing.T) {
	ids := IDs()
	want := []string{"fig1", "fig2", "fig3", "fig4", "fig5", "fig7", "fig8", "fig9",
		"fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
		"table1", "overhead", "ablation-solver", "ablation-forecast",
		"ablation-batch", "ablation-activation", "traffic", "faults", "longhaul",
		"sharded"}
	have := map[string]bool{}
	for _, id := range ids {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("registry missing %s", id)
		}
	}
	if _, err := RunReport(testSuite(t), "no-such-exp"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// TestNewSuiteRejectsShortSpan: a CDN span under one hour is an error,
// not a silent full year.
func TestNewSuiteRejectsShortSpan(t *testing.T) {
	for _, hours := range []int{0, -1} {
		if s, err := NewSuite(42, hours); err == nil {
			t.Errorf("NewSuite(42, %d) built a suite of %d hours", hours, s.CDNHours)
		}
	}
}

func TestMatchIDs(t *testing.T) {
	got, err := MatchIDs("fig1?")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 8 { // fig10 .. fig17
		t.Errorf("fig1? matched %v", got)
	}
	if got, err := MatchIDs("faults"); err != nil || len(got) != 1 {
		t.Errorf("faults matched %v (%v)", got, err)
	}
	if _, err := MatchIDs("no-such-*"); err == nil {
		t.Error("pattern matching nothing accepted")
	}
	if _, err := MatchIDs("[bad"); err == nil {
		t.Error("invalid pattern accepted")
	}
}

func TestFaultsFamily(t *testing.T) {
	// A week is long enough for every profile's fault window to open and
	// close (offsets scale with the span).
	s := testSuite(t)
	defer func(hours int) { s.CDNHours = hours }(s.CDNHours)
	s.CDNHours = 24 * 7
	r, err := s.Faults()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 20 {
		t.Fatalf("rows = %d, want 2 regions x 5 profiles x 2 policies", len(r.Rows))
	}
	cell := func(region, profile, policy string) FaultsRow {
		for _, row := range r.Rows {
			if row.Region == region && row.Profile == profile && row.Policy == policy {
				return row
			}
		}
		t.Fatalf("missing cell %s/%s/%s", region, profile, policy)
		return FaultsRow{}
	}
	for _, region := range []string{"US", "Europe"} {
		for _, policy := range []string{"CarbonEdge", "Latency-aware"} {
			// Crashing the busiest site must evict and re-place apps; the
			// next redeploy/placement pass absorbs them (none lost: the
			// rest of the fleet has capacity).
			crash := cell(region, "site-crash", policy)
			if crash.Evictions == 0 {
				t.Errorf("%s/%s: site crash evicted nothing", region, policy)
			}
			if crash.Replaced+crash.Lost != crash.Evictions {
				t.Errorf("%s/%s: evictions %d != replaced %d + lost %d",
					region, policy, crash.Evictions, crash.Replaced, crash.Lost)
			}
			if crash.Replaced == 0 {
				t.Errorf("%s/%s: no evicted app recovered", region, policy)
			}
			if crash.OutageEpochs == 0 {
				t.Errorf("%s/%s: no outage epochs recorded", region, policy)
			}
			// A zone outage is at least as disruptive as nothing: outage
			// telemetry must be present.
			if cell(region, "zone-outage", policy).OutageEpochs == 0 {
				t.Errorf("%s/%s: zone outage recorded no outage epochs", region, policy)
			}
			if cell(region, "flash-fleet", policy).ScaleOuts != 2 {
				t.Errorf("%s/%s: flash fleet added %d servers, want 2",
					region, policy, cell(region, "flash-fleet", policy).ScaleOuts)
			}
		}
	}
	for _, row := range r.Rows {
		if row.SLOPct < 0 || row.SLOPct > 100 {
			t.Errorf("%s/%s/%s: SLO %.1f%% out of range", row.Region, row.Profile, row.Policy, row.SLOPct)
		}
	}
	if !strings.Contains(r.String(), "Faults") {
		t.Error("render missing header")
	}
}

func TestFaultsDeterministicAcrossParallelism(t *testing.T) {
	// The faults family must render bit-identically whether the grid runs
	// serially or on a worker pool (run under -race in CI).
	s := testSuite(t)
	defer func(hours int) { s.Parallel, s.CDNHours = 0, hours }(s.CDNHours)
	s.CDNHours = 24 * 5
	s.Parallel = 1
	serial, err := s.Faults()
	if err != nil {
		t.Fatal(err)
	}
	s.Parallel = 4
	parallel, err := s.Faults()
	if err != nil {
		t.Fatal(err)
	}
	if serial.String() != parallel.String() {
		t.Errorf("serial and parallel fault sweeps diverged:\nserial:\n%s\nparallel:\n%s", serial, parallel)
	}
}

func TestFig13Seasonality(t *testing.T) {
	s := testSuite(t)
	r, err := s.Fig13()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.ZoneMonthlyCI["FR-PAR"]) != 12 {
		t.Errorf("Paris monthly CI = %d samples", len(r.ZoneMonthlyCI["FR-PAR"]))
	}
	if _, ok := r.MonthlySavingPct["Europe"]; !ok {
		t.Error("missing Europe monthly savings")
	}
	if !strings.Contains(r.String(), "Figure 13a") {
		t.Error("render missing 13a header")
	}
}

func TestExtRedeploy(t *testing.T) {
	s := testSuite(t)
	r, err := s.ExtRedeploy()
	if err != nil {
		t.Fatal(err)
	}
	if r.Migrations == 0 {
		t.Error("redeployment extension migrated nothing")
	}
	// Redeployment with a realistic (small) data-movement cost should
	// not be materially worse than static placement.
	if r.RedeployCarbonG > r.StaticCarbonG*1.05 {
		t.Errorf("redeployment carbon %.0f g vs static %.0f g", r.RedeployCarbonG, r.StaticCarbonG)
	}
	if !strings.Contains(r.String(), "redeployment") {
		t.Error("render missing header")
	}
}

func TestLonghaulCheckpointVerifies(t *testing.T) {
	// The long-horizon experiment checkpoints hourly and self-verifies
	// the mid-run restore; a week-long span keeps the test fast while
	// exercising redeploys across the checkpoint boundary.
	s := testSuite(t)
	defer func(hours, seq int, exp, dir string) {
		s.CDNHours, s.gridSeq, s.exp, s.CheckpointDir = hours, seq, exp, dir
	}(s.CDNHours, s.gridSeq, s.exp, s.CheckpointDir)
	s.CDNHours = 24 * 7
	s.CheckpointDir = t.TempDir()
	s.beginExperiment("longhaul")
	r, err := s.Longhaul()
	if err != nil {
		t.Fatal(err)
	}
	if !r.ResumeIdentical {
		t.Error("longhaul resume not byte-identical")
	}
	if r.Checkpoints != r.Hours {
		t.Errorf("checkpoints = %d, want one per epoch (%d)", r.Checkpoints, r.Hours)
	}
	if r.RestoreEpoch != r.Hours/2 {
		t.Errorf("restore epoch = %d, want %d", r.RestoreEpoch, r.Hours/2)
	}
	if r.CheckpointFile == "" {
		t.Fatal("no on-disk checkpoint path with CheckpointDir set")
	}
	f, err := os.Open(r.CheckpointFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var snap sim.Snapshot
	if err := checkpoint.Decode(f, "engine", &snap); err != nil {
		t.Fatalf("final checkpoint unreadable: %v", err)
	}
	if snap.Epoch != r.Hours {
		t.Errorf("final on-disk checkpoint at epoch %d, want %d", snap.Epoch, r.Hours)
	}
	if r.String() == "" {
		t.Error("empty rendering")
	}
}

func TestSuiteGridJournalsResume(t *testing.T) {
	// With a checkpoint dir and Resume set, re-declared grids replay
	// their journals instead of re-running; the rendered experiment is
	// identical.
	s := testSuite(t)
	defer func(hours int, dir string, res bool, seq int, exp string) {
		s.CDNHours, s.CheckpointDir, s.Resume, s.gridSeq, s.exp = hours, dir, res, seq, exp
	}(s.CDNHours, s.CheckpointDir, s.Resume, s.gridSeq, s.exp)
	s.CDNHours = 24 * 5
	s.CheckpointDir = t.TempDir()

	first, err := RunReport(s, "fig12")
	if err != nil {
		t.Fatal(err)
	}
	s.Resume = true
	second, err := RunReport(s, "fig12")
	if err != nil {
		t.Fatal(err)
	}
	if first.Value.String() != second.Value.String() {
		t.Errorf("resumed fig12 rendering diverged:\nfirst:\n%s\nsecond:\n%s", first.Value, second.Value)
	}
	// The resumed run was journal-fed: it must be dramatically faster is
	// flaky to assert, but the journals must exist.
	ents, err := os.ReadDir(s.CheckpointDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) == 0 {
		t.Error("no journals written under the checkpoint dir")
	}
}
