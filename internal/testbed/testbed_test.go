package testbed

import (
	"sync"
	"testing"

	"repro/internal/carbon"
	"repro/internal/energy"
	"repro/internal/latency"
	"repro/internal/placement"
)

var (
	setupOnce sync.Once
	zonesReg  *carbon.Registry
	traceSet  *carbon.TraceSet
	cityReg   *latency.CityRegistry
	setupErr  error
)

func setup(t *testing.T) (*carbon.Registry, *carbon.TraceSet, *latency.CityRegistry) {
	t.Helper()
	setupOnce.Do(func() {
		zonesReg, setupErr = carbon.DefaultRegistry(42)
		if setupErr != nil {
			return
		}
		traceSet = carbon.NewGenerator(42).GenerateTraces(zonesReg)
		cityReg, setupErr = latency.DefaultCityRegistry()
	})
	if setupErr != nil {
		t.Fatal(setupErr)
	}
	return zonesReg, traceSet, cityReg
}

func newTB(t *testing.T, region Region, pol placement.Policy) *Testbed {
	t.Helper()
	zones, traces, cities := setup(t)
	tb, err := New(Config{
		Region: region, Zones: zones, Traces: traces, Cities: cities, Policy: pol,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestNewValidation(t *testing.T) {
	zones, traces, cities := setup(t)
	if _, err := New(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	bad := Florida()
	bad.DCs[0].City = "Atlantis"
	if _, err := New(Config{Region: bad, Zones: zones, Traces: traces, Cities: cities}); err == nil {
		t.Error("unknown city accepted")
	}
	bad2 := Florida()
	bad2.DCs[0].ZoneID = "NOPE"
	if _, err := New(Config{Region: bad2, Zones: zones, Traces: traces, Cities: cities}); err == nil {
		t.Error("unknown zone accepted")
	}
}

func TestTestbedTopology(t *testing.T) {
	tb := newTB(t, Florida(), placement.CarbonAware{})
	if got := len(tb.Cluster.DataCenters()); got != 5 {
		t.Errorf("DCs = %d, want 5", got)
	}
	// Each DC has a GPU server and a CPU host (the R630 + A2 pairing).
	for _, dc := range tb.Cluster.DataCenters() {
		if got := len(dc.Servers()); got != 2 {
			t.Errorf("%s has %d servers, want 2", dc.ID, got)
		}
	}
	// Latency between Miami and Tallahassee loaded into the shaper.
	if tb.Shaper.OneWay("Miami", "Tallahassee") <= 0 {
		t.Error("shaper missing Miami-Tallahassee delay")
	}
}

func TestRunDayCarbonEdgeConsolidatesOnGreenest(t *testing.T) {
	// Figure 8c: CarbonEdge places all Florida apps in the greenest zone
	// (Miami in the paper; our calibrated Miami is also the greenest).
	tb := newTB(t, Florida(), placement.CarbonAware{})
	day, err := tb.RunDay(energy.ModelResNet50, 10, 20)
	if err != nil {
		t.Fatal(err)
	}
	hostCounts := map[string]int{}
	for _, host := range day.HostCity {
		hostCounts[host]++
	}
	if len(hostCounts) != 1 {
		t.Errorf("CarbonEdge scattered apps across %v, expected consolidation", hostCounts)
	}
	if hostCounts["Miami"] != 5 {
		t.Errorf("hosts = %v, expected all 5 on Miami", hostCounts)
	}
}

func TestRunDayLatencyAwareStaysLocal(t *testing.T) {
	// Figure 8b: latency-aware keeps each app at its source DC, so
	// emissions track each zone's own carbon intensity.
	tb := newTB(t, Florida(), placement.LatencyAware{})
	day, err := tb.RunDay(energy.ModelResNet50, 10, 20)
	if err != nil {
		t.Fatal(err)
	}
	for app, host := range day.HostCity {
		want := app[len("app-"):]
		if host != want {
			t.Errorf("%s hosted at %s, want %s", app, host, want)
		}
	}
	// Local placement -> response time = inference only (0 network RTT).
	for app, ms := range day.ResponseMsByApp {
		prof, _ := energy.ProfileFor(energy.ModelResNet50, energy.A2.Name)
		if ms != prof.InferenceMs {
			t.Errorf("%s response %v ms, want pure inference %v", app, ms, prof.InferenceMs)
		}
	}
}

func TestFig10CarbonSavingsAndLatency(t *testing.T) {
	// Figure 10: CarbonEdge cuts emissions vs Latency-aware in both
	// regions (39.4% Florida, 78.7% Central EU) with bounded response-
	// time increases (6.6 ms / 10.5 ms round trip).
	for _, tc := range []struct {
		region     Region
		minSavePct float64
		maxIncrMs  float64
	}{
		{Florida(), 15, 15},
		{CentralEU(), 50, 25},
	} {
		ce, err := newTB(t, tc.region, placement.CarbonAware{}).RunDay(energy.ModelResNet50, 10, 20)
		if err != nil {
			t.Fatal(err)
		}
		la, err := newTB(t, tc.region, placement.LatencyAware{}).RunDay(energy.ModelResNet50, 10, 20)
		if err != nil {
			t.Fatal(err)
		}
		save := (la.TotalCarbonG - ce.TotalCarbonG) / la.TotalCarbonG * 100
		if save < tc.minSavePct {
			t.Errorf("%s: saving %.1f%%, want >= %.0f%%", tc.region.Name, save, tc.minSavePct)
		}
		incr := ce.MeanResponseMs - la.MeanResponseMs
		if incr < 0 || incr > tc.maxIncrMs {
			t.Errorf("%s: response increase %.1f ms outside (0, %.0f]", tc.region.Name, incr, tc.maxIncrMs)
		}
	}
}

func TestCentralEUSavesMoreThanFlorida(t *testing.T) {
	saving := func(region Region) float64 {
		ce, err := newTB(t, region, placement.CarbonAware{}).RunDay(energy.ModelResNet50, 10, 20)
		if err != nil {
			t.Fatal(err)
		}
		la, err := newTB(t, region, placement.LatencyAware{}).RunDay(energy.ModelResNet50, 10, 20)
		if err != nil {
			t.Fatal(err)
		}
		return (la.TotalCarbonG - ce.TotalCarbonG) / la.TotalCarbonG * 100
	}
	fl, eu := saving(Florida()), saving(CentralEU())
	if eu <= fl {
		t.Errorf("Central EU saving %.1f%% <= Florida %.1f%%, paper reports the opposite", eu, fl)
	}
}

func TestCPUWorkloadRunsOnXeon(t *testing.T) {
	// The Sci workload (Figure 10's CPU app) must land on the Xeon
	// hosts, not the GPUs.
	tb := newTB(t, Florida(), placement.CarbonAware{})
	day, err := tb.RunDay(energy.ModelSci, 5, 20)
	if err != nil {
		t.Fatal(err)
	}
	for app := range day.HostCity {
		dep := tb.Orch.Deployment(app)
		srv, _, err := tb.Cluster.FindServer(dep.ServerID)
		if err != nil {
			t.Fatal(err)
		}
		if srv.Device.Name != energy.XeonE5.Name {
			t.Errorf("%s on %s, want Xeon host", app, srv.Device.Name)
		}
	}
}

func TestDayResultShapes(t *testing.T) {
	tb := newTB(t, CentralEU(), placement.CarbonAware{})
	day, err := tb.RunDay(energy.ModelResNet50, 10, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(day.CityOrder) != 5 {
		t.Errorf("city order = %v", day.CityOrder)
	}
	for _, city := range day.CityOrder {
		if got := len(day.IntensityByCity[city]); got != 24 {
			t.Errorf("%s intensity series = %d samples, want 24", city, got)
		}
	}
	for app, series := range day.EmissionsByApp {
		if len(series) != 24 {
			t.Errorf("%s emissions = %d samples, want 24", app, len(series))
		}
		var total float64
		for _, v := range series {
			if v < 0 {
				t.Errorf("%s negative hourly emission %v", app, v)
			}
			total += v
		}
		if total <= 0 {
			t.Errorf("%s accrued no emissions", app)
		}
	}
	if day.TotalCarbonG <= 0 {
		t.Error("no total carbon")
	}
}
