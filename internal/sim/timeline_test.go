package sim

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/carbon"
	"repro/internal/events"
	"repro/internal/placement"
	"repro/internal/traffic"
)

// hotCity finds the city hosting the most placements in a fault-free
// reference run — the deterministic target for crash scenarios.
func hotCity(t testing.TB, cfg Config, w *World) string {
	t.Helper()
	ref, err := Run(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	var city string
	var max int64
	for c, n := range ref.PlacementsByCity.All() {
		if n > max {
			city, max = c, n
		}
	}
	if city == "" {
		t.Fatal("reference run placed nothing")
	}
	return city
}

func TestFaultCrashEvictsAndRecovers(t *testing.T) {
	w := testWorld(t)
	cfg := shortConfig(carbon.RegionEurope, placement.CarbonAware{})
	cfg.Hours = 24 * 8
	city := hotCity(t, cfg, w)

	cfg.Faults = &events.FaultScript{Faults: []events.Fault{
		{At: 72 * time.Hour, Kind: events.FaultCrash, Site: city, For: 48 * time.Hour},
	}}
	res, err := Run(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	fs := res.Faults
	if fs == nil {
		t.Fatal("fault run produced no fault telemetry")
	}
	if fs.Events != 2 {
		t.Errorf("events applied = %d, want 2 (crash + scheduled recover)", fs.Events)
	}
	if fs.ServerCrashes == 0 || fs.ServerRecoveries != fs.ServerCrashes {
		t.Errorf("crashes %d / recoveries %d, want equal and positive", fs.ServerCrashes, fs.ServerRecoveries)
	}
	if fs.Evictions == 0 {
		t.Fatalf("crashing the busiest city (%s) evicted nothing", city)
	}
	if fs.Replaced+fs.Lost != fs.Evictions {
		t.Errorf("evictions %d != replaced %d + lost %d (none left pending at end of run)",
			fs.Evictions, fs.Replaced, fs.Lost)
	}
	if fs.Replaced == 0 {
		t.Error("no evicted app was re-placed through the redeploy path")
	}
	if fs.OutageEpochs != 48 {
		t.Errorf("outage epochs = %d, want 48", fs.OutageEpochs)
	}
	// Evicted apps are re-placed within the same epoch's placement pass
	// when other sites have capacity, so downtime stays bounded by the
	// outage length.
	if fs.DowntimeEpochs > fs.Evictions*48 {
		t.Errorf("downtime %d epochs exceeds eviction count x outage length", fs.DowntimeEpochs)
	}
	// The crashed city hosts nothing while it is down; the run still
	// serves the workload (placements continue).
	if res.Placed == 0 {
		t.Fatal("no placements in fault run")
	}

	// Fault runs are deterministic: an identical replay is byte-identical.
	again, err := Run(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripClock(res), stripClock(again)) {
		t.Error("fault run replay diverged")
	}
}

func TestFaultZoneOutageUnderTraffic(t *testing.T) {
	w := testWorld(t)
	cfg := shortConfig(carbon.RegionEurope, placement.CarbonAware{})
	cfg.Hours = 24 * 6
	city := hotCity(t, cfg, w)
	var zone string
	for _, s := range w.Dep.InRegion(cfg.Region) {
		if s.City == city {
			zone = s.ZoneID
		}
	}
	if zone == "" {
		t.Fatalf("no zone for city %s", city)
	}

	cfg.Traffic = &traffic.Config{Scenario: traffic.Steady, RPS: 700}
	cfg.Faults = &events.FaultScript{Faults: []events.Fault{
		{At: 48 * time.Hour, Kind: events.FaultCrash, Zone: zone, For: 24 * time.Hour},
	}}
	res, err := Run(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	fs := res.Faults
	if fs.Evictions == 0 {
		t.Fatalf("zone outage of %s (%s) evicted nothing", zone, city)
	}
	if fs.OutageEpochs != 24 {
		t.Errorf("outage epochs = %d, want 24", fs.OutageEpochs)
	}
	if res.Traffic == nil || res.Traffic.Requests == 0 {
		t.Fatal("traffic mode routed nothing")
	}
	if fs.ViolationsDuringOutage < 0 || fs.DroppedDuringOutage < 0 {
		t.Errorf("negative outage service-quality counters: %+v", fs)
	}
}

func TestFaultDegradeEvictsOverflow(t *testing.T) {
	w := testWorld(t)
	cfg := shortConfig(carbon.RegionEurope, placement.CarbonAware{})
	cfg.Hours = 24 * 6
	city := hotCity(t, cfg, w)

	// Crush the busiest site to 2% capacity mid-run: hosted apps no
	// longer fit and must be evicted, then restored capacity reopens it.
	cfg.Faults = &events.FaultScript{Faults: []events.Fault{
		{At: 72 * time.Hour, Kind: events.FaultDegrade, Site: city, Factor: 0.02, For: 24 * time.Hour},
	}}
	res, err := Run(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	fs := res.Faults
	if fs.Events != 2 {
		t.Errorf("events = %d, want degrade + restore", fs.Events)
	}
	if fs.Evictions == 0 {
		t.Error("degrading the busiest site evicted nothing")
	}
	if fs.OutageEpochs != 0 {
		t.Errorf("degradation counted as outage epochs (%d); only crashes are outages", fs.OutageEpochs)
	}
}

func TestFaultScaleOutAddsCapacity(t *testing.T) {
	w := testWorld(t)
	cfg := shortConfig(carbon.RegionEurope, placement.CarbonAware{})
	cfg.Hours = 24 * 4
	city := hotCity(t, cfg, w)

	cfg.Faults = &events.FaultScript{Faults: []events.Fault{
		{At: 24 * time.Hour, Kind: events.FaultScaleOut, Site: city, CapacityMilli: 4000, Count: 3},
	}}
	e, err := NewEngine(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	before := len(e.servers)
	for !e.Done() {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(e.servers) - before; got != 3 {
		t.Errorf("scale-out added %d servers, want 3", got)
	}
	if e.ws.NumServers() != len(e.servers) {
		t.Errorf("workspace servers %d != engine servers %d", e.ws.NumServers(), len(e.servers))
	}
	if e.Finish().Faults.ScaleOuts != 3 {
		t.Errorf("ScaleOuts = %d, want 3", e.Finish().Faults.ScaleOuts)
	}
}

func TestFaultForecastErrorOnlySkewsPlacement(t *testing.T) {
	w := testWorld(t)
	cfg := shortConfig(carbon.RegionEurope, placement.CarbonAware{})
	cfg.Hours = 24 * 4
	city := hotCity(t, cfg, w)
	var zone string
	for _, s := range w.Dep.InRegion(cfg.Region) {
		if s.City == city {
			zone = s.ZoneID
		}
	}

	base, err := Run(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = &events.FaultScript{Faults: []events.Fault{
		{At: 24 * time.Hour, Kind: events.FaultForecastError, Zone: zone, Factor: 50, For: 48 * time.Hour},
	}}
	spiked, err := Run(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	// A 50x forecast spike on the favourite zone steers the carbon-aware
	// policy elsewhere while it lasts.
	if spiked.PlacementsByCity.Get(city) >= base.PlacementsByCity.Get(city) {
		t.Errorf("forecast spike on %s did not reduce its placements (%d -> %d)",
			city, base.PlacementsByCity.Get(city), spiked.PlacementsByCity.Get(city))
	}
	if spiked.Faults.Evictions != 0 {
		t.Errorf("forecast error evicted %d apps; it must only skew decisions", spiked.Faults.Evictions)
	}
}

func TestFaultConfigValidation(t *testing.T) {
	w := testWorld(t)
	cfg := shortConfig(carbon.RegionEurope, placement.CarbonAware{})
	cfg.Faults = &events.FaultScript{Faults: []events.Fault{
		{At: time.Hour, Kind: events.FaultCrash, Site: "Atlantis"},
	}}
	if _, err := NewEngine(cfg, w); err == nil {
		t.Error("fault targeting an unknown site accepted")
	}

	cfg.Faults.Faults[0].Site = ""
	cfg.Faults.Faults[0].Zone = "ZZ-NOPE"
	if _, err := NewEngine(cfg, w); err == nil {
		t.Error("fault targeting an unknown zone accepted")
	}

	// A degrade scales capacity down: factor 1 restores it, and a factor
	// above 1 is refused before any engine is built.
	site := w.Dep.InRegion(cfg.Region)[0].City
	cfg.Faults.Faults[0] = events.Fault{At: time.Hour, Kind: events.FaultDegrade, Site: site, Factor: 1}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("degrade factor 1 rejected: %v", err)
	}
	cfg.Faults.Faults[0].Factor = 3
	if err := cfg.Validate(); err == nil {
		t.Error("degrade factor 3 accepted")
	}
}
