package experiments

import (
	"fmt"
	"time"

	"repro/internal/carbon"
	"repro/internal/events"
	"repro/internal/placement"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// faultProfile is one named resilience scenario, generated against a
// region's busiest site so every profile hits load-bearing capacity.
type faultProfile struct {
	Name   string
	Script func(site, zone string, span time.Duration, capMilli float64) *events.FaultScript
}

// faultProfiles are the scenario axis of the faults family: a single-site
// crash, a whole-zone outage, capacity degradation, a carbon-forecast
// error spike, and a flash fleet scale-out.
var faultProfiles = []faultProfile{
	{"site-crash", func(site, zone string, span time.Duration, capMilli float64) *events.FaultScript {
		return &events.FaultScript{Faults: []events.Fault{
			{At: span / 4, Kind: events.FaultCrash, Site: site, For: span / 4},
		}}
	}},
	{"zone-outage", func(site, zone string, span time.Duration, capMilli float64) *events.FaultScript {
		return &events.FaultScript{Faults: []events.Fault{
			{At: span / 4, Kind: events.FaultCrash, Zone: zone, For: span / 8},
		}}
	}},
	{"degrade", func(site, zone string, span time.Duration, capMilli float64) *events.FaultScript {
		return &events.FaultScript{Faults: []events.Fault{
			{At: span / 4, Kind: events.FaultDegrade, Site: site, Factor: 0.3, For: span / 2},
		}}
	}},
	{"forecast-spike", func(site, zone string, span time.Duration, capMilli float64) *events.FaultScript {
		return &events.FaultScript{Faults: []events.Fault{
			{At: span / 4, Kind: events.FaultForecastError, Zone: zone, Factor: 4, For: span / 4},
		}}
	}},
	{"flash-fleet", func(site, zone string, span time.Duration, capMilli float64) *events.FaultScript {
		return &events.FaultScript{Faults: []events.Fault{
			{At: span / 4, Kind: events.FaultScaleOut, Site: site, CapacityMilli: capMilli, Count: 2},
		}}
	}},
}

// hotSites locates each (region, policy)'s busiest hosting site with a
// fault-free reference run of the same span — so every crash profile hits
// capacity that policy actually leans on. Keyed by pairKey(region, side).
func (s *Suite) hotSites(policies []placement.Policy) (map[string][2]string, error) {
	g := s.newGrid()
	for _, region := range cdnRegions {
		for _, pol := range policies {
			g.Add(pairKey(region, pol.Name()), s.cdnConfig(region, pol))
		}
	}
	runs, err := g.RunMap()
	if err != nil {
		return nil, err
	}
	zoneOf := map[string]string{}
	for _, region := range cdnRegions {
		for _, site := range s.Dep().InRegion(region) {
			zoneOf[site.City] = site.ZoneID
		}
	}
	hot := map[string][2]string{}
	for key, r := range runs {
		var city string
		var max int64
		for c, n := range r.PlacementsByCity.All() {
			if n > max {
				city, max = c, n
			}
		}
		if city == "" {
			return nil, fmt.Errorf("experiments: reference run %s placed nothing", key)
		}
		hot[key] = [2]string{city, zoneOf[city]}
	}
	return hot, nil
}

// FaultsRow is one (region x profile x policy) cell.
type FaultsRow struct {
	Region  string
	Profile string
	Policy  string
	// Eviction/recovery telemetry.
	Evictions, Replaced, Lost int
	DowntimeEpochs            int
	OutageEpochs              int
	// Service quality: overall SLO attainment and drops, plus requests
	// outside the SLO during outage epochs.
	SLOPct, DropPct  float64
	OutageViolations int64
	CarbonPerMReqG   float64
	ScaleOuts        int
}

// FaultsResult is the faults experiment family: policy-differentiated
// resilience under scripted world dynamics, with request-level service
// quality measured through the traffic subsystem.
type FaultsResult struct {
	Rows []FaultsRow
}

// Faults sweeps (region x fault profile x policy) through the sweep
// runner: every cell is a traffic-driven simulation with a scripted
// fault scenario targeting the region's busiest site or zone. It is the
// availability/resilience axis the paper's static evaluation cannot
// express: evictions, recovery latency, downtime, and SLO violations
// during outages per placement policy.
func (s *Suite) Faults() (*FaultsResult, error) {
	span := time.Duration(s.CDNHours) * time.Hour
	base := sim.DefaultConfig(carbon.RegionUS, placement.CarbonAware{})
	policies := []placement.Policy{placement.CarbonAware{}, placement.LatencyAware{}}
	hot, err := s.hotSites(policies)
	if err != nil {
		return nil, err
	}
	g := s.newGrid()
	key := func(region carbon.Region, profile, side string) string {
		return fmt.Sprintf("%s/%s/%s", profile, region, side)
	}
	for _, region := range cdnRegions {
		for _, prof := range faultProfiles {
			for _, pol := range policies {
				target := hot[pairKey(region, pol.Name())]
				cfg := s.cdnConfig(region, pol)
				cfg.Traffic = &traffic.Config{Scenario: traffic.Steady, RPS: TrafficRPS}
				cfg.Faults = prof.Script(target[0], target[1], span, base.CapacityMilliPerSite)
				g.Add(key(region, prof.Name, pol.Name()), cfg)
			}
		}
	}
	runs, err := g.RunMap()
	if err != nil {
		return nil, err
	}
	res := &FaultsResult{}
	for _, region := range cdnRegions {
		for _, prof := range faultProfiles {
			for _, side := range []string{"CarbonEdge", "Latency-aware"} {
				r := runs[key(region, prof.Name, side)]
				if r.Faults == nil {
					return nil, fmt.Errorf("experiments: %s ran without fault telemetry", key(region, prof.Name, side))
				}
				res.Rows = append(res.Rows, faultsRow(region.String(), prof.Name, side, r))
			}
		}
	}
	return res, nil
}

// faultsRow summarizes one run's fault and service-quality telemetry.
func faultsRow(region, profile, policy string, r *sim.Result) FaultsRow {
	fs := r.Faults
	row := FaultsRow{
		Region: region, Profile: profile, Policy: policy,
		Evictions: fs.Evictions, Replaced: fs.Replaced, Lost: fs.Lost,
		DowntimeEpochs:   fs.DowntimeEpochs,
		OutageEpochs:     fs.OutageEpochs,
		OutageViolations: fs.ViolationsDuringOutage,
		ScaleOuts:        fs.ScaleOuts,
	}
	if st := r.Traffic; st != nil && st.Requests > 0 {
		row.SLOPct = float64(st.SLOMet) / float64(st.Requests) * 100
		row.DropPct = float64(st.Dropped) / float64(st.Requests) * 100
		if served := st.Requests - st.Dropped; served > 0 {
			row.CarbonPerMReqG = st.CarbonG / float64(served) * 1e6
		}
	}
	return row
}

// String renders the resilience table.
func (r *FaultsResult) String() string {
	rows := [][]string{{"region", "profile", "policy", "evict", "replaced", "lost",
		"downtime h", "outage h", "SLO %", "drop %", "viol@outage", "gCO2/Mreq"}}
	for _, row := range r.Rows {
		rows = append(rows, []string{row.Region, row.Profile, row.Policy,
			fmt.Sprint(row.Evictions), fmt.Sprint(row.Replaced), fmt.Sprint(row.Lost),
			fmt.Sprint(row.DowntimeEpochs), fmt.Sprint(row.OutageEpochs),
			f1(row.SLOPct), f1(row.DropPct),
			fmt.Sprint(row.OutageViolations), f1(row.CarbonPerMReqG)})
	}
	return table("Faults: policy-differentiated resilience under world dynamics", rows)
}
