// Package testbed emulates the paper's mesoscale regional edge testbed
// (§6.1.2): five edge data centers in one mesoscale region (Florida or
// Central Europe), each represented by a server and an associated client,
// with tc-style emulated network latency between sites and a CarbonEdge
// controller placing workloads. It produces the Figure 8-10 measurements:
// per-zone carbon intensity and emissions over a day, end-to-end response
// times, and aggregate emissions/latency per policy.
package testbed

import (
	"fmt"
	"time"

	"repro/internal/carbon"
	"repro/internal/cluster"
	"repro/internal/energy"
	"repro/internal/latency"
	"repro/internal/orchestrator"
	"repro/internal/placement"
	"repro/internal/traffic"
)

// DCSpec describes one testbed data center.
type DCSpec struct {
	City   string
	ZoneID string
}

// Region is a named set of testbed data centers.
type Region struct {
	Name string
	DCs  []DCSpec
	// LatencyModel converts distances to delays for this region.
	LatencyModel latency.Model
}

// Florida returns the paper's Florida testbed region.
func Florida() Region {
	return Region{
		Name: "Florida",
		DCs: []DCSpec{
			{"Tallahassee", "US-FL-TLH"},
			{"Jacksonville", "US-FL-JAX"},
			{"Miami", "US-FL-MIA"},
			{"Orlando", "US-FL-ORL"},
			{"Tampa", "US-FL-TPA"},
		},
		LatencyModel: latency.USModel(),
	}
}

// CentralEU returns the paper's Central Europe testbed region.
func CentralEU() Region {
	return Region{
		Name: "Central EU",
		DCs: []DCSpec{
			{"Bern", "CH-BRN"},
			{"Graz", "AT-GRZ"},
			{"Lyon", "FR-LYO"},
			{"Milan", "IT-MIL"},
			{"Munich", "DE-MUC"},
		},
		LatencyModel: latency.EuropeModel(),
	}
}

// Config assembles a testbed.
type Config struct {
	Region Region
	Zones  *carbon.Registry
	Traces *carbon.TraceSet
	Cities *latency.CityRegistry
	Policy placement.Policy
}

// Testbed is an assembled regional deployment.
type Testbed struct {
	Region  Region
	Orch    *orchestrator.Orchestrator
	Cluster *cluster.Cluster
	Shaper  *latency.Shaper

	cities *latency.CityRegistry
}

// New builds the emulated testbed: one server per DC, pairwise latencies
// loaded into the shaper, and an orchestrator with the given policy.
func New(cfg Config) (*Testbed, error) {
	if len(cfg.Region.DCs) == 0 {
		return nil, fmt.Errorf("testbed: region has no data centers")
	}
	if cfg.Zones == nil || cfg.Traces == nil || cfg.Cities == nil {
		return nil, fmt.Errorf("testbed: zones, traces, and cities are required")
	}
	var dcs []*cluster.DataCenter
	names := make([]string, 0, len(cfg.Region.DCs))
	for _, spec := range cfg.Region.DCs {
		city, ok := cfg.Cities.ByName(spec.City)
		if !ok {
			return nil, fmt.Errorf("testbed: unknown city %q", spec.City)
		}
		if cfg.Zones.ByID(spec.ZoneID) == nil {
			return nil, fmt.Errorf("testbed: unknown zone %q", spec.ZoneID)
		}
		dc := cluster.NewDataCenter("dc-"+spec.City, spec.City, city.Location, spec.ZoneID, spec.City)
		// Each DC hosts one GPU server and one CPU host, mirroring the
		// paper's Dell R630 + NVIDIA A2 testbed machines (the CPU-based
		// Sci app runs on the Xeon host); the orchestrator starts both
		// powered on.
		gpu := cluster.NewServer("srv-"+spec.City+"-gpu", dc.ID, energy.A2,
			cluster.NewResources(1000, 65536, float64(energy.A2.MemMB), 1000))
		cpu := cluster.NewServer("srv-"+spec.City+"-cpu", dc.ID, energy.XeonE5,
			cluster.NewResources(40000, 262144, 0, 1000))
		if err := dc.AddServer(gpu); err != nil {
			return nil, err
		}
		if err := dc.AddServer(cpu); err != nil {
			return nil, err
		}
		dcs = append(dcs, dc)
		names = append(names, spec.City)
	}
	cl, err := cluster.NewCluster(dcs)
	if err != nil {
		return nil, err
	}

	// Load pairwise latencies into the shaper (the tc step).
	shaper := latency.NewShaper()
	for i := 0; i < len(cfg.Region.DCs); i++ {
		ci, _ := cfg.Cities.ByName(cfg.Region.DCs[i].City)
		for j := i + 1; j < len(cfg.Region.DCs); j++ {
			cj, _ := cfg.Cities.ByName(cfg.Region.DCs[j].City)
			oneWay := cfg.Region.LatencyModel.OneWayMs(ci.Location, cj.Location)
			shaper.SetDelay(names[i], names[j], time.Duration(oneWay*float64(time.Millisecond)))
		}
	}

	orch, err := orchestrator.New(orchestrator.Config{
		Cluster: cl,
		Carbon:  carbon.NewService(cfg.Traces, carbon.SeasonalNaive{Period: 24}),
		Shaper:  shaper,
		Policy:  cfg.Policy,
		Start:   cfg.Traces.Start,
	})
	if err != nil {
		return nil, err
	}
	return &Testbed{Region: cfg.Region, Orch: orch, Cluster: cl, Shaper: shaper, cities: cfg.Cities}, nil
}

// AttachTraffic wires an open-loop request workload into the testbed's
// orchestrator: each regional DC city is a demand source weighted by its
// population, and every tick routes the window's aggregated slice across
// the current deployments against the given end-to-end SLO. Traffic
// starts at the orchestrator's current clock.
func (tb *Testbed) AttachTraffic(cfg traffic.Config, sloMs float64) error {
	sources := make([]traffic.Source, 0, len(tb.Region.DCs))
	for _, spec := range tb.Region.DCs {
		city, ok := tb.cities.ByName(spec.City)
		if !ok {
			return fmt.Errorf("testbed: unknown city %q", spec.City)
		}
		sources = append(sources, traffic.Source{
			City:   spec.City,
			Weight: city.PopulationM,
			Lon:    city.Location.Lon,
		})
	}
	gen, err := traffic.NewGenerator(cfg, tb.Orch.Now(), sources)
	if err != nil {
		return err
	}
	return tb.Orch.AttachTraffic(gen, sloMs)
}

// DayResult is a 24-hour testbed experiment outcome (Figures 8-10).
type DayResult struct {
	// CityOrder preserves the region's DC order.
	CityOrder []string
	// IntensityByCity is each zone's hourly carbon intensity.
	IntensityByCity map[string][]float64
	// EmissionsByApp is each app's hourly operational emissions (g).
	EmissionsByApp map[string][]float64
	// ResponseMsByApp is each app's end-to-end response time: network
	// RTT plus model inference time.
	ResponseMsByApp map[string]float64
	// HostCity maps each app to its chosen hosting city.
	HostCity map[string]string
	// TotalCarbonG sums app emissions over the day.
	TotalCarbonG float64
	// MeanResponseMs averages response time across apps.
	MeanResponseMs float64
}

// RunDay deploys one application per DC (sourced at that DC's city) and
// replays 24 hours, recording the Figure 8-10 measurements.
func (tb *Testbed) RunDay(model string, ratePerSec, sloMs float64) (*DayResult, error) {
	res := &DayResult{
		IntensityByCity: map[string][]float64{},
		EmissionsByApp:  map[string][]float64{},
		ResponseMsByApp: map[string]float64{},
		HostCity:        map[string]string{},
	}
	for _, spec := range tb.Region.DCs {
		res.CityOrder = append(res.CityOrder, spec.City)
		rec := orchestrator.Recipe{
			Name:       "app-" + spec.City,
			Model:      model,
			Source:     spec.City,
			SLOms:      sloMs,
			RatePerSec: ratePerSec,
		}
		if err := tb.Orch.Submit(rec); err != nil {
			return nil, err
		}
	}
	placed, rejected, err := tb.Orch.PlaceBatch()
	if err != nil {
		return nil, err
	}
	if len(rejected) > 0 {
		return nil, fmt.Errorf("testbed: %d apps rejected: %v", len(rejected), rejected)
	}

	for _, dep := range placed {
		srv, _, err := tb.Cluster.FindServer(dep.ServerID)
		if err != nil {
			return nil, err
		}
		p, err := energy.ProfileFor(dep.Recipe.Model, srv.Device.Name)
		if err != nil {
			return nil, err
		}
		res.HostCity[dep.Recipe.Name] = dep.DCID[len("dc-"):]
		res.ResponseMsByApp[dep.Recipe.Name] = dep.RTTMs + p.InferenceMs
	}

	prevCarbon := map[string]float64{}
	for hour := 0; hour < 24; hour++ {
		// Record zone intensities before advancing.
		for _, spec := range tb.Region.DCs {
			ci, err := tb.Orch.CurrentIntensity(spec.ZoneID)
			if err != nil {
				return nil, err
			}
			res.IntensityByCity[spec.City] = append(res.IntensityByCity[spec.City], ci)
		}
		if err := tb.Orch.Tick(time.Hour); err != nil {
			return nil, err
		}
		for _, dep := range placed {
			total := tb.Orch.AppCarbonG(dep.Recipe.Name)
			res.EmissionsByApp[dep.Recipe.Name] = append(res.EmissionsByApp[dep.Recipe.Name], total-prevCarbon[dep.Recipe.Name])
			prevCarbon[dep.Recipe.Name] = total
		}
	}
	// Sum in the region's DC order: float addition is not associative.
	var respSum float64
	for _, city := range res.CityOrder {
		app := "app-" + city
		res.TotalCarbonG += prevCarbon[app]
		respSum += res.ResponseMsByApp[app]
	}
	if len(placed) > 0 {
		res.MeanResponseMs = respSum / float64(len(placed))
	}
	return res, nil
}
