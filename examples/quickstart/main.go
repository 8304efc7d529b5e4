// Quickstart: place a batch of edge inference applications across a
// mesoscale region (Florida) under each placement policy and compare the
// carbon, energy, and latency outcomes.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/carbon"
	"repro/internal/cluster"
	"repro/internal/energy"
	"repro/internal/latency"
	"repro/internal/placement"
)

func main() {
	// 1. Datasets: the 148-zone carbon registry with a generated year of
	// hourly traces, and the embedded city registry.
	zones, err := carbon.DefaultRegistry(42)
	if err != nil {
		log.Fatal(err)
	}
	traces := carbon.NewGenerator(42).GenerateTraces(zones)
	cities, err := latency.DefaultCityRegistry()
	if err != nil {
		log.Fatal(err)
	}

	// 2. One A2-class edge server per Florida data center. The placement
	// view needs each server's mean forecast carbon intensity.
	floridaZones := []string{"US-FL-TLH", "US-FL-JAX", "US-FL-MIA", "US-FL-ORL", "US-FL-TPA"}
	svc := carbon.NewService(traces, nil)
	now := traces.Start.Add(30 * 24 * 3600e9) // 30 days into the year
	var servers []placement.Server
	for _, zid := range floridaZones {
		z := zones.ByID(zid)
		mean, err := svc.MeanForecast(zid, now, 24)
		if err != nil {
			log.Fatal(err)
		}
		servers = append(servers, placement.Server{
			ID:         "srv-" + z.Name,
			DC:         z.Name,
			Device:     energy.A2.Name,
			Intensity:  mean,
			BasePowerW: energy.A2.IdleW,
			PoweredOn:  true,
			Free:       cluster.NewResources(1000, 65536, 16384, 1000),
		})
	}

	// 3. A batch of ResNet50 serving apps, one sourced at each city,
	// each with a 20 ms round-trip SLO.
	var apps []placement.App
	for _, zid := range floridaZones {
		z := zones.ByID(zid)
		apps = append(apps, placement.App{
			ID:         "app-" + z.Name,
			Model:      energy.ModelResNet50,
			Source:     z.Name,
			SLOms:      20,
			RatePerSec: 10,
		})
	}

	// 4. Latency oracle from city coordinates.
	model := latency.USModel()
	rtt := func(a, b string) float64 {
		ca, _ := cities.ByName(a)
		cb, _ := cities.ByName(b)
		return model.RTTMs(ca.Location, cb.Location)
	}

	// 5. A workspace over the servers assembles the batch's problem view.
	ws, err := placement.NewWorkspace(servers, rtt, nil)
	if err != nil {
		log.Fatal(err)
	}
	prob, err := ws.Problem(apps)
	if err != nil {
		log.Fatal(err)
	}

	// 6. Solve under each policy and compare.
	fmt.Println("policy           carbon g/h   energy W   mean RTT ms")
	for _, pol := range []placement.Policy{
		placement.LatencyAware{},
		placement.EnergyAware{},
		placement.IntensityAware{},
		placement.CarbonAware{},
	} {
		res, err := placement.NewPlacer(pol).Place(prob)
		if err != nil {
			log.Fatal(err)
		}
		m := res.Metrics
		fmt.Printf("%-16s %8.2f %10.1f %12.1f\n", pol.Name(), m.CarbonGPerHour, m.EnergyWAvg, m.MeanLatencyMs)
	}
}
