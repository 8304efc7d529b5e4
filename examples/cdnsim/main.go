// CDN simulation example: run a 60-day trace-driven simulation of the
// European CDN deployment under CarbonEdge and the Latency-aware baseline,
// and report the paper's headline metrics (carbon saving and latency
// increase) plus where the load went.
//
// Run with: go run ./examples/cdnsim
package main

import (
	"fmt"
	"log"

	"repro/internal/carbon"
	"repro/internal/placement"
	"repro/internal/sim"
)

func main() {
	world, err := sim.NewWorld(42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("deployment: %d integrated edge sites (%d in Europe)\n",
		len(world.Dep.Sites), len(world.Dep.InRegion(carbon.RegionEurope)))

	run := func(pol placement.Policy) *sim.Result {
		cfg := sim.DefaultConfig(carbon.RegionEurope, pol)
		cfg.Hours = 24 * 60
		res, err := sim.Run(cfg, world)
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	ce := run(placement.CarbonAware{})
	la := run(placement.LatencyAware{})
	s := sim.CompareToBaseline(ce, la)

	fmt.Printf("\n60-day European CDN, 20 ms RTT limit:\n")
	fmt.Printf("  Latency-aware: %8.0f g CO2eq, mean RTT %5.1f ms\n", la.CarbonG, la.MeanRTTMs())
	fmt.Printf("  CarbonEdge:    %8.0f g CO2eq, mean RTT %5.1f ms\n", ce.CarbonG, ce.MeanRTTMs())
	fmt.Printf("  carbon saving %.1f%%, latency increase %.1f ms (paper: 67.8%%, +10.5 ms)\n",
		s.CarbonSavingPct, s.LatencyIncreaseMs)

	fmt.Printf("\ntop CarbonEdge hosting cities:\n")
	type cityCount struct {
		city string
		n    int64
	}
	var counts []cityCount
	for city, n := range ce.PlacementsByCity.All() {
		counts = append(counts, cityCount{city, n})
	}
	for i := 0; i < len(counts); i++ {
		for j := i + 1; j < len(counts); j++ {
			if counts[j].n > counts[i].n {
				counts[i], counts[j] = counts[j], counts[i]
			}
		}
	}
	for i, c := range counts {
		if i >= 8 {
			break
		}
		fmt.Printf("  %-12s %5d placements\n", c.city, c.n)
	}
}
