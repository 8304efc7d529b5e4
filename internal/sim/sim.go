package sim

import (
	"math"
	"time"

	"repro/internal/carbon"
	"repro/internal/cluster"
	"repro/internal/deploy"
	"repro/internal/fleet"
	"repro/internal/latency"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/router"
)

// World bundles the static datasets a simulation runs against, so sweeps
// (Figures 12-16) can share one expensive setup. All fields are treated as
// immutable once built: any number of engines may read one World
// concurrently.
type World struct {
	Zones  *carbon.Registry
	Traces *carbon.TraceSet
	Cities *latency.CityRegistry
	Dep    *deploy.Deployment
}

// NewWorld builds the default world: the 148-zone registry with generated
// year traces, the embedded city registry, and the integrated CDN
// deployment.
func NewWorld(seed int64) (*World, error) {
	zones, err := carbon.DefaultRegistry(seed)
	if err != nil {
		return nil, err
	}
	cities, err := latency.DefaultCityRegistry()
	if err != nil {
		return nil, err
	}
	dep, err := deploy.Generate(zones, cities)
	if err != nil {
		return nil, err
	}
	return &World{
		Zones:  zones,
		Traces: carbon.NewGenerator(seed).GenerateTraces(zones),
		Cities: cities,
		Dep:    dep,
	}, nil
}

// Result aggregates one run's outcomes.
type Result struct {
	// CarbonG is total operational emissions in grams CO2eq.
	CarbonG float64
	// EnergyKWh is total energy consumed (dynamic + base of activated
	// servers).
	EnergyKWh float64
	// Latency summarizes placed apps' round-trip latency (ms).
	Latency metrics.Summary
	// MonthlyCarbonG is emissions per calendar month index (0-11).
	MonthlyCarbonG [12]float64
	// MonthlyLatency summarizes latency by month.
	MonthlyLatency [12]metrics.Summary
	// PlacementsByCity counts app placements per hosting city.
	PlacementsByCity metrics.Counts
	// MonthlyPlacements counts placements per city per month
	// (Figure 13d), labelled "city/month". The engine tallies both in its
	// own table and folds them in when Finish or Snapshot reads the
	// result; until then they lag Placed.
	MonthlyPlacements metrics.Counts
	// LoadCI samples the hosting zone's carbon intensity once per
	// app-hour (Figure 11c), when enabled.
	LoadCI []float64
	// Placed and Unplaced count apps over the whole run.
	Placed, Unplaced int
	// Migrations counts app relocations during periodic redeployment.
	Migrations int
	// MigrationKWh and MigrationCarbonG are the data-movement costs paid
	// by those relocations (included in EnergyKWh / CarbonG).
	MigrationKWh, MigrationCarbonG float64
	// SolveTime accumulates placement solver time.
	SolveTime time.Duration
	// Batches counts placement invocations.
	Batches int
	// Faults records the world-dynamics telemetry — fault events applied,
	// evictions, recovery latency, outage-epoch service quality — when the
	// run has a fault script (nil otherwise, so fault-free results are
	// unchanged).
	Faults *FaultStats
	// Traffic records the request-level telemetry — SLO attainment,
	// latency quantiles, spill-over/drop counts, per-request carbon — in
	// the traffic-driven mode (nil in the classic epoch mode). Its
	// energy/carbon totals are already folded into EnergyKWh / CarbonG.
	Traffic *router.Stats
}

// MeanRTTMs is the run's mean placed round-trip latency.
func (r *Result) MeanRTTMs() float64 { return r.Latency.Mean() }

// liveApp is a committed application.
type liveApp struct {
	srv  int // index into servers (the hosting aggregate server), which names the device
	site int // index into sites
	mi   int // model's dense index in the engine's replicaPool, which names the model
	// demand is what the app's placement committed on its server (the
	// placement cell), released as is when it departs or is evicted.
	demand  cluster.Resources
	powerW  float64
	rttMs   float64
	expires int // epoch index at which it departs
	srcSite int
	// seq numbers the app in the live table (increasing along it) and
	// late marks it out of expiry order (liveTable).
	seq  int
	late bool
}

// siteServer is the aggregate per-device server at one site: its
// fleet.Row (what the fault applicator reads and writes) plus where it
// sits in the engine's indices.
type siteServer struct {
	fleet.Row
	site int
	// pair is the dense index of the server's (site, device) pair in the
	// engine's replicaPool; servers a scale-out adds share their
	// siblings' pair.
	pair int
}

// Run executes the simulation to completion: a thin epoch loop over the
// stepwise Engine.
func Run(cfg Config, w *World) (*Result, error) {
	e, err := NewEngine(cfg, w)
	if err != nil {
		return nil, err
	}
	for !e.Done() {
		if err := e.Step(); err != nil {
			return nil, err
		}
	}
	return e.Finish(), nil
}

// ScenarioWeights exposes the per-site demand/capacity weighting engines
// use, so the shard planner can split region-level arrival and traffic
// rates proportionally to each shard's demand share.
func ScenarioWeights(sites []*deploy.Site, s Scenario) []float64 {
	return weights(sites, s)
}

// weights computes per-site weights for a scenario.
func weights(sites []*deploy.Site, s Scenario) []float64 {
	out := make([]float64, len(sites))
	for i, site := range sites {
		switch s {
		case Uniform:
			out[i] = 1
		case ByPopulation:
			out[i] = math.Max(site.PopulationM, 0.01)
		default:
			out[i] = site.Weight
		}
	}
	return out
}

// sampleWeighted draws an index proportional to weights; total is their
// sum, accumulated in index order.
func sampleWeighted(rng *rng.Rand, w []float64, total float64) int {
	r := rng.Float64() * total
	for i, v := range w {
		r -= v
		if r <= 0 {
			return i
		}
	}
	return len(w) - 1
}

// poissonChunk is the largest rate one Knuth draw takes. Knuth's method
// stops when a running product of uniforms falls to exp(-λ), which
// underflows to 0 past λ ≈ 745; then the loop runs until the product
// underflows too, and every draw lands near 745.
const poissonChunk = 500

// poisson draws from a Poisson distribution: Knuth's method in chunks of
// at most poissonChunk, summed (a sum of independent Poisson draws is
// Poisson with the summed rate). A rate of at most poissonChunk is one
// Knuth draw.
func poisson(rng *rng.Rand, lambda float64) int {
	k := 0
	for ; lambda > poissonChunk; lambda -= poissonChunk {
		k += knuthPoisson(rng, poissonChunk)
	}
	return k + knuthPoisson(rng, lambda)
}

// knuthPoisson is Knuth's product method, exact for rates small enough
// that exp(-λ) does not underflow.
func knuthPoisson(rng *rng.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 10000 {
			return k
		}
	}
}

// Savings compares a policy run against a baseline run (typically
// Latency-aware) the way the paper reports results: percentage carbon
// saving and absolute latency increase.
type Savings struct {
	CarbonSavingPct   float64
	LatencyIncreaseMs float64
	// EnergyRatio is policy energy / baseline energy (Figure 15b).
	EnergyRatio float64
}

// CompareToBaseline computes the paper's headline metrics.
func CompareToBaseline(policy, baseline *Result) Savings {
	s := Savings{}
	if baseline.CarbonG > 0 {
		s.CarbonSavingPct = (baseline.CarbonG - policy.CarbonG) / baseline.CarbonG * 100
	}
	if baseline.Latency.N() > 0 && policy.Latency.N() > 0 {
		s.LatencyIncreaseMs = policy.Latency.Mean() - baseline.Latency.Mean()
	}
	if baseline.EnergyKWh > 0 {
		s.EnergyRatio = policy.EnergyKWh / baseline.EnergyKWh
	}
	return s
}
