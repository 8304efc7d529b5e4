// Package sim is the CarbonEdge edge simulator (§5.2): a trace-driven,
// hourly-epoch simulation of a CDN-scale edge deployment used for the
// evaluations a physical testbed cannot host (Figures 11-16). It follows
// the same decision process as the prototype: the carbon-intensity service
// forecasts per-zone intensity, arriving applications are batched, the
// placement service solves the policy optimization, and committed
// applications accrue emissions at the actual hourly carbon intensity of
// their hosting zone for their lifetime.
package sim

import (
	"fmt"
	"math"

	"repro/internal/carbon"
	"repro/internal/energy"
	"repro/internal/events"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/traffic"
)

// Scenario selects how demand or capacity is distributed across sites
// (Figure 14).
type Scenario int

// Distribution scenarios.
const (
	// Uniform spreads demand/capacity equally over sites ("Homo").
	Uniform Scenario = iota
	// ByPopulation weights by the site's city population.
	ByPopulation
	// BySiteWeight weights by the merged Akamai site count.
	BySiteWeight
)

// String implements fmt.Stringer.
func (s Scenario) String() string {
	switch s {
	case Uniform:
		return "uniform"
	case ByPopulation:
		return "population"
	default:
		return "site-weight"
	}
}

// Config parameterizes one simulation run.
type Config struct {
	// Seed fixes arrivals and workload sampling.
	Seed int64
	// Region restricts the deployment (the paper evaluates US and
	// Europe separately).
	Region carbon.Region
	// Sites, when non-empty, restricts the run to the named cities within
	// Region (every name must exist there). The shard coordinator uses it
	// to hand each engine a disjoint slice of the region; a run over a
	// site subset is an ordinary, standalone simulation in every other
	// respect.
	Sites []string
	// ForwardUnplaced exports fresh arrivals that found no feasible
	// server to the engine's outbox (Engine.TakeForwarded) instead of
	// counting them Unplaced, so a shard coordinator can retry them on a
	// neighboring shard. Off (the default), unplaced arrivals are dropped
	// exactly as before.
	ForwardUnplaced bool
	// Policy is the placement objective.
	Policy placement.Policy
	// RTTLimitMs is the apps' round-trip SLO (paper default: 20 ms).
	RTTLimitMs float64
	// Hours is the simulated span (8760 = the paper's year).
	Hours int
	// StartHour offsets the start within the trace year.
	StartHour int
	// ArrivalsPerHour is the mean Poisson arrival rate over the whole
	// region.
	ArrivalsPerHour float64
	// AppLifetimeHours is how long each app runs before departing.
	AppLifetimeHours int
	// Model is the workload model arriving apps run.
	Model string
	// Models optionally overrides Model with a mix sampled uniformly
	// per arrival (Figure 15's heterogeneous workloads).
	Models []string
	// RatePerSec is each app's request rate.
	RatePerSec float64
	// Devices lists the device types present at every site (one
	// aggregate server per device per site). Default: {A2}.
	Devices []string
	// CapacityMilliPerSite is each site server's compute capacity in
	// device milli-units before scenario weighting.
	CapacityMilliPerSite float64
	// Demand and Capacity pick the Figure 14 scenario.
	Demand, Capacity Scenario
	// ServersAlwaysOn models a CDN whose servers never power down; when
	// false, servers start off and the activation term applies.
	ServersAlwaysOn bool
	// ForecastHorizonHours sets the mean-forecast window for I_j.
	ForecastHorizonHours int
	// Forecaster overrides the default seasonal-naive forecaster (the
	// forecast ablation swaps in EWMA or the oracle).
	Forecaster carbon.Forecaster
	// BatchHours buffers arrivals and places them every N hours
	// (default 1; the batching ablation sweeps this).
	BatchHours int
	// CollectLoadCI enables per-app-hour carbon-intensity sampling for
	// Figure 11c's load-distribution CDF.
	CollectLoadCI bool
	// RedeployEveryHours periodically re-places all live applications to
	// track carbon-intensity drift (0 disables it — the paper's
	// prototype behaviour; §7 names automatic redeployment as future
	// work). Migrations pay the data-movement cost below.
	RedeployEveryHours int
	// MigrationDataMB is the state transferred when an app migrates.
	MigrationDataMB float64
	// MigrationJPerMB is the network energy cost of moving one MB
	// (~0.2 J/MB for wide-area transfer), charged at the destination
	// zone's carbon intensity.
	MigrationJPerMB float64
	// WarmRedeploy seeds each redeploy solve with the identity placement
	// (every live app on its current server) instead of greedy
	// construction from scratch, so local search pays only for what
	// moved. Off by default: the warm-seeded local optimum can differ
	// from the cold one, and the paper's redeploy results are produced
	// cold.
	WarmRedeploy bool
	// Traffic, when non-nil, enables the request-level traffic-driven
	// mode: an open-loop per-site request stream (Traffic.Scenario's
	// temporal shape, demand-weighted across sites) is generated every
	// epoch and routed across the live applications — the deployment's
	// replicas — weighted by free capacity with spill-over on saturation.
	// Served requests drive dynamic energy/carbon instead of the constant
	// per-app power draw, and Result.Traffic records SLO attainment,
	// latency quantiles, and per-request carbon attribution. A zero
	// Traffic.Seed inherits Seed. When nil (the default) the classic
	// epoch mode runs unchanged.
	Traffic *traffic.Config
	// Faults, when non-nil, scripts world dynamics: server crashes and
	// recoveries, zone outages, capacity degradation, carbon-forecast
	// error spikes, and flash fleet scale-outs, applied by the faults
	// phase of the first epoch at or after their instants. Applications
	// on crashed or shrunk servers are evicted and forced back through
	// the placement/redeploy path; Result.Faults records the telemetry.
	// When nil (the default) results are byte-identical to a fault-free
	// run.
	Faults *events.FaultScript
	// Obs, when non-nil, enables observability for the run: the engine
	// traces every epoch phase (per-phase wall time, call counts,
	// sampled allocation deltas — Engine.Tracer) and keeps a flight
	// recorder of recent phases and faults (Engine.FlightRecorder),
	// snapshotted into checkpoints. Tracing never changes the simulated
	// trajectory — with Obs nil (the default) outputs are byte-identical
	// and the hot path carries no tracing code at all.
	Obs *obs.Config
}

// DefaultConfig returns the paper's CDN baseline: year-long, 20 ms RTT
// limit, ResNet50 serving on A2-class pools, always-on servers.
func DefaultConfig(region carbon.Region, pol placement.Policy) Config {
	return Config{
		Seed:                 42,
		Region:               region,
		Policy:               pol,
		RTTLimitMs:           20,
		Hours:                8760,
		ArrivalsPerHour:      6,
		AppLifetimeHours:     24,
		Model:                energy.ModelResNet50,
		RatePerSec:           10,
		Devices:              []string{energy.A2.Name},
		CapacityMilliPerSite: 4000,
		Demand:               BySiteWeight,
		Capacity:             BySiteWeight,
		ServersAlwaysOn:      true,
		ForecastHorizonHours: 24,
	}
}

// Validate reports configuration problems.
func (c *Config) Validate() error {
	if c.Hours <= 0 {
		return fmt.Errorf("sim: Hours must be positive")
	}
	if c.RTTLimitMs <= 0 {
		return fmt.Errorf("sim: RTTLimitMs must be positive")
	}
	if !(c.ArrivalsPerHour >= 0) || math.IsInf(c.ArrivalsPerHour, 1) {
		return fmt.Errorf("sim: arrival rate %g is not a finite non-negative number", c.ArrivalsPerHour)
	}
	if c.AppLifetimeHours <= 0 {
		return fmt.Errorf("sim: AppLifetimeHours must be positive")
	}
	if c.Policy == nil {
		return fmt.Errorf("sim: nil policy")
	}
	if len(c.Devices) == 0 {
		return fmt.Errorf("sim: no devices configured")
	}
	if c.RatePerSec <= 0 {
		return fmt.Errorf("sim: RatePerSec must be positive")
	}
	if c.Traffic != nil {
		if err := c.Traffic.Validate(); err != nil {
			return err
		}
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(); err != nil {
			return fmt.Errorf("sim: %w", err)
		}
	}
	return nil
}
