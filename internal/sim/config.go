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
	// Seed fixes arrivals and workload sampling. Set by the experiment
	// suite (cesim -seed), by shard.Plan (one mixed seed per shard) and
	// by the ledger.
	Seed int64
	// Region restricts the deployment (the paper evaluates US and
	// Europe separately). Every caller passes it to DefaultConfig.
	Region carbon.Region
	// Sites, when non-empty, restricts the run to the named cities within
	// Region (every name must exist there). The shard coordinator uses it
	// to hand each engine a disjoint slice of the region; a run over a
	// site subset is an ordinary, standalone simulation in every other
	// respect. Set only by shard.Plan.
	Sites []string
	// ForwardUnplaced exports fresh arrivals that found no feasible
	// server to the engine's outbox (Engine.TakeForwarded) instead of
	// counting them Unplaced, so a shard coordinator can retry them on a
	// neighboring shard. Off (the default), unplaced arrivals are dropped
	// exactly as before. Set only by shard.Plan, on multi-shard runs.
	ForwardUnplaced bool
	// Policy is the placement objective. Every caller passes it to
	// DefaultConfig.
	Policy placement.Policy
	// RTTLimitMs is the apps' round-trip SLO (paper default: 20 ms).
	// Figure 12's SLO sweep is its only other setter.
	RTTLimitMs float64
	// Hours is the simulated span (8760 = the paper's year). Set by the
	// experiment suite (cesim -hours), the examples and the ledger.
	Hours int
	// ArrivalsPerHour is the mean Poisson arrival rate over the whole
	// region. Set by Figure 16's load levels, ablation-activation,
	// shard.Plan (each shard's demand share) and the ledger.
	ArrivalsPerHour float64
	// AppLifetimeHours is how long each app runs before departing. Set
	// by ext-redeploy and the ledger.
	AppLifetimeHours int
	// Models optionally replaces the single workload model (appModel)
	// with a mix sampled uniformly per arrival (Figures 15-16's
	// heterogeneous workloads, set there and in examples/hetero).
	Models []string
	// Devices lists the device types present at every site (one
	// aggregate server per device per site). Default: {A2}. Set by
	// Figures 15-16, examples/hetero and the ledger.
	Devices []string
	// CapacityMilliPerSite is each site server's compute capacity in
	// device milli-units before scenario weighting. No run changes
	// DefaultConfig's 4000; the fault experiment and the ledger read it
	// to size scale-out servers.
	CapacityMilliPerSite float64
	// Demand and Capacity pick the Figure 14 scenario, their only
	// setter.
	Demand, Capacity Scenario
	// ServersAlwaysOn models a CDN whose servers never power down; when
	// false, servers start off and the activation term applies. Cleared
	// by Figures 15-16, ablation-activation and examples/hetero.
	ServersAlwaysOn bool
	// Forecaster overrides the default seasonal-naive forecaster (the
	// forecast ablation, its only setter, swaps in EWMA or the oracle).
	Forecaster carbon.Forecaster
	// BatchHours buffers arrivals and places them every N hours
	// (default 1; the batching ablation, its only setter, sweeps this).
	BatchHours int
	// CollectLoadCI enables per-app-hour carbon-intensity sampling for
	// Figure 11c's load-distribution CDF, its only setter.
	CollectLoadCI bool
	// RedeployEveryHours periodically re-places all live applications to
	// track carbon-intensity drift (0 disables it — the paper's
	// prototype behaviour; §7 names automatic redeployment as future
	// work). Migrations pay the data-movement cost below. Set by
	// ext-redeploy, longhaul and the ledger.
	RedeployEveryHours int
	// MigrationDataMB is the state transferred when an app migrates.
	// Set with RedeployEveryHours, by the same callers.
	MigrationDataMB float64
	// MigrationJPerMB is the network energy cost of moving one MB
	// (~0.2 J/MB for wide-area transfer), charged at the destination
	// zone's carbon intensity. Set with RedeployEveryHours, by the same
	// callers.
	MigrationJPerMB float64
	// WarmRedeploy seeds each redeploy solve with the identity placement
	// (every live app on its current server) instead of greedy
	// construction from scratch, so local search pays only for what
	// moved. Off by default: the warm-seeded local optimum can differ
	// from the cold one, and the paper's redeploy results are produced
	// cold. Set only by the ledger's redeploy_churn.
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
	// epoch mode runs unchanged. Set by the traffic, faults and sharded
	// experiments, shard.Plan (each shard's share) and the ledger.
	Traffic *traffic.Config
	// Faults, when non-nil, scripts world dynamics: server crashes and
	// recoveries, zone outages, capacity degradation, carbon-forecast
	// error spikes, and flash fleet scale-outs, applied by the faults
	// phase of the first epoch at or after their instants. Applications
	// on crashed or shrunk servers are evicted and forced back through
	// the placement/redeploy path; Result.Faults records the telemetry.
	// When nil (the default) results are byte-identical to a fault-free
	// run. Set by the faults and sharded experiments, shard.Plan (each
	// shard's part of the script) and the ledger.
	Faults *events.FaultScript
	// Obs, when non-nil, enables observability for the run: the engine
	// traces every epoch phase (per-phase wall time, call counts,
	// sampled allocation deltas — Engine.Tracer), which checkpoints do
	// not carry. Tracing never changes the simulated
	// trajectory — with Obs nil (the default) outputs are byte-identical
	// and the hot path carries no tracing code at all. Set by cesim -obs
	// (through the sweep) and the ledger.
	Obs *obs.Config
}

// appModel and appRatePerSec are what every app runs (but for a
// Config.Models mix) and at what request rate. No run ever set another;
// ConfigSig still renders both (model=ResNet50 rate=10), so signatures
// recorded while they were Config fields stay valid.
const (
	appModel              = energy.ModelResNet50
	appRatePerSec float64 = 10
)

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
		Devices:              []string{energy.A2.Name},
		CapacityMilliPerSite: 4000,
		Demand:               BySiteWeight,
		Capacity:             BySiteWeight,
		ServersAlwaysOn:      true,
	}
}

// Validate reports configuration problems.
func (c *Config) Validate() error {
	if c.Hours <= 0 {
		return fmt.Errorf("sim: Hours must be positive")
	}
	if !(c.RTTLimitMs > 0) || math.IsInf(c.RTTLimitMs, 1) {
		return fmt.Errorf("sim: RTTLimitMs %g is not a finite positive number", c.RTTLimitMs)
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
	if !(c.CapacityMilliPerSite > 0) || math.IsInf(c.CapacityMilliPerSite, 1) {
		return fmt.Errorf("sim: CapacityMilliPerSite %g is not a finite positive number", c.CapacityMilliPerSite)
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
