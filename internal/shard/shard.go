// Package shard runs one World across several sim.Engines: a
// deterministic shared-clock coordinator partitions a region's sites
// into weight-balanced longitude bands, hands each band to its own
// engine as an ordinary site-filtered sim.Config, and advances all
// engines in lock-step rounds of one epoch — every engine steps its
// epoch concurrently, and the coordinator barriers after each round.
//
//	             ┌─────────┐    Step     ┌──────────────┐
//	Plan ───────▶│ shard 0 │────────────▶│  barrier,    │  shard s's
//	(lon bands,  ├─────────┤             │  shard by    │  forwarded apps
//	 split rates,│ shard 1 │────────────▶│  shard:      │  and spill go to
//	 split fault ├─────────┤             │  drain the   │  shard (s+1)%n's
//	 scripts)    │   ...   │────────────▶│  outbox      │  inboxes
//	             └─────────┘             └──────────────┘
//
// # Determinism contract
//
// Every shard spec is a pure function of (Config, World): the partition
// sorts by (Lon, Lat, index), shard seeds derive from the base seed by
// index, and region-level arrival/traffic rates split by demand share.
// Cross-shard interactions — forwarded arrivals a shard could not place
// and spill-over request volume — are exchanged only at round barriers,
// while every engine is quiescent: shard by shard in index order, each
// shard's work goes to its ring neighbor for the next epoch. Worker
// count therefore never changes results: Workers=1 and Workers=N produce
// byte-identical per-shard and merged states, the same guarantee the
// sweep runner makes for grid points. With Exchange off, each shard is
// byte-identical to a standalone serial run of its spec.
package shard

import (
	"fmt"

	"repro/internal/deploy"
	"repro/internal/events"
	"repro/internal/geo"
	"repro/internal/rng"
	"repro/internal/sim"
)

// Config parameterizes a sharded run.
type Config struct {
	// Base is the region-level simulation the shards jointly execute.
	// Base.Sites must be empty (the planner owns the partition).
	Base sim.Config
	// Shards is the partition width (<= 1 runs Base unsharded).
	Shards int
	// Exchange turns on cross-shard interaction: each shard forwards
	// unplaced fresh arrivals and spill-over traffic volume to its ring
	// neighbor at every barrier. Off, shards are fully independent (and
	// each matches its standalone serial run byte for byte).
	Exchange bool
	// Workers is how many goroutines step shards within a round
	// (0 = one per shard, 1 = serial lock-step). Results are identical
	// at any value.
	Workers int
}

func (c *Config) shards() int {
	if c.Shards <= 0 {
		return 1
	}
	return c.Shards
}

func (c *Config) workers() int {
	if c.Workers <= 0 {
		return c.shards()
	}
	return c.Workers
}

// Plan partitions the base config into one standalone sim.Config per
// shard: contiguous weight-balanced longitude bands of the region's
// sites, with the region-level arrival and traffic rates split by each
// band's demand share, per-shard seeds derived from the base seed, and
// the fault script split by target (a site fault goes to the shard
// owning the city; a zone fault to every shard with a site in the zone).
// Plan is a pure function of (cfg, w); with Shards <= 1 it returns the
// base config untouched.
func Plan(cfg Config, w *sim.World) ([]sim.Config, error) {
	if len(cfg.Base.Sites) > 0 {
		return nil, fmt.Errorf("shard: Base.Sites is owned by the planner (found %v)", cfg.Base.Sites)
	}
	if cfg.Base.ForwardUnplaced {
		return nil, fmt.Errorf("shard: Base.ForwardUnplaced is owned by the coordinator (set Exchange)")
	}
	n := cfg.shards()
	if n == 1 {
		return []sim.Config{cfg.Base}, nil
	}
	sites := w.Dep.InRegion(cfg.Base.Region)
	if len(sites) == 0 {
		return nil, fmt.Errorf("shard: no sites in region %v", cfg.Base.Region)
	}
	if n > len(sites) {
		return nil, fmt.Errorf("shard: %d shards over %d sites in region %v", n, len(sites), cfg.Base.Region)
	}

	wts := sim.ScenarioWeights(sites, cfg.Base.Demand)
	var total float64
	for _, v := range wts {
		total += v
	}
	pts := make([]geo.Point, len(sites))
	for i, s := range sites {
		pts[i] = s.Location
	}
	bands, err := geo.PartitionLonBands(pts, wts, n)
	if err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}

	specs := make([]sim.Config, n)
	for s, band := range bands {
		sub := cfg.Base
		sub.Sites = make([]string, len(band))
		var share float64
		for k, i := range band {
			sub.Sites[k] = sites[i].City
			share += wts[i]
		}
		if total > 0 {
			share /= total
		} else {
			share = float64(len(band)) / float64(len(sites))
		}
		sub.Seed = rng.MixSeed2(cfg.Base.Seed, int64(s))
		sub.ArrivalsPerHour = cfg.Base.ArrivalsPerHour * share
		if cfg.Base.Traffic != nil {
			t := *cfg.Base.Traffic
			t.RPS = cfg.Base.Traffic.RPS * share
			sub.Traffic = &t
		}
		if cfg.Exchange {
			sub.ForwardUnplaced = true
		}
		specs[s] = sub
	}

	if cfg.Base.Faults != nil {
		if err := splitFaults(cfg.Base.Faults, sites, bands, specs); err != nil {
			return nil, err
		}
	}
	return specs, nil
}

// splitFaults routes each scripted fault to the shard(s) whose world it
// can target, so every shard engine's target validation still holds: a
// site fault goes to the one shard owning that city, a zone fault to
// every shard with at least one site in the zone, and a targetless
// (device-wide) fault to every shard. A fault matching no shard is the
// same configuration error the unsharded engine would report.
func splitFaults(script *events.FaultScript, sites []*deploy.Site, bands [][]int, specs []sim.Config) error {
	shardOfCity := map[string]int{}
	zoneShards := map[string]map[int]bool{}
	for s, band := range bands {
		for _, i := range band {
			shardOfCity[sites[i].City] = s
			zs := zoneShards[sites[i].ZoneID]
			if zs == nil {
				zs = map[int]bool{}
				zoneShards[sites[i].ZoneID] = zs
			}
			zs[s] = true
		}
	}
	parts := make([][]events.Fault, len(specs))
	for _, f := range script.Faults {
		switch {
		case f.Site != "":
			s, ok := shardOfCity[f.Site]
			if !ok {
				return fmt.Errorf("shard: fault %s targets unknown site %q", f.Kind, f.Site)
			}
			parts[s] = append(parts[s], f)
		case f.Zone != "":
			zs := zoneShards[f.Zone]
			if len(zs) == 0 {
				return fmt.Errorf("shard: fault %s targets zone %q with no site in region", f.Kind, f.Zone)
			}
			for s := range parts {
				if zs[s] {
					parts[s] = append(parts[s], f)
				}
			}
		default:
			for s := range parts {
				parts[s] = append(parts[s], f)
			}
		}
	}
	for s := range specs {
		specs[s].Faults = nil
		if len(parts[s]) > 0 {
			specs[s].Faults = &events.FaultScript{Faults: parts[s]}
		}
	}
	return nil
}
