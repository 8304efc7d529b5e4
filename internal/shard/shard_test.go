package shard

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"maps"
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/carbon"
	"repro/internal/events"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/traffic"
)

var (
	worldOnce sync.Once
	world     *sim.World
	worldErr  error
)

func testWorld(t *testing.T) *sim.World {
	t.Helper()
	worldOnce.Do(func() { world, worldErr = sim.NewWorld(42) })
	if worldErr != nil {
		t.Fatal(worldErr)
	}
	return world
}

// baseConfig is a short region-level run the sharding tests partition.
func baseConfig(region carbon.Region) sim.Config {
	cfg := sim.DefaultConfig(region, placement.CarbonAware{})
	cfg.Hours = 24 * 10
	cfg.ArrivalsPerHour = 8
	return cfg
}

// modeConfig applies one of the three engine modes to a base config.
func modeConfig(t *testing.T, w *sim.World, region carbon.Region, mode string) sim.Config {
	t.Helper()
	cfg := baseConfig(region)
	switch mode {
	case "classic":
	case "traffic":
		cfg.Traffic = &traffic.Config{Scenario: traffic.FlashCrowd, RPS: 700}
	case "faults":
		sites := w.Dep.InRegion(region)
		if len(sites) < 2 {
			t.Fatalf("region %v has %d sites", region, len(sites))
		}
		cfg.Traffic = &traffic.Config{Scenario: traffic.Diurnal, RPS: 500}
		cfg.Faults = &events.FaultScript{Faults: []events.Fault{
			{At: 48 * time.Hour, Kind: events.FaultCrash, Site: sites[0].City, For: 24 * time.Hour},
			{At: 96 * time.Hour, Kind: events.FaultDegrade, Zone: sites[1].ZoneID, Factor: 0.5, For: 12 * time.Hour},
		}}
	default:
		t.Fatalf("unknown mode %q", mode)
	}
	return cfg
}

// stripState zeroes wall-clock telemetry so states compare bit-for-bit.
func stripState(st sim.ResultState) sim.ResultState {
	st.SolveTimeNs = 0
	return st
}

func stateJSON(t *testing.T, st sim.ResultState) string {
	t.Helper()
	b, err := json.Marshal(stripState(st))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestPlanPartition(t *testing.T) {
	w := testWorld(t)
	base := baseConfig(carbon.RegionEurope)
	base.Traffic = &traffic.Config{Scenario: traffic.Steady, RPS: 600}
	cfg := Config{Base: base, Shards: 4, Exchange: true}
	specs, err := Plan(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 4 {
		t.Fatalf("planned %d shards, want 4", len(specs))
	}
	sites := w.Dep.InRegion(base.Region)
	seen := map[string]int{}
	var arrivals, rps float64
	seeds := map[int64]bool{}
	for s, spec := range specs {
		if len(spec.Sites) == 0 {
			t.Fatalf("shard %d owns no sites", s)
		}
		for _, city := range spec.Sites {
			if prev, dup := seen[city]; dup {
				t.Fatalf("site %s in shards %d and %d", city, prev, s)
			}
			seen[city] = s
		}
		if !spec.ForwardUnplaced {
			t.Errorf("shard %d: Exchange did not set ForwardUnplaced", s)
		}
		arrivals += spec.ArrivalsPerHour
		rps += spec.Traffic.RPS
		seeds[spec.Seed] = true
	}
	if len(seen) != len(sites) {
		t.Errorf("shards cover %d of %d region sites", len(seen), len(sites))
	}
	if diff := arrivals - base.ArrivalsPerHour; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("shard arrival rates sum to %g, want %g", arrivals, base.ArrivalsPerHour)
	}
	if diff := rps - base.Traffic.RPS; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("shard traffic RPS sums to %g, want %g", rps, base.Traffic.RPS)
	}
	if len(seeds) != 4 {
		t.Errorf("per-shard seeds collide: %v", seeds)
	}

	// Planning is pure: same inputs, same specs.
	again, err := Plan(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(specs, again) {
		t.Error("Plan is not deterministic")
	}
}

func TestPlanSplitsFaults(t *testing.T) {
	w := testWorld(t)
	base := baseConfig(carbon.RegionEurope)
	sites := w.Dep.InRegion(base.Region)
	base.Faults = &events.FaultScript{Faults: []events.Fault{
		{At: 24 * time.Hour, Kind: events.FaultCrash, Site: sites[0].City, For: 12 * time.Hour},
		{At: 48 * time.Hour, Kind: events.FaultDegrade, Zone: sites[0].ZoneID, Factor: 0.5, For: 6 * time.Hour},
	}}
	specs, err := Plan(Config{Base: base, Shards: 3}, w)
	if err != nil {
		t.Fatal(err)
	}
	siteShards, zoneShards := 0, 0
	for _, spec := range specs {
		if spec.Faults == nil {
			continue
		}
		for _, f := range spec.Faults.Faults {
			switch {
			case f.Site != "":
				siteShards++
				owns := false
				for _, city := range spec.Sites {
					owns = owns || city == f.Site
				}
				if !owns {
					t.Errorf("site fault routed to shard not owning %s", f.Site)
				}
			case f.Zone != "":
				zoneShards++
			}
		}
	}
	if siteShards != 1 {
		t.Errorf("site fault appears in %d shards, want exactly 1", siteShards)
	}
	if zoneShards == 0 {
		t.Error("zone fault routed to no shard")
	}

	base.Faults.Faults[0].Site = "Atlantis"
	if _, err := Plan(Config{Base: base, Shards: 3}, w); err == nil {
		t.Error("accepted fault targeting an unknown site")
	}
}

func TestPlanErrors(t *testing.T) {
	w := testWorld(t)
	base := baseConfig(carbon.RegionEurope)

	bad := Config{Base: base, Shards: 2}
	bad.Base.Sites = []string{"London"}
	if _, err := Plan(bad, w); err == nil {
		t.Error("accepted pre-set Base.Sites")
	}
	bad = Config{Base: base, Shards: 2}
	bad.Base.ForwardUnplaced = true
	if _, err := Plan(bad, w); err == nil {
		t.Error("accepted pre-set Base.ForwardUnplaced")
	}
	sites := w.Dep.InRegion(base.Region)
	if _, err := Plan(Config{Base: base, Shards: len(sites) + 1}, w); err == nil {
		t.Error("accepted more shards than sites")
	}

	// Shards <= 1 passes the base through untouched.
	specs, err := Plan(Config{Base: base}, w)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 1 || !reflect.DeepEqual(specs[0], base) {
		t.Errorf("unsharded plan altered the base config")
	}
}

// TestShardedMatchesSerial is the headline determinism proof: with
// Exchange off, every shard of a parallel coordinated run is
// byte-identical to a standalone serial run of that shard's spec — in
// all three engine modes — and a 1-shard coordinator reproduces the
// plain serial run of the base config.
func TestShardedMatchesSerial(t *testing.T) {
	w := testWorld(t)
	for _, mode := range []string{"classic", "traffic", "faults"} {
		for _, shards := range []int{2, 4} {
			cfg := Config{
				Base:   modeConfig(t, w, carbon.RegionEurope, mode),
				Shards: shards,
			}
			c, err := New(cfg, w)
			if err != nil {
				t.Fatalf("%s/%d: %v", mode, shards, err)
			}
			if err := c.Run(); err != nil {
				t.Fatalf("%s/%d: %v", mode, shards, err)
			}
			results := shardResults(c)
			specs, err := Plan(cfg, w)
			if err != nil {
				t.Fatal(err)
			}
			for s, spec := range specs {
				serial, err := sim.Run(spec, w)
				if err != nil {
					t.Fatalf("%s/%d shard %d serial: %v", mode, shards, s, err)
				}
				got := stateJSON(t, results[s].State())
				want := stateJSON(t, serial.State())
				if got != want {
					t.Errorf("%s/%d: shard %d diverged from its standalone serial run\n got: %s\nwant: %s",
						mode, shards, s, got, want)
				}
			}
		}

		// One shard is exactly the serial path.
		base := modeConfig(t, w, carbon.RegionEurope, mode)
		c, err := New(Config{Base: base, Shards: 1}, w)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Run(); err != nil {
			t.Fatal(err)
		}
		serial, err := sim.Run(base, w)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := stateJSON(t, shardResults(c)[0].State()), stateJSON(t, serial.State()); got != want {
			t.Errorf("%s: 1-shard run diverged from serial\n got: %s\nwant: %s", mode, got, want)
		}
	}
}

// exchangeConfig provokes cross-shard interaction: a capacity-starved
// deployment (unplaced arrivals forward) under bursty traffic (drops
// spill over).
func exchangeConfig(t *testing.T, w *sim.World) Config {
	t.Helper()
	base := modeConfig(t, w, carbon.RegionEurope, "faults")
	base.Hours = 24 * 7
	base.ArrivalsPerHour = 30
	base.CapacityMilliPerSite = 600
	base.AppLifetimeHours = 72
	return Config{Base: base, Shards: 4, Exchange: true}
}

// exchangeMergedDigest is the first 8 bytes of the SHA-256 of
// exchangeConfig's merged state JSON (SolveTimeNs zeroed), recorded on
// linux/amd64.
const exchangeMergedDigest = "6a55738fbd002889"

// TestShardedExchangeDeterministic proves worker count never changes
// results: the same exchanged-coupled run with 1 worker and with one
// worker per shard produces byte-identical per-shard and merged states.
func TestShardedExchangeDeterministic(t *testing.T) {
	w := testWorld(t)
	run := func(workers int) (*Coordinator, []string, string) {
		cfg := exchangeConfig(t, w)
		cfg.Workers = workers
		c, err := New(cfg, w)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Run(); err != nil {
			t.Fatal(err)
		}
		var perShard []string
		for _, r := range shardResults(c) {
			perShard = append(perShard, stateJSON(t, r.State()))
		}
		merged, err := c.MergedState()
		if err != nil {
			t.Fatal(err)
		}
		return c, perShard, stateJSON(t, merged)
	}

	serialC, serialShards, serialMerged := run(1)
	parallelC, parallelShards, parallelMerged := run(4)

	if serialC.Stats() != parallelC.Stats() {
		t.Errorf("exchange stats diverged: serial %+v parallel %+v", serialC.Stats(), parallelC.Stats())
	}
	for s := range serialShards {
		if serialShards[s] != parallelShards[s] {
			t.Errorf("shard %d state depends on worker count", s)
		}
	}
	if serialMerged != parallelMerged {
		t.Error("merged state depends on worker count")
	}
	// Both runs could move together, so the merged state is also pinned:
	// a change in what is delivered, or in what order, moves it.
	if runtime.GOARCH == "amd64" {
		sum := sha256.Sum256([]byte(serialMerged))
		if got := hex.EncodeToString(sum[:8]); got != exchangeMergedDigest {
			t.Errorf("merged exchange state digest %s, recorded %s", got, exchangeMergedDigest)
		}
	}

	// The workload must actually exercise the exchange, or the test
	// proves nothing.
	stats := serialC.Stats()
	if stats.AppsForwarded == 0 {
		t.Error("no apps forwarded: exchange untested (tune the workload)")
	}
	if stats.SpillRequests == 0 {
		t.Error("no spill traffic: exchange untested (tune the workload)")
	}
	if stats.Messages == 0 {
		t.Error("no messages delivered")
	}
}

// TestShardedObsDeterministic proves the merged phase report is
// independent of shard completion order: its phases and call counts are
// the same across worker counts.
func TestShardedObsDeterministic(t *testing.T) {
	w := testWorld(t)
	run := func(workers int) []obs.PhaseStat {
		base := baseConfig(carbon.RegionEurope)
		base.Hours = 24 * 5
		base.Obs = &obs.Config{FlightRecorderEvents: -1}
		c, err := New(Config{Base: base, Shards: 4, Workers: workers}, w)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Run(); err != nil {
			t.Fatal(err)
		}
		phases, err := c.MergedPhases()
		if err != nil {
			t.Fatal(err)
		}
		return phases
	}

	serialPhases := run(1)
	parallelPhases := run(4)
	if len(serialPhases) == 0 {
		t.Fatal("no merged phases from an Obs-enabled run")
	}
	if len(serialPhases) != len(parallelPhases) {
		t.Fatalf("phase counts differ: %d vs %d", len(serialPhases), len(parallelPhases))
	}
	for i := range serialPhases {
		if serialPhases[i].Name != parallelPhases[i].Name || serialPhases[i].Calls != parallelPhases[i].Calls {
			t.Errorf("phase %d: %s/%d vs %s/%d", i,
				serialPhases[i].Name, serialPhases[i].Calls,
				parallelPhases[i].Name, parallelPhases[i].Calls)
		}
	}
}

// TestMergedTotalsEqualShardSums: the merged state's counters and
// per-city placements are exactly the sums over shards, and its carbon
// and energy are the float sums taken in shard order, bit for bit — in
// every engine mode and with exchange on.
func TestMergedTotalsEqualShardSums(t *testing.T) {
	w := testWorld(t)
	cfgs := map[string]Config{"exchange": exchangeConfig(t, w)}
	for _, mode := range []string{"classic", "traffic", "faults"} {
		cfgs[mode] = Config{Base: modeConfig(t, w, carbon.RegionEurope, mode), Shards: 4}
	}
	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) {
			c, err := New(cfg, w)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Run(); err != nil {
				t.Fatal(err)
			}
			merged, err := c.MergedState()
			if err != nil {
				t.Fatal(err)
			}
			var want sim.ResultState
			var traffic [4]int64 // Requests, SLOMet, Spilled, Dropped
			cities := map[string]int64{}
			for _, r := range shardResults(c) {
				st := r.State()
				want.Placed += st.Placed
				want.Unplaced += st.Unplaced
				want.Migrations += st.Migrations
				want.Batches += st.Batches
				want.CarbonG += st.CarbonG
				want.EnergyKWh += st.EnergyKWh
				for city, n := range st.PlacementsByCity.All() {
					cities[city] += n
				}
				if tr := st.Traffic; tr != nil {
					traffic[0] += tr.Requests
					traffic[1] += tr.SLOMet
					traffic[2] += tr.Spilled
					traffic[3] += tr.Dropped
				}
			}
			if want.Placed == 0 {
				t.Fatal("nothing placed: the sums are vacuous")
			}
			if merged.Placed != want.Placed || merged.Unplaced != want.Unplaced ||
				merged.Migrations != want.Migrations || merged.Batches != want.Batches {
				t.Errorf("merged placed/unplaced/migrations/batches %d/%d/%d/%d, shard sums %d/%d/%d/%d",
					merged.Placed, merged.Unplaced, merged.Migrations, merged.Batches,
					want.Placed, want.Unplaced, want.Migrations, want.Batches)
			}
			if math.Float64bits(merged.CarbonG) != math.Float64bits(want.CarbonG) {
				t.Errorf("merged carbon %v g, shard sum %v g", merged.CarbonG, want.CarbonG)
			}
			if math.Float64bits(merged.EnergyKWh) != math.Float64bits(want.EnergyKWh) {
				t.Errorf("merged energy %v kWh, shard sum %v kWh", merged.EnergyKWh, want.EnergyKWh)
			}
			if got := maps.Collect(merged.PlacementsByCity.All()); !maps.Equal(got, cities) {
				t.Errorf("merged placements by city %v, shard sums %v", merged.PlacementsByCity, cities)
			}
			if cfg.Base.Traffic == nil {
				if merged.Traffic != nil {
					t.Error("merged traffic state without traffic mode")
				}
				return
			}
			tr := merged.Traffic
			if tr == nil || tr.Requests == 0 {
				t.Fatal("no merged traffic: the sums are vacuous")
			}
			if got := [4]int64{tr.Requests, tr.SLOMet, tr.Spilled, tr.Dropped}; got != traffic {
				t.Errorf("merged requests/slo-met/spilled/dropped %v, shard sums %v", got, traffic)
			}
		})
	}
}

// shardResults returns every shard's accumulated result, in shard-index
// order.
func shardResults(c *Coordinator) []*sim.Result {
	out := make([]*sim.Result, len(c.engines))
	for i, e := range c.engines {
		out[i] = e.Finish()
	}
	return out
}

// TestMergeRefusesPerReplicaStats: a shard engine's router keeps no
// per-replica rows, so MergeResults has no fold for them and must refuse
// a traffic state that carries them instead of dropping them.
func TestMergeRefusesPerReplicaStats(t *testing.T) {
	perReplica := &router.StatsState{Replicas: map[string]router.ReplicaStatsState{"r0": {Requests: 1}}}
	for _, states := range [][]sim.ResultState{
		{{Traffic: perReplica}},
		{{Traffic: &router.StatsState{}}, {Traffic: perReplica}},
	} {
		if _, err := MergeResults(states); err == nil {
			t.Errorf("merged %d states with per-replica traffic stats, want an error", len(states))
		}
	}
}
