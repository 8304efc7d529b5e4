package sim

import (
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/carbon"
	"repro/internal/energy"
	"repro/internal/events"
	"repro/internal/placement"
	"repro/internal/router"
	"repro/internal/traffic"
)

// poolKey is the oracle's replica class: what trafficReplicas aggregates
// by, spelled out with the strings the engine no longer hashes.
type poolKey struct {
	site          int
	model, device string
}

// legacyTrafficReplicas is the replica pool as the engine built it
// before it kept the pool cells, kept as their oracle: a walk of the
// whole live table into a map keyed by (site, model, device), replicas in
// first-occurrence order, capacities summed.
func legacyTrafficReplicas(e *Engine) ([]router.Replica, []poolKey, error) {
	var pool []router.Replica
	var keys []poolKey
	idx := map[poolKey]int{}
	live := e.live.items()
	for i := range live {
		a := &live[i]
		k := poolKey{a.site, e.pool.models[a.mi], e.servers[a.srv].Device.Name}
		at, ok := idx[k]
		if !ok {
			prof, err := energy.ProfileFor(k.model, k.device)
			if err != nil {
				return nil, nil, err
			}
			at = len(pool)
			idx[k] = at
			keys = append(keys, k)
			pool = append(pool, router.Replica{
				ID:            e.sites[a.site].City,
				Loc:           a.site,
				ZoneID:        e.sites[a.site].ZoneID,
				ServiceMs:     prof.InferenceMs,
				EnergyPerReqJ: prof.EnergyPerRequestJ(),
			})
		}
		pool[at].CapacityRPS += appRatePerSec
	}
	return pool, keys, nil
}

// checkLive returns the first way the live table's derived state differs
// from a recount, or nil: the head within the first half of the backing
// array; sequence numbers increasing along the table and below the next
// one; the late count equal to the late flags, and every app not flagged
// late expiring no earlier than any app before it (which is what lets
// departures skip the table); every pool cell holding exactly its live
// apps' sequence numbers in table order and listed while it holds any;
// and trafficReplicas equal to legacyTrafficReplicas.
func checkLive(e *Engine) error {
	t := &e.live
	if t.head < 0 || 2*t.head > len(t.buf) {
		return fmt.Errorf("live table head %d outside the first half of its %d rows", t.head, len(t.buf))
	}
	live := t.items()
	cells := map[cellID][]int{}
	late, maxExp := 0, math.MinInt
	for i := range live {
		a := &live[i]
		if i > 0 && a.seq <= live[i-1].seq || a.seq >= t.seq {
			return fmt.Errorf("live app %d has sequence number %d after %d, next %d", i, a.seq, live[max(i-1, 0)].seq, t.seq)
		}
		if a.late {
			late++
		} else if a.expires < maxExp {
			return fmt.Errorf("live app %d expires at %d behind an app expiring at %d, and is not late", i, a.expires, maxExp)
		}
		maxExp = max(maxExp, a.expires)
		id := e.cell(a)
		cells[id] = append(cells[id], a.seq)
	}
	if late != t.late {
		return fmt.Errorf("late count %d, the table flags %d", t.late, late)
	}
	if len(live) > 0 && maxExp > t.maxExpires {
		return fmt.Errorf("an app expires at %d, past the table's latest expiry %d", maxExp, t.maxExpires)
	}
	listed := map[cellID]bool{}
	for _, id := range e.pool.order {
		if listed[id] || !e.pool.at(id).listed {
			return fmt.Errorf("pool order lists cell %v twice or unflagged", id)
		}
		listed[id] = true
	}
	for mi := range e.pool.cells {
		for pair := range e.pool.cells[mi] {
			id := cellID{mi, pair}
			c := e.pool.at(id)
			if !slices.Equal(c.items(), cells[id]) {
				return fmt.Errorf("pool cell %v holds %v, the table %v", id, c.items(), cells[id])
			}
			if c.listed != listed[id] || c.len() > 0 && !c.listed {
				return fmt.Errorf("pool cell %v with %d apps: flagged listed %t, listed %t", id, c.len(), c.listed, listed[id])
			}
		}
	}
	got, err := e.trafficReplicas()
	if err != nil {
		return err
	}
	want, _, err := legacyTrafficReplicas(e)
	if err != nil {
		return err
	}
	if len(got) != len(want) || len(want) > 0 && !reflect.DeepEqual(got, want) {
		return fmt.Errorf("replica pool diverged from the legacy walk\n got: %+v\nwant: %+v", got, want)
	}
	return nil
}

// poolStormConfig is a traffic run whose live set is shaken the ways the
// pool index has to survive: two models on two devices (several classes
// per site), a crash of the busiest city that evicts whole classes and
// forces a redeploy, and — once it is back — a two-server scale-out onto
// that city's existing (site, A2) pair, whose original server is degraded
// first so that it keeps a few applications while new ones overflow onto
// its new siblings.
func poolStormConfig(t *testing.T, w *World) Config {
	t.Helper()
	cfg := shortConfig(carbon.RegionEurope, placement.CarbonAware{})
	cfg.Hours = 24 * 8
	cfg.ArrivalsPerHour = 12
	cfg.Models = []string{energy.ModelResNet50, energy.ModelEfficientNetB0}
	cfg.Devices = []string{energy.A2.Name, energy.GTX1080.Name}
	cfg.Traffic = &traffic.Config{Scenario: traffic.FlashCrowd, RPS: 900}
	city := hotCity(t, cfg, w)
	cfg.Faults = &events.FaultScript{Faults: []events.Fault{
		{At: 40 * time.Hour, Kind: events.FaultCrash, Site: city, For: 20 * time.Hour},
		{At: 66 * time.Hour, Kind: events.FaultDegrade, Site: city, Device: energy.A2.Name, Factor: 0.25, For: 200 * time.Hour},
		{At: 70 * time.Hour, Kind: events.FaultScaleOut, Site: city, Device: energy.A2.Name, CapacityMilli: 4000, Count: 2},
	}}
	return cfg
}

// TestTrafficReplicasMatchesMapOracle steps the storm run and, after
// every epoch, holds the pool to a recount and trafficReplicas() to the
// map-keyed legacyTrafficReplicas (checkLive): same replicas, same order,
// same summed capacity. The run must actually reach
// the cases that distinguish an index by (site, device) pair from one by
// server — a replica pooling applications of two servers after the
// scale-out — and the order rule from a stable slot per class: a class
// whose first application left moves behind the classes it used to lead.
func TestTrafficReplicasMatchesMapOracle(t *testing.T) {
	w := testWorld(t)
	cfg := poolStormConfig(t, w)
	e, err := NewEngine(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	var pooledServers, reordered bool
	var prev []poolKey
	for !e.Done() {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
		if err := checkLive(e); err != nil {
			t.Fatalf("epoch %d: %v", e.Epoch(), err)
		}
		_, keys, err := legacyTrafficReplicas(e)
		if err != nil {
			t.Fatal(err)
		}

		first := map[poolKey]int{}
		for i := range e.live.items() {
			a := &e.live.items()[i]
			k := poolKey{a.site, e.pool.models[a.mi], e.servers[a.srv].Device.Name}
			if srv, ok := first[k]; !ok {
				first[k] = a.srv
			} else if srv != a.srv {
				pooledServers = true
			}
		}
		was := map[poolKey]int{}
		for i, k := range prev {
			was[k] = i
		}
		for i, a := range keys {
			for _, b := range keys[i+1:] {
				ia, oka := was[a]
				ib, okb := was[b]
				if oka && okb && ib < ia {
					reordered = true
				}
			}
		}
		prev = keys
	}
	fs := e.Finish().Faults
	if fs == nil || fs.Evictions == 0 || fs.ScaleOuts != 2 {
		t.Fatalf("storm did not fire: %+v", fs)
	}
	if !pooledServers {
		t.Error("no replica ever pooled applications of two servers: the scale-out case went untested")
	}
	if !reordered {
		t.Error("no class ever moved behind another: the first-occurrence order rule went untested")
	}
}

// TestTrafficReplicasSurviveRestore snapshots the storm run after the
// scale-out, restores it off JSON, and requires the restored engine to
// present the same pool — the dense indices are derived state, rebuilt by
// the restore path — then and on every later epoch.
func TestTrafficReplicasSurviveRestore(t *testing.T) {
	w := testWorld(t)
	cfg := poolStormConfig(t, w)
	e, err := NewEngine(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	for e.Epoch() < 100 {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := json.Marshal(e.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	r, err := NewEngineFrom(cfg, w, &snap)
	if err != nil {
		t.Fatal(err)
	}
	for {
		got, err := r.trafficReplicas()
		if err != nil {
			t.Fatal(err)
		}
		want, err := e.trafficReplicas()
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 || !reflect.DeepEqual(got, want) {
			t.Fatalf("epoch %d: restored pool differs\n got: %+v\nwant: %+v", e.Epoch(), got, want)
		}
		if e.Done() {
			break
		}
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
		if err := r.Step(); err != nil {
			t.Fatal(err)
		}
	}
}

// stormShape is the ledger's faults_storm run: US, 4 380 h, 40 arrivals
// an hour living 48 h on A2 and GTX 1080 pools, Steady traffic at 5 000
// RPS, and three rounds of a site crash, a zone outage, a 0.3x degrade, a
// 4x forecast-error spike and a two-server scale-out on the region's
// heaviest sites.
func stormShape(w *World) Config {
	cfg := DefaultConfig(carbon.RegionUS, placement.CarbonAware{})
	cfg.Hours = 4380
	cfg.ArrivalsPerHour = 40
	cfg.AppLifetimeHours = 48
	cfg.Devices = []string{energy.A2.Name, energy.GTX1080.Name}
	cfg.Traffic = &traffic.Config{Seed: cfg.Seed, Scenario: traffic.Steady, RPS: 5000}
	sites := w.Dep.InRegion(cfg.Region)
	wts := weights(sites, cfg.Demand)
	heavy := make([]int, len(sites))
	for i := range heavy {
		heavy[i] = i
	}
	slices.SortStableFunc(heavy, func(a, b int) int { return cmp.Compare(wts[b], wts[a]) })
	const rounds = 3
	period := cfg.Hours / rounds
	h := func(full int) time.Duration { return time.Duration(max(1, full*period/1460)) * time.Hour }
	cfg.Faults = &events.FaultScript{}
	for round := range rounds {
		at := time.Duration(round*period) * time.Hour
		a, b, c := sites[heavy[round%len(sites)]], sites[heavy[(round+1)%len(sites)]], sites[heavy[(round+2)%len(sites)]]
		cfg.Faults.Faults = append(cfg.Faults.Faults,
			events.Fault{At: at + h(100), Kind: events.FaultCrash, Site: a.City, For: h(48)},
			events.Fault{At: at + h(300), Kind: events.FaultCrash, Zone: b.ZoneID, For: h(24)},
			events.Fault{At: at + h(500), Kind: events.FaultDegrade, Site: c.City, Factor: 0.3, For: h(96)},
			events.Fault{At: at + h(700), Kind: events.FaultForecastError, Zone: a.ZoneID, Factor: 4, For: h(72)},
			events.Fault{At: at + h(900), Kind: events.FaultScaleOut, Site: a.City, Device: energy.A2.Name,
				CapacityMilli: cfg.CapacityMilliPerSite, Count: 2},
		)
	}
	return cfg
}

// TestLiveWorkCounted counts, on faults_storm's shape, the live rows the
// departures phase visits and the pool cells trafficReplicas visits per
// epoch, against the live table a walk of each would visit. In an epoch
// that starts with no late app and applies no fault, departures visit
// exactly the apps that depart; the pool never visits more cells than
// the pool has. The totals are logged (go test -v) for the profile
// notes.
func TestLiveWorkCounted(t *testing.T) {
	if testing.Short() {
		t.Skip("steps 4 380 epochs")
	}
	w := testWorld(t)
	e, err := NewEngine(stormShape(w), w)
	if err != nil {
		t.Fatal(err)
	}
	var live, departing, lateEpochs, cellsMax int
	for !e.Done() {
		epoch, events := e.Epoch(), e.res.Faults.Events
		late := e.live.late
		due := 0
		for _, a := range e.live.items() {
			if a.expires <= epoch {
				due++
			}
		}
		before := e.visits
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
		rows, cells := e.visits.rows-before.rows, e.visits.cells-before.cells
		if late == 0 && e.res.Faults.Events == events && rows != due {
			t.Fatalf("epoch %d: departures visited %d rows, %d apps departed", epoch, rows, due)
		}
		n := 0
		for mi := range e.pool.cells {
			n += len(e.pool.cells[mi])
		}
		if cells > n {
			t.Fatalf("epoch %d: the pool visited %d cells of %d", epoch, cells, n)
		}
		live += e.live.len()
		departing += due
		cellsMax = max(cellsMax, cells)
		if late > 0 {
			lateEpochs++
		}
	}
	fs := e.Finish().Faults
	if fs.Evictions == 0 || fs.ScaleOuts == 0 || lateEpochs == 0 {
		t.Fatalf("the storm left no late app: %+v, %d epochs with late apps", fs, lateEpochs)
	}
	n := float64(e.Epoch())
	t.Logf("live %.1f/epoch: a walk of each visits %.1f rows", float64(live)/n, 2*float64(live)/n)
	t.Logf("departures visited %.1f rows/epoch (%.1f departed), the pool %.1f cells/epoch (at most %d); %d epochs began with a late app",
		float64(e.visits.rows)/n, float64(departing)/n, float64(e.visits.cells)/n, cellsMax, lateEpochs)
}

// TestEvictKeepsLiveIndex evicts, outside a Step, every app of the
// server hosting a late app in the pool storm run, and requires the live
// table's derived state to match a recount right after (checkLive). In a
// Step the forced redeploy that follows every eviction refills the pool,
// which would hide an eviction that left its cell or the late count
// stale.
func TestEvictKeepsLiveIndex(t *testing.T) {
	w := testWorld(t)
	e, err := NewEngine(poolStormConfig(t, w), w)
	if err != nil {
		t.Fatal(err)
	}
	r := (*engineRows)(e)
	for !e.Done() {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
		if e.live.late == 0 {
			continue
		}
		live := e.live.items()
		j := live[slices.IndexFunc(live, func(a liveApp) bool { return a.late })].srv
		var apps []int
		for i := range r.Live() {
			if r.Hosts(j, i) {
				apps = append(apps, i)
			}
		}
		n, late := e.live.len(), e.live.late
		r.Evict(j, apps)
		if err := checkLive(e); err != nil {
			t.Fatalf("epoch %d, %d apps evicted from server %d: %v", e.Epoch(), len(apps), j, err)
		}
		if e.live.len() != n-len(apps) || e.live.late >= late {
			t.Fatalf("evicting %d apps took the table from %d to %d apps, %d to %d late", len(apps), n, e.live.len(), late, e.live.late)
		}
		return
	}
	t.Fatal("no epoch had a late app")
}
