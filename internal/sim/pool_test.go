package sim

import (
	"encoding/json"
	"reflect"
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

// oraclePool rebuilds the traffic replica pool from e.live the way the
// engine did before the pool was indexed: a map keyed by (site, model,
// device), replicas in first-occurrence order, capacities summed.
func oraclePool(t *testing.T, e *Engine) ([]router.Replica, []poolKey) {
	t.Helper()
	var pool []router.Replica
	var keys []poolKey
	idx := map[poolKey]int{}
	for i := range e.live {
		a := &e.live[i]
		k := poolKey{a.site, a.model, a.device}
		at, ok := idx[k]
		if !ok {
			prof, err := energy.ProfileFor(a.model, a.device)
			if err != nil {
				t.Fatal(err)
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
		pool[at].CapacityRPS += e.cfg.RatePerSec
	}
	return pool, keys
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
// every epoch, holds trafficReplicas() against the map-keyed oracle: same
// replicas, same order, same summed capacity. The run must actually reach
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
		got, err := e.trafficReplicas()
		if err != nil {
			t.Fatal(err)
		}
		want, keys := oraclePool(t, e)
		if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("epoch %d: pool diverged from the map-keyed oracle\n got: %+v\nwant: %+v", e.Epoch(), got, want)
		}

		first := map[poolKey]int{}
		for i := range e.live {
			a := &e.live[i]
			k := poolKey{a.site, a.model, a.device}
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
