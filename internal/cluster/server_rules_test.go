package cluster_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/carbon"
	"repro/internal/cluster"
	"repro/internal/energy"
	"repro/internal/events"
	"repro/internal/geo"
	"repro/internal/latency"
	"repro/internal/orchestrator"
	"repro/internal/placement"
)

// A cluster only describes its servers; the orchestrator's server table
// runs them. These tests hold a cluster's servers to the formulation's
// allocation and power rules (Eq. 1, 4, 5) through the orchestrator's
// public API.

// runCluster builds a two-DC cluster (Miami: s1, Tampa: s2, one A2 of
// 1000 units per dimension each) and an orchestrator running it.
func runCluster(t *testing.T) *orchestrator.Orchestrator {
	t.Helper()
	var mix carbon.Mix
	mix[carbon.Solar], mix[carbon.Gas], mix[carbon.Oil], mix[carbon.Coal] = 0.1, 0.6, 0.05, 0.6
	reg, err := carbon.NewRegistry([]*carbon.Zone{
		{ID: "Z1", Name: "z1", Region: carbon.RegionUS, Location: geo.Point{Lat: 26, Lon: -80}, Capacity: mix},
	})
	if err != nil {
		t.Fatal(err)
	}
	traces := carbon.NewGenerator(5).GenerateTraces(reg)
	var dcs []*cluster.DataCenter
	for i, city := range []string{"Miami", "Tampa"} {
		dc := cluster.NewDataCenter("dc"+city, city, geo.Point{Lat: 26, Lon: -80}, "Z1", city)
		id := []string{"s1", "s2"}[i]
		if err := dc.AddServer(cluster.NewServer(id, dc.ID, energy.A2, cluster.NewResources(1000, 1000, 1000, 1000))); err != nil {
			t.Fatal(err)
		}
		dcs = append(dcs, dc)
	}
	cl, err := cluster.NewCluster(dcs)
	if err != nil {
		t.Fatal(err)
	}
	shaper := latency.NewShaper()
	shaper.SetDelay("Miami", "Tampa", 2*time.Millisecond)
	o, err := orchestrator.New(orchestrator.Config{
		Cluster: cl,
		Carbon:  carbon.NewService(traces, nil),
		Shaper:  shaper,
		Policy:  placement.LatencyAware{},
		Start:   traces.Start.Add(30 * 24 * time.Hour),
	})
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func recipe(name string) orchestrator.Recipe {
	return orchestrator.Recipe{Name: name, Model: energy.ModelResNet50, Source: "Miami", SLOms: 20, RatePerSec: 10}
}

// TestServerAllocateRejections: an allocation onto a powered-off server
// (Eq. 5), a second allocation under a live name, and allocations past a
// server's capacity (Eq. 1) are refused, and a refused restore leaves the
// servers untouched for a valid one.
func TestServerAllocateRejections(t *testing.T) {
	o := runCluster(t)
	base, err := o.SaveState()
	if err != nil {
		t.Fatal(err)
	}
	alloc := func(name, srv string, cpu float64) orchestrator.DeploymentState {
		return orchestrator.DeploymentState{
			Deployment: orchestrator.Deployment{Recipe: recipe(name), ServerID: srv, DCID: "dcMiami", ZoneID: "Z1"},
			Demand:     cluster.NewResources(cpu, 100, 100, 100),
		}
	}
	load := func(on bool, deps ...orchestrator.DeploymentState) error {
		st := base
		st.Servers = []orchestrator.ServerPowerState{{ID: "s1", PoweredOn: on}, {ID: "s2", PoweredOn: true}}
		st.Deployments = deps
		return o.LoadState(st)
	}

	if err := load(false, alloc("a", "s1", 100)); err == nil || !strings.Contains(err.Error(), "powered-off") {
		t.Errorf("allocate on off server: %v", err)
	}
	if err := load(true, alloc("a", "s1", 100), alloc("a", "s1", 100)); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Errorf("duplicate allocation: %v", err)
	}
	if err := load(true, alloc("a", "s1", 100), alloc("b", "s1", 950)); err == nil || !strings.Contains(err.Error(), "exceed its capacity") {
		t.Errorf("over-capacity allocation: %v", err)
	}
	if err := load(true, alloc("a", "s1", 100), alloc("b", "s1", 900)); err != nil {
		t.Fatalf("allocations that fit exactly: %v", err)
	}
	if d := o.Deployment("a"); d == nil || d.ServerID != "s1" {
		t.Errorf("restored deployment a = %+v, want on s1", d)
	}
	if err := o.Submit(recipe("a")); err == nil {
		t.Error("a live name accepted again")
	}
}

// TestServerPowerOffWithAppsRejected: a server is never powered off while
// it hosts an application (Eq. 4). A crash first evicts what the server
// hosts, back to the queue; the server goes off empty and the application
// is not lost.
func TestServerPowerOffWithAppsRejected(t *testing.T) {
	o := runCluster(t)
	if err := o.Submit(recipe("a")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := o.PlaceBatch(); err != nil {
		t.Fatal(err)
	}
	if d := o.Deployment("a"); d == nil || d.ServerID != "s1" {
		t.Fatalf("deployment a = %+v, want on the local s1", d)
	}
	var evicted []string
	o.SetEvictionHandler(func(_ time.Time, names []string) { evicted = append(evicted, names...) })
	if err := o.InjectScript(&events.FaultScript{Faults: []events.Fault{{Kind: events.FaultCrash, Site: "Miami"}}}); err != nil {
		t.Fatal(err)
	}
	if err := o.Tick(time.Hour); err != nil {
		t.Fatal(err)
	}
	if len(evicted) != 1 || evicted[0] != "a" {
		t.Errorf("evicted = %v, want [a]", evicted)
	}
	st, err := o.SaveState()
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range st.Servers {
		if sp.ID == "s1" && sp.PoweredOn {
			t.Error("the crashed server is still powered on")
		}
	}
	for _, ds := range st.Deployments {
		if ds.ServerID == "s1" {
			t.Errorf("%s still sits on the powered-off s1", ds.Recipe.Name)
		}
	}
	pending := false
	for _, rec := range st.Pending {
		pending = pending || rec.Name == "a"
	}
	if d := o.Deployment("a"); (d == nil) != pending {
		t.Errorf("a is lost or doubled: deployment %+v, pending %v", d, pending)
	}
}
