package orchestrator

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/carbon"
	"repro/internal/cluster"
	"repro/internal/energy"
	"repro/internal/events"
	"repro/internal/geo"
	"repro/internal/latency"
	"repro/internal/placement"
)

// fixture builds a two-DC orchestrator: a dirty local DC and a green
// remote one 6ms away (one-way).
func fixture(t *testing.T, pol placement.Policy) *Orchestrator {
	t.Helper()
	traces, err := fixtureTraces()
	if err != nil {
		t.Fatal(err)
	}

	mk := func(dcID, city, zone string) *cluster.DataCenter {
		dc := cluster.NewDataCenter(dcID, city, geo.Point{Lat: 28, Lon: -82}, zone, city)
		srv := cluster.NewServer("srv-"+city, dcID, energy.A2,
			cluster.NewResources(1000, 65536, 16384, 1000))
		if err := dc.AddServer(srv); err != nil {
			t.Fatal(err)
		}
		return dc
	}
	cl, err := cluster.NewCluster([]*cluster.DataCenter{
		mk("dc-A", "CityA", "Z-DIRTY"),
		mk("dc-B", "CityB", "Z-GREEN"),
	})
	if err != nil {
		t.Fatal(err)
	}
	shaper := latency.NewShaper()
	shaper.SetDelay("CityA", "CityB", 6*time.Millisecond)

	orch, err := New(Config{
		Cluster: cl,
		Carbon:  carbon.NewService(traces, nil),
		Shaper:  shaper,
		Policy:  pol,
		Start:   traces.Start.Add(30 * 24 * time.Hour),
	})
	if err != nil {
		t.Fatal(err)
	}
	return orch
}

// fixtureTraces generates the fixture's two zone-years once per test
// binary; every fixture reads the same (read-only) trace set.
var fixtureTraces = sync.OnceValues(func() (*carbon.TraceSet, error) {
	reg, err := carbon.NewRegistry([]*carbon.Zone{
		{ID: "Z-DIRTY", Name: "dirty", Region: carbon.RegionUS,
			Location: geo.Point{Lat: 30, Lon: -84},
			Capacity: carbonCap(0.1, 0, 0, 0, 0, 0.6, 0.05, 0.6)},
		{ID: "Z-GREEN", Name: "green", Region: carbon.RegionUS,
			Location: geo.Point{Lat: 26, Lon: -80},
			Capacity: carbonCap(0.1, 0.05, 0.9, 0.4, 0, 0.1, 0, 0)},
	})
	if err != nil {
		return nil, err
	}
	return carbon.NewGenerator(5).GenerateTraces(reg), nil
})

func carbonCap(solar, wind, hydro, nuclear, biomass, gas, oil, coal float64) carbon.Mix {
	var m carbon.Mix
	m[carbon.Solar], m[carbon.Wind], m[carbon.Hydro], m[carbon.Nuclear] = solar, wind, hydro, nuclear
	m[carbon.Biomass], m[carbon.Gas], m[carbon.Oil], m[carbon.Coal] = biomass, gas, oil, coal
	return m
}

func testRecipe(name string) Recipe {
	return Recipe{Name: name, Model: energy.ModelResNet50, Source: "CityA", SLOms: 20, RatePerSec: 10}
}

// TestFailedBatchStaysQueued: a batch whose solve fails (here the clock
// has run past the end of the forecast traces) stays queued, neither
// placed nor rejected, and the next batch retries it.
func TestFailedBatchStaysQueued(t *testing.T) {
	o := fixture(t, placement.CarbonAware{})
	if err := o.Tick(8800 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if err := o.Submit(testRecipe("a")); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 2; k++ {
		placed, rejected, err := o.PlaceBatch()
		if err == nil || !strings.Contains(err.Error(), "forecasting zone") {
			t.Fatalf("batch %d past the traces' end: err = %v", k, err)
		}
		if len(placed) != 0 || len(rejected) != 0 {
			t.Errorf("failed batch %d placed %d, rejected %v", k, len(placed), rejected)
		}
		st, err := o.SaveState()
		if err != nil {
			t.Fatal(err)
		}
		if len(st.Pending) != 1 || st.Pending[0].Name != "a" || len(st.Deployments) != 0 {
			t.Fatalf("after failed batch %d: pending %v, %d deployed", k, st.Pending, len(st.Deployments))
		}
	}
}

func TestSubmitAndPlaceCarbonAware(t *testing.T) {
	o := fixture(t, placement.CarbonAware{})
	if err := o.Submit(testRecipe("app1")); err != nil {
		t.Fatal(err)
	}
	placed, rejected, err := o.PlaceBatch()
	if err != nil {
		t.Fatal(err)
	}
	if len(rejected) != 0 || len(placed) != 1 {
		t.Fatalf("placed=%d rejected=%v", len(placed), rejected)
	}
	// Carbon-aware should cross to the green DC (12ms RTT < 20ms SLO).
	if placed[0].DCID != "dc-B" {
		t.Errorf("placed at %s, want green dc-B", placed[0].DCID)
	}
	if placed[0].RTTMs != 12 {
		t.Errorf("RTT = %v, want 12", placed[0].RTTMs)
	}
	if o.Deployment("app1") == nil {
		t.Error("deployment not recorded")
	}
}

func TestPlaceLatencyAwareStaysLocal(t *testing.T) {
	o := fixture(t, placement.LatencyAware{})
	if err := o.Submit(testRecipe("app1")); err != nil {
		t.Fatal(err)
	}
	placed, _, err := o.PlaceBatch()
	if err != nil {
		t.Fatal(err)
	}
	if placed[0].DCID != "dc-A" {
		t.Errorf("latency-aware placed at %s, want local dc-A", placed[0].DCID)
	}
}

func TestDuplicateSubmitRejected(t *testing.T) {
	o := fixture(t, placement.CarbonAware{})
	if err := o.Submit(testRecipe("app1")); err != nil {
		t.Fatal(err)
	}
	if err := o.Submit(testRecipe("app1")); err == nil {
		t.Error("duplicate pending accepted")
	}
	if _, _, err := o.PlaceBatch(); err != nil {
		t.Fatal(err)
	}
	if err := o.Submit(testRecipe("app1")); err == nil {
		t.Error("duplicate deployed accepted")
	}
}

func TestInfeasibleRecipeRejected(t *testing.T) {
	o := fixture(t, placement.CarbonAware{})
	rec := testRecipe("impossible")
	// 130 req/s x 8 ms saturates an A2 (occupancy > 1000 milli), so no
	// single server can host it.
	rec.RatePerSec = 130
	if err := o.Submit(rec); err != nil {
		t.Fatal(err)
	}
	placed, rejected, err := o.PlaceBatch()
	if err != nil {
		t.Fatal(err)
	}
	_ = placed
	if len(rejected) != 1 || rejected[0] != "impossible" {
		t.Errorf("rejected = %v, want [impossible]", rejected)
	}
}

func TestUndeployFreesCapacity(t *testing.T) {
	o := fixture(t, placement.CarbonAware{})
	if err := o.Submit(testRecipe("app1")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := o.PlaceBatch(); err != nil {
		t.Fatal(err)
	}
	srv := o.deployments["app1"].srv
	if srv.apps != 1 {
		t.Fatalf("server hosts %d apps", srv.apps)
	}
	if err := o.Undeploy("app1"); err != nil {
		t.Fatal(err)
	}
	if srv.apps != 0 {
		t.Error("capacity not freed")
	}
	if err := o.Undeploy("app1"); err == nil {
		t.Error("double undeploy accepted")
	}
}

// TestServerTableConsistencyErrors: the server table keeps the checks the
// cluster's servers made. admit refuses a live name, a demand over the
// server's capacity (Eq. 1) and a powered-off server (Eq. 5), and a
// refused admit changes nothing; a crash never powers off a server that
// still hosts deployments (Eq. 4).
func TestServerTableConsistencyErrors(t *testing.T) {
	o := fixture(t, placement.LatencyAware{})
	deployOne(t, o, "a", "CityA")
	srv := o.deployments["a"].srv
	used := srv.Used
	admit := func(name string, demand cluster.Resources) error {
		o.mu.Lock()
		defer o.mu.Unlock()
		return o.admit(&deployment{Deployment: Deployment{Recipe: testRecipe(name)}, srv: srv, demand: demand})
	}
	if err := admit("a", cluster.Resources{}); err == nil {
		t.Error("a live name admitted twice")
	}
	if err := admit("b", srv.Base); err == nil || !strings.Contains(err.Error(), "exceeds free capacity") {
		t.Errorf("over-capacity admit: %v", err)
	}
	srv.On = false
	if err := admit("b", cluster.Resources{}); err == nil || !strings.Contains(err.Error(), "powered off") {
		t.Errorf("admit onto a powered-off server: %v", err)
	}
	srv.On = true
	if srv.Used != used || srv.apps != 1 || len(o.replicas) != 1 || len(o.deployments) != 1 {
		t.Fatalf("refused admits changed the table: used %v (was %v), %d apps, %d replicas", srv.Used, used, srv.apps, len(o.replicas))
	}
	if err := admit("b", cluster.NewResources(1, 1, 1, 1)); err != nil {
		t.Fatalf("admit that fits: %v", err)
	}

	// A row whose count says it hosts a deployment the live set does not
	// hold cannot be evicted empty, so the crash refuses to power it off.
	other := o.servers[1]
	other.apps = 1
	if err := injectFault(o, events.Fault{Kind: events.FaultCrash, Site: other.dc.City}); err != nil {
		t.Fatal(err)
	}
	if err := o.Tick(time.Hour); err == nil || !strings.Contains(err.Error(), "cannot power off") {
		t.Errorf("crash of a hosting server: %v", err)
	}
	if !other.On {
		t.Error("the crash powered off a server that still hosts a deployment")
	}
}

func TestTickAccruesCarbonAndEnergy(t *testing.T) {
	o := fixture(t, placement.CarbonAware{})
	if err := o.Submit(testRecipe("app1")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := o.PlaceBatch(); err != nil {
		t.Fatal(err)
	}
	before := o.Now()
	for h := 0; h < 24; h++ {
		if err := o.Tick(time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	if got := o.Now().Sub(before); got != 24*time.Hour {
		t.Errorf("clock advanced %v, want 24h", got)
	}
	if o.CarbonTotalG() <= 0 {
		t.Error("no carbon accrued")
	}
	if o.EnergyKWh() <= 0 {
		t.Error("no energy metered")
	}
	if o.AppCarbonG("app1") <= 0 {
		t.Error("no per-app carbon attributed")
	}
	// App emissions must be below total (total includes base power).
	if o.AppCarbonG("app1") >= o.CarbonTotalG() {
		t.Error("app carbon should be below total (base power missing)")
	}
}

// TestAppCarbonGWhileTicking reads per-app carbon while another goroutine
// ticks: the read takes the orchestrator's lock, so the race detector
// (make race) sees no conflict with the tick's accrual.
func TestAppCarbonGWhileTicking(t *testing.T) {
	o := fixture(t, placement.CarbonAware{})
	if err := o.Submit(testRecipe("app1")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := o.PlaceBatch(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1) // one send: the ticker never blocks if the reader has failed
	go func() {
		for h := 0; h < 48; h++ {
			if err := o.Tick(time.Hour); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	last := 0.0
	for ticking := true; ticking; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			ticking = false
		default:
		}
		g := o.AppCarbonG("app1")
		if g < last {
			t.Fatalf("per-app carbon fell from %v to %v", last, g)
		}
		last = g
	}
	if last <= 0 {
		t.Error("no per-app carbon attributed")
	}
}

// TestTelemetrySumsDrawsInNameOrder: a server's draw is its idle power
// plus its deployments' draws added in name order. Float addition is not
// associative: on one A2 these three draws sum to a different value in
// each rotation of the names, so an order that varies from run to run (a
// map's) shows in the carbon total and the energy meters of some of 32
// fresh orchestrators.
func TestTelemetrySumsDrawsInNameOrder(t *testing.T) {
	draws := []float64{2.788652, 4.430856, 2.212362} // a, b, c
	idle := energy.A2.IdleW
	nameOrder := ((idle + draws[0]) + draws[1]) + draws[2]
	if nameOrder == ((idle+draws[1])+draws[2])+draws[0] || nameOrder == ((idle+draws[2])+draws[0])+draws[1] {
		t.Fatal("the draws sum alike in name order and rotated; the test witnesses nothing")
	}
	for run := 0; run < 32; run++ {
		o := fixture(t, placement.LatencyAware{})
		for _, name := range []string{"c", "a", "b"} {
			rec := testRecipe(name)
			rec.RatePerSec = 1
			if err := o.Submit(rec); err != nil {
				t.Fatal(err)
			}
		}
		placed, _, err := o.PlaceBatch()
		if err != nil {
			t.Fatal(err)
		}
		host := o.deployments["a"].srv
		if len(placed) != 3 || host.apps != 3 {
			t.Fatalf("want all three deployments on one server, placed %d, %d on %s", len(placed), host.apps, host.id)
		}
		copy(o.appW, draws) // the replica table is name-sorted

		var wantCarbon float64
		var wantEnergy, wantHost energy.Meter
		for _, srv := range o.servers {
			ci, err := o.carbon.Current(srv.dc.ZoneID, o.now)
			if err != nil {
				t.Fatal(err)
			}
			w := idle
			if srv == host {
				w = nameOrder
				wantHost.Record(w, time.Hour)
			}
			wantEnergy.Record(w, time.Hour)
			wantCarbon += w / 1000 * ci
		}
		if err := o.Tick(time.Hour); err != nil {
			t.Fatal(err)
		}
		if o.carbonTotal != wantCarbon {
			t.Fatalf("run %d: carbon total %v, name-order sum %v", run, o.carbonTotal, wantCarbon)
		}
		if o.energyMeter.State() != wantEnergy.State() || host.meter.State() != wantHost.State() {
			t.Fatalf("run %d: energy %+v / host %+v, name-order sums %+v / %+v",
				run, o.energyMeter.State(), host.meter.State(), wantEnergy.State(), wantHost.State())
		}
	}
}

func TestRecipeValidation(t *testing.T) {
	bad := []Recipe{
		{},
		{Name: "x"},
		{Name: "x", Model: "NoSuchModel", SLOms: 10, RatePerSec: 1},
		{Name: "x", Model: energy.ModelResNet50, SLOms: 0, RatePerSec: 1},
		{Name: "x", Model: energy.ModelResNet50, SLOms: 10, RatePerSec: 0},
		// Non-finite values passed the "<= 0" tests: one NaN-rate recipe
		// made its server's used capacity NaN, and later batches
		// over-committed that server.
		{Name: "x", Model: energy.ModelResNet50, SLOms: math.NaN(), RatePerSec: 1},
		{Name: "x", Model: energy.ModelResNet50, SLOms: math.Inf(1), RatePerSec: 1},
		{Name: "x", Model: energy.ModelResNet50, SLOms: 10, RatePerSec: math.NaN()},
		{Name: "x", Model: energy.ModelResNet50, SLOms: 10, RatePerSec: math.Inf(1)},
	}
	for i, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("bad recipe %d accepted", i)
		}
	}
	good := testRecipe("ok")
	if err := good.Validate(); err != nil {
		t.Errorf("good recipe rejected: %v", err)
	}
}

func TestDecodeRecipe(t *testing.T) {
	body := `{"name":"a","model":"ResNet50","source":"CityA","slo_ms":20,"rate_per_sec":5}`
	rec, err := DecodeRecipe(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Name != "a" || rec.Model != "ResNet50" {
		t.Errorf("decoded %+v", rec)
	}
	if _, err := DecodeRecipe(strings.NewReader(`{"bogus":1}`)); err == nil {
		t.Error("unknown fields accepted")
	}
	if _, err := DecodeRecipe(strings.NewReader(`not json`)); err == nil {
		t.Error("garbage accepted")
	}
}

func TestHTTPLifecycle(t *testing.T) {
	o := fixture(t, placement.CarbonAware{})
	srv := httptest.NewServer(o.API())
	defer srv.Close()

	// Submit.
	rec := testRecipe("web-app")
	body, _ := json.Marshal(rec)
	resp, err := http.Post(srv.URL+"/api/v1/deployments", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}

	// Place.
	resp, err = http.Post(srv.URL+"/api/v1/place", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var pr placeResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(pr.Placed) != 1 {
		t.Fatalf("placed = %+v", pr)
	}

	// Get one.
	resp, err = http.Get(srv.URL + "/api/v1/deployments/web-app")
	if err != nil {
		t.Fatal(err)
	}
	var dep Deployment
	if err := json.NewDecoder(resp.Body).Decode(&dep); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if dep.Recipe.Name != "web-app" {
		t.Errorf("deployment = %+v", dep)
	}

	// Metrics.
	resp, err = http.Get(srv.URL + "/api/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var mb metricsBody
	if err := json.NewDecoder(resp.Body).Decode(&mb); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if mb.Deployments != 1 || mb.DeployBatches != 1 {
		t.Errorf("metrics = %+v", mb)
	}

	// Delete.
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/api/v1/deployments/web-app", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Errorf("delete status = %d", resp.StatusCode)
	}

	// Get deleted -> 404.
	resp, err = http.Get(srv.URL + "/api/v1/deployments/web-app")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("get-deleted status = %d", resp.StatusCode)
	}
}

func TestHTTPRejectsBadInput(t *testing.T) {
	o := fixture(t, placement.CarbonAware{})
	srv := httptest.NewServer(o.API())
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/api/v1/deployments", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad JSON status = %d", resp.StatusCode)
	}

	resp, err = http.Get(srv.URL + "/api/v1/place")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /place status = %d", resp.StatusCode)
	}

	// A state envelope followed by anything but whitespace is refused.
	resp, err = http.Get(srv.URL + "/api/v1/state")
	if err != nil {
		t.Fatal(err)
	}
	state, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /state: %d, %v", resp.StatusCode, err)
	}
	for _, tc := range []struct {
		tail string
		want int
	}{
		{`{"format":"junk"} trailing garbage`, http.StatusBadRequest},
		{"\n\n", http.StatusOK},
	} {
		req, err := http.NewRequest(http.MethodPut, srv.URL+"/api/v1/state", strings.NewReader(string(state)+tc.tail))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("PUT /state with tail %q: status %d, want %d", tc.tail, resp.StatusCode, tc.want)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config accepted")
	}
}

func TestDeploymentsSorted(t *testing.T) {
	o := fixture(t, placement.CarbonAware{})
	for _, n := range []string{"c", "a", "b"} {
		rec := testRecipe(n)
		rec.RatePerSec = 1
		if err := o.Submit(rec); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := o.PlaceBatch(); err != nil {
		t.Fatal(err)
	}
	deps := o.Deployments()
	if len(deps) != 3 {
		t.Fatalf("deployments = %d", len(deps))
	}
	for i := 1; i < len(deps); i++ {
		if deps[i-1].Recipe.Name >= deps[i].Recipe.Name {
			t.Error("deployments not sorted")
		}
	}
}

// TestWorkspaceLifecycleAcrossBatches drives the orchestrator's
// long-lived placement workspace through deploy → teardown → redeploy →
// carbon-clock ticks, checking that capacity decisions stay correct and
// the solver stats surface updates per batch.
func TestWorkspaceLifecycleAcrossBatches(t *testing.T) {
	o := fixture(t, placement.CarbonAware{})
	if _, _, ok := o.PlacementStats(); ok {
		t.Fatal("placement stats reported before any batch")
	}

	// Batch 1: two apps land on the green DC.
	for _, name := range []string{"a1", "a2"} {
		if err := o.Submit(testRecipe(name)); err != nil {
			t.Fatal(err)
		}
	}
	placed, rejected, err := o.PlaceBatch()
	if err != nil {
		t.Fatal(err)
	}
	if len(placed) != 2 || len(rejected) != 0 {
		t.Fatalf("batch 1: placed=%d rejected=%v", len(placed), rejected)
	}
	stats, batches, ok := o.PlacementStats()
	if !ok || batches != 1 {
		t.Fatalf("stats after batch 1: ok=%v batches=%d", ok, batches)
	}
	if stats.Apps != 2 || stats.Placed != 2 || stats.Backend == "" {
		t.Fatalf("stats after batch 1 incomplete: %+v", stats)
	}
	if stats.CandidatesMin <= 0 || stats.CandidatesMax > stats.Servers {
		t.Fatalf("candidate stats out of range: %+v", stats)
	}

	// Tick the carbon clock so the next batch re-syncs intensities.
	for h := 0; h < 6; h++ {
		if err := o.Tick(time.Hour); err != nil {
			t.Fatal(err)
		}
	}

	// Teardown one app, then place another batch: the freed capacity
	// must be visible to the workspace-backed solve.
	if err := o.Undeploy("a1"); err != nil {
		t.Fatal(err)
	}
	if err := o.Submit(testRecipe("a3")); err != nil {
		t.Fatal(err)
	}
	placed, rejected, err = o.PlaceBatch()
	if err != nil {
		t.Fatal(err)
	}
	if len(placed) != 1 || len(rejected) != 0 {
		t.Fatalf("batch 2: placed=%d rejected=%v", len(placed), rejected)
	}
	if _, batches, _ := o.PlacementStats(); batches != 2 {
		t.Fatalf("batches = %d, want 2", batches)
	}

	// Saturate the green server's GPU memory (16384 MB / 135 MB per
	// ResNet50 at these rates; occupancy binds first at 12 apps per
	// server): with both servers full, a further app must be rejected.
	for i := 0; i < 25; i++ {
		name := "fill" + string(rune('a'+i))
		if err := o.Submit(testRecipe(name)); err != nil {
			t.Fatal(err)
		}
	}
	_, rejected, err = o.PlaceBatch()
	if err != nil {
		t.Fatal(err)
	}
	if len(rejected) == 0 {
		t.Fatal("saturating batch rejected nothing; workspace capacity view is stale")
	}
	stats, _, _ = o.PlacementStats()
	if stats.Unplaced != len(rejected) {
		t.Errorf("stats unplaced %d != rejected %d", stats.Unplaced, len(rejected))
	}
}

// TestDelayChangeReachesPlacementAndRouting: a shaper delay change after
// the first batch and the first routed tick must reach both memos that
// hold latencies — the router's pair memo (CityA's requests to a replica
// behind the slowed link become spill-over) and the placement workspace
// (the next app stays off that link).
func TestDelayChangeReachesPlacementAndRouting(t *testing.T) {
	o := trafficFixture(t, placement.CarbonAware{}, 8)
	if err := o.Submit(testRecipe("app1")); err != nil {
		t.Fatal(err)
	}
	placed, _, err := o.PlaceBatch()
	if err != nil {
		t.Fatal(err)
	}
	if len(placed) != 1 || placed[0].DCID != "dc-B" {
		t.Fatalf("app1 placed %+v, want the green dc-B 12 ms away", placed)
	}
	if err := o.Tick(time.Hour); err != nil {
		t.Fatal(err)
	}
	snap, _, _, _ := o.TrafficTelemetry()
	if snap.Spilled != 0 {
		t.Fatalf("%d requests spilled over the 12 ms link", snap.Spilled)
	}

	// 50 ms round trip: past the 20 ms placement SLO, and with 8 ms of
	// service past the 40 ms routing SLO.
	o.shaper.SetDelay("CityA", "CityB", 25*time.Millisecond)
	if err := o.Tick(time.Hour); err != nil {
		t.Fatal(err)
	}
	snap, _, _, _ = o.TrafficTelemetry()
	if snap.Spilled == 0 {
		t.Error("routing did not see the slowed link: CityA's requests to dc-B still count as within the SLO")
	}

	if err := o.Submit(testRecipe("app2")); err != nil {
		t.Fatal(err)
	}
	placed, _, err = o.PlaceBatch()
	if err != nil {
		t.Fatal(err)
	}
	if len(placed) != 1 {
		t.Fatalf("app2: %d placed", len(placed))
	}
	if placed[0].DCID != "dc-A" {
		t.Errorf("app2 placed at %s (%v ms), want local dc-A: dc-B is 50 ms away, past its 20 ms SLO", placed[0].DCID, placed[0].RTTMs)
	}
}

// TestHTTPMethodNotAllowedUniform checks every endpoint rejects
// unsupported methods the same way: 405, an Allow header naming the
// supported set, and a JSON error body.
func TestHTTPMethodNotAllowedUniform(t *testing.T) {
	o := fixture(t, placement.CarbonAware{})
	srv := httptest.NewServer(o.API())
	defer srv.Close()

	cases := []struct {
		path      string
		method    string
		wantAllow string
	}{
		{"/api/v1/deployments", http.MethodPut, "GET, POST"},
		{"/api/v1/deployments", http.MethodDelete, "GET, POST"},
		{"/api/v1/deployments/some-app", http.MethodPost, "GET, DELETE"},
		{"/api/v1/place", http.MethodGet, "POST"},
		{"/api/v1/place", http.MethodDelete, "POST"},
		{"/api/v1/metrics", http.MethodPost, "GET"},
		{"/api/v1/traffic", http.MethodPost, "GET"},
		{"/api/v1/placement", http.MethodPost, "GET"},
		{"/api/v1/faults", http.MethodPut, "GET, POST"},
		{"/api/v1/state", http.MethodPost, "GET, PUT"},
		{"/api/v1/state", http.MethodDelete, "GET, PUT"},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, srv.URL+tc.path, strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var body errorBody
		decErr := json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s = %d, want 405", tc.method, tc.path, resp.StatusCode)
			continue
		}
		if got := resp.Header.Get("Allow"); got != tc.wantAllow {
			t.Errorf("%s %s Allow = %q, want %q", tc.method, tc.path, got, tc.wantAllow)
		}
		if decErr != nil || body.Error == "" {
			t.Errorf("%s %s: no JSON error body (decode err %v)", tc.method, tc.path, decErr)
		}
	}
}

// TestHTTPMalformedJSONRejected feeds malformed or mistyped JSON to
// every endpoint that decodes a body; all must answer 400 with a JSON
// error body, never 500 or a silent 2xx.
func TestHTTPMalformedJSONRejected(t *testing.T) {
	o := fixture(t, placement.CarbonAware{})
	srv := httptest.NewServer(o.API())
	defer srv.Close()

	cases := []struct {
		path   string
		method string
		body   string
	}{
		{"/api/v1/deployments", http.MethodPost, "{"},
		{"/api/v1/deployments", http.MethodPost, `{"name":1}`},
		{"/api/v1/deployments", http.MethodPost, `{"name":"x","unknown_field":true}`},
		{"/api/v1/faults", http.MethodPost, "{"},
		{"/api/v1/faults", http.MethodPost, `{"at":"not-a-duration","kind":"crash","site":"CityA"}`},
		{"/api/v1/faults", http.MethodPost, `{"script":"at 1h explode site=CityA"}`},
		{"/api/v1/faults", http.MethodPost, `{"kind":"scale-out","site":"CityA","device":"A2","capacity":2000,"count":2147483647}`},
		{"/api/v1/state", http.MethodPut, "{"},
		{"/api/v1/state", http.MethodPut, `{"format":"other","version":1,"kind":"orchestrator"}`},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, srv.URL+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var body errorBody
		decErr := json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s %s body %q = %d, want 400", tc.method, tc.path, tc.body, resp.StatusCode)
			continue
		}
		if decErr != nil || body.Error == "" {
			t.Errorf("%s %s: 400 without JSON error body (decode err %v)", tc.method, tc.path, decErr)
		}
	}
}

// brokenPayload cannot be JSON-encoded (channels are unsupported).
type brokenPayload struct {
	C chan int
}

func TestWriteJSONSurfacesEncodeErrors(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, brokenPayload{C: make(chan int)})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("encode failure status = %d, want 500", rec.Code)
	}
	var body errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Error == "" {
		t.Errorf("encode failure body %q is not a JSON error", rec.Body.String())
	}
}

// TestAlikeBatchSolvesInClasses places one batch of n identical
// testRecipes on a fresh fixture. Its two servers hold 24 such apps, so
// every batch up to 24 must come back from the exact backend whole, and
// every larger one from the heuristic fallback with 24 placed. The exact
// backend solves a class of alike apps as one integer per server, so no
// batch may take 50 ms: one binary per (app, server) took 0.8 s at n = 15
// and 14.8 s at n = 17, and n = 20 ran into a 30 s wall-clock limit.
func TestAlikeBatchSolvesInClasses(t *testing.T) {
	for _, n := range []int{13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 30, 64} {
		o := fixture(t, placement.CarbonAware{})
		for k := 0; k < n; k++ {
			if err := o.Submit(testRecipe(fmt.Sprintf("app%02d", k))); err != nil {
				t.Fatal(err)
			}
		}
		start := time.Now()
		placed, rejected, err := o.PlaceBatch()
		took := time.Since(start)
		if err != nil {
			t.Fatalf("n = %d: %v", n, err)
		}
		stats, _, _ := o.PlacementStats()
		want, backend := n, "exact"
		if n > 24 {
			want, backend = 24, "heuristic-fallback"
		}
		if len(placed) != want || len(rejected) != n-want || stats.Backend != backend {
			t.Errorf("n = %d: %s placed %d and rejected %d, want %s to place %d", n, stats.Backend, len(placed), len(rejected), backend, want)
		}
		t.Logf("n = %d: %s, %d branch-and-bound nodes, %v", n, stats.Backend, stats.BnBNodes, took)
		if took > 50*time.Millisecond {
			t.Errorf("n = %d: the batch took %v, want under 50 ms", n, took)
		}
	}
}
