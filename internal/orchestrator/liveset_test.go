package orchestrator

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/energy"
	"repro/internal/events"
	"repro/internal/placement"
	"repro/internal/router"
	"repro/internal/traffic"
)

// trafficFixture is fixture with a steady workload of rps requests per
// second, split evenly between the two cities, routed against a 40 ms SLO
// (every replica is feasible from every source: 12 ms RTT + service time).
func trafficFixture(t *testing.T, pol placement.Policy, rps float64) *Orchestrator {
	t.Helper()
	o := fixture(t, pol)
	gen, err := traffic.NewGenerator(traffic.Config{Seed: 7, Scenario: traffic.Steady, RPS: rps}, o.Now(),
		[]traffic.Source{{City: "CityA", Weight: 1}, {City: "CityB", Weight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.AttachTraffic(gen, 40); err != nil {
		t.Fatal(err)
	}
	return o
}

// rowIDs lists the router's per-deployment rows, sorted.
func rowIDs(o *Orchestrator) []string {
	o.mu.Lock()
	defer o.mu.Unlock()
	ids := make([]string, 0, len(o.traffic.router.Stats().Replicas))
	for id := range o.traffic.router.Stats().Replicas {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// liveNames lists the names that are deployed or queued, sorted.
func liveNames(o *Orchestrator) []string {
	o.mu.Lock()
	defer o.mu.Unlock()
	names := make([]string, 0, len(o.deployments)+len(o.pending))
	for name := range o.deployments {
		names = append(names, name)
	}
	for _, rec := range o.pending {
		names = append(names, rec.Name)
	}
	sort.Strings(names)
	return names
}

// trafficView is the /api/v1/traffic body as the conservation checks read
// it.
type trafficView struct {
	Totals struct {
		Requests int64   `json:"requests"`
		Dropped  int64   `json:"dropped"`
		CarbonG  float64 `json:"carbon_g"`
	} `json:"totals"`
	Deployments []struct {
		ID       string  `json:"id"`
		Requests int64   `json:"requests"`
		CarbonG  float64 `json:"carbon_g"`
	} `json:"deployments"`
}

func (v *trafficView) rowSums() (requests int64, carbonG float64) {
	for _, row := range v.Deployments {
		requests += row.Requests
		carbonG += row.CarbonG
	}
	return requests, carbonG
}

// httpDo makes one request against the test server and returns the body,
// failing the test unless the status is want.
func httpDo(t *testing.T, method, url, body string, want int) []byte {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != want {
		t.Fatalf("%s %s: status %d, want %d: %s", method, url, resp.StatusCode, want, b)
	}
	return b
}

func TestTrafficRowsFollowLiveSet(t *testing.T) {
	// 200 rounds of deploy x2, place, two ticks, scrape, and a delete of
	// the pair deployed two rounds earlier: four to six deployments are
	// live while 400 names pass through. Everything per-deployment the
	// service holds for requests must track the live ones.
	o := trafficFixture(t, placement.CarbonAware{}, 8)
	srv := httptest.NewServer(o.API())
	defer srv.Close()
	api := srv.URL + "/api/v1/"
	name := func(round int, city string) string { return fmt.Sprintf("app-%03d-%s", round, city) }

	// withoutRows splits a traffic body into its deployments[] and the
	// rest, re-encoded with sorted keys.
	withoutRows := func(body []byte) (rest string, rows []json.RawMessage) {
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(body, &fields); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(fields["deployments"], &rows); err != nil {
			t.Fatal(err)
		}
		delete(fields, "deployments")
		b, err := json.Marshal(fields)
		if err != nil {
			t.Fatal(err)
		}
		return string(b), rows
	}

	var trafficBytes, stateBytes [2]int // [0] at round 20, [1] at the end
	measure := func(k int) {
		st := mustState(t, o)
		full, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		part, err := json.Marshal(st.Traffic)
		if err != nil {
			t.Fatal(err)
		}
		stateBytes[k], trafficBytes[k] = len(full), len(part)
	}

	const rounds = 200
	live := 0
	for r := 0; r < rounds; r++ {
		for _, city := range []string{"CityA", "CityB"} {
			httpDo(t, "POST", api+"deployments", fmt.Sprintf(
				`{"name":%q,"model":"ResNet50","source":%q,"slo_ms":50,"rate_per_sec":2}`, name(r, city), city),
				http.StatusAccepted)
		}
		var batch struct {
			Placed   []json.RawMessage `json:"placed"`
			Rejected []string          `json:"rejected"`
		}
		if err := json.Unmarshal(httpDo(t, "POST", api+"place", "", http.StatusOK), &batch); err != nil {
			t.Fatal(err)
		}
		if len(batch.Placed) != 2 {
			t.Fatalf("round %d: placed %d, rejected %v", r, len(batch.Placed), batch.Rejected)
		}
		live += 2
		for k := 0; k < 2; k++ {
			if err := o.Tick(time.Hour); err != nil {
				t.Fatal(err)
			}
		}
		if r >= 2 {
			for _, city := range []string{"CityA", "CityB"} {
				gone := name(r-2, city)
				restBefore, rowsBefore := withoutRows(httpDo(t, "GET", api+"traffic", "", http.StatusOK))
				httpDo(t, "DELETE", api+"deployments/"+gone, "", http.StatusNoContent)
				restAfter, rowsAfter := withoutRows(httpDo(t, "GET", api+"traffic", "", http.StatusOK))
				live--
				if restBefore != restAfter {
					t.Fatalf("round %d: DELETE %s moved more than deployments[]:\n before %s\n after  %s", r, gone, restBefore, restAfter)
				}
				// The rows that remain are byte-identical; exactly the
				// deleted one is missing.
				var kept []json.RawMessage
				for _, row := range rowsBefore {
					var id struct {
						ID string `json:"id"`
					}
					if err := json.Unmarshal(row, &id); err != nil {
						t.Fatal(err)
					}
					if id.ID != gone {
						kept = append(kept, row)
					}
				}
				if len(kept) != len(rowsBefore)-1 || !reflect.DeepEqual(kept, rowsAfter) {
					t.Fatalf("round %d: DELETE %s: %d rows before, %d after, want exactly that row gone", r, gone, len(rowsBefore), len(rowsAfter))
				}
			}
		}
		var view trafficView
		if err := json.Unmarshal(httpDo(t, "GET", api+"traffic", "", http.StatusOK), &view); err != nil {
			t.Fatal(err)
		}
		if len(view.Deployments) != live {
			t.Fatalf("round %d: %d rows in deployments[], %d deployments live", r, len(view.Deployments), live)
		}
		if got, want := rowIDs(o), liveNames(o); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: router rows %v, live set %v", r, got, want)
		}
		if n := len(o.traffic.router.Stats().ByReplica.Labels()); n != live {
			t.Fatalf("round %d: %d ByReplica labels, %d deployments live", r, n, live)
		}
		// Retired rows took their counters with them; the totals did not.
		requests, carbonG := view.rowSums()
		if requests > view.Totals.Requests-view.Totals.Dropped || carbonG > view.Totals.CarbonG {
			t.Fatalf("round %d: live rows sum to %d requests / %v g, above the totals %+v", r, requests, carbonG, view.Totals)
		}
		if r == 20 {
			measure(0)
		}
	}
	measure(1)

	// The request stats in a checkpoint are the live rows: same row count
	// at round 20 and at round 200, so the same size but for digits. The
	// whole state still grows by one carbon_by_app summary per name ever
	// deployed (per-app emissions stay answerable after an undeploy, see
	// AppCarbonG) — about 110 bytes each, not a multi-KB sketch.
	if trafficBytes[1] > trafficBytes[0]*5/4 {
		t.Errorf("checkpointed request stats grew from %d to %d bytes over %d rounds at a constant live set",
			trafficBytes[0], trafficBytes[1], rounds-20)
	}
	if perName := (stateBytes[1] - stateBytes[0]) / (2 * (rounds - 21)); perName > 160 {
		t.Errorf("checkpoint grew %d bytes per retired deployment (from %d to %d), want the carbon summary only",
			perName, stateBytes[0], stateBytes[1])
	}
}

func TestTrafficRowsConserveTotals(t *testing.T) {
	// Offered 30 rps against 3 x 2 rps of capacity: most requests drop,
	// the rest spread over every replica. While no row has been retired
	// the rows partition what was served.
	o := trafficFixture(t, placement.CarbonAware{}, 30)
	for _, n := range []string{"a", "b", "c"} {
		if err := o.Submit(Recipe{Name: n, Model: "ResNet50", Source: "CityA", SLOms: 50, RatePerSec: 2}); err != nil {
			t.Fatal(err)
		}
	}
	if _, rejected, err := o.PlaceBatch(); err != nil || len(rejected) > 0 {
		t.Fatalf("place: rejected %v, err %v", rejected, err)
	}
	srv := httptest.NewServer(o.API())
	defer srv.Close()
	scrape := func() trafficView {
		var v trafficView
		if err := json.Unmarshal(httpDo(t, "GET", srv.URL+"/api/v1/traffic", "", http.StatusOK), &v); err != nil {
			t.Fatal(err)
		}
		return v
	}
	for h := 0; h < 48; h++ {
		if err := o.Tick(time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	v := scrape()
	if v.Totals.Dropped == 0 || len(v.Deployments) != 3 {
		t.Fatalf("want an overloaded three-replica run, got %+v", v)
	}
	requests, carbonG := v.rowSums()
	if want := v.Totals.Requests - v.Totals.Dropped; requests != want {
		t.Errorf("rows sum to %d requests, totals say %d served", requests, want)
	}
	// Both sides add up the same non-negative per-assignment terms, the
	// totals in one run and the rows in three; an assignment carries at
	// least one request, so each side is within (requests-1) * 2^-53 of
	// the exact sum, relatively.
	bound := float64(requests) * math.Pow(2, -52) * v.Totals.CarbonG
	if diff := math.Abs(carbonG - v.Totals.CarbonG); diff > bound {
		t.Errorf("rows sum to %v g, totals say %v g: off by %v, bound %v", carbonG, v.Totals.CarbonG, diff, bound)
	}

	// After a retirement the rows are a strict part of the totals, and the
	// totals are what they were.
	if err := o.Undeploy("b"); err != nil {
		t.Fatal(err)
	}
	after := scrape()
	if after.Totals != v.Totals {
		t.Errorf("undeploy moved the totals: %+v -> %+v", v.Totals, after.Totals)
	}
	requests2, carbonG2 := after.rowSums()
	if len(after.Deployments) != 2 || requests2 >= requests || carbonG2 >= carbonG {
		t.Errorf("after undeploy: %d rows, %d requests, %v g; before %d requests, %v g",
			len(after.Deployments), requests2, carbonG2, requests, carbonG)
	}
}

func TestEvictedRowFollowsReplacement(t *testing.T) {
	o := trafficFixture(t, placement.LatencyAware{}, 4)
	dep := deployOne(t, o, "app1", "CityA")
	for h := 0; h < 3; h++ {
		if err := o.Tick(time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	served := func() int64 {
		o.mu.Lock()
		defer o.mu.Unlock()
		if rs := o.traffic.router.Stats().Replicas["app1"]; rs != nil {
			return rs.Requests
		}
		return -1
	}
	before := served()
	if before <= 0 {
		t.Fatalf("app1 served %d requests in three ticks", before)
	}

	// Crash the host: app1 is evicted into the queue. It is still a known
	// name, so its row waits for the re-placement.
	host := o.dcByID(dep.DCID).City
	if err := injectFault(o, events.Fault{Kind: events.FaultCrash, Site: host}); err != nil {
		t.Fatal(err)
	}
	if err := o.Tick(time.Hour); err != nil {
		t.Fatal(err)
	}
	if o.Deployment("app1") != nil || !reflect.DeepEqual(liveNames(o), []string{"app1"}) {
		t.Fatalf("app1 should be queued, not deployed; live set %v", liveNames(o))
	}
	if got := served(); got != before {
		t.Fatalf("evicted app1's row holds %d requests, want the %d it had", got, before)
	}
	if placed, rejected, err := o.PlaceBatch(); err != nil || len(placed) != 1 || len(rejected) > 0 {
		t.Fatalf("re-place: placed %d, rejected %v, err %v", len(placed), rejected, err)
	}
	if err := o.Tick(time.Hour); err != nil {
		t.Fatal(err)
	}
	if got := served(); got <= before {
		t.Errorf("re-placed app1's row holds %d requests, want the earlier %d plus this tick's", got, before)
	}

	// Crash the other site too: the next eviction has nowhere to go, the
	// batch rejects it, and the name — with its row — is gone.
	other := "CityA"
	if host == "CityA" {
		other = "CityB"
	}
	if err := injectFault(o, events.Fault{Kind: events.FaultCrash, Site: other}); err != nil {
		t.Fatal(err)
	}
	if err := o.Tick(time.Hour); err != nil {
		t.Fatal(err)
	}
	if got := served(); got <= before {
		t.Fatalf("twice-evicted app1's row holds %d requests before the batch", got)
	}
	if placed, rejected, err := o.PlaceBatch(); err != nil || len(placed) != 0 || !reflect.DeepEqual(rejected, []string{"app1"}) {
		t.Fatalf("re-place with every site down: placed %d, rejected %v, err %v", len(placed), rejected, err)
	}
	if ids := rowIDs(o); len(ids) != 0 {
		t.Errorf("rejected app1 left rows %v", ids)
	}
	if n := o.traffic.router.Stats().ByReplica.State()["app1"]; n != 0 {
		t.Errorf("rejected app1 left a ByReplica count of %d", n)
	}
}

func TestUndeployedNameStartsFreshRow(t *testing.T) {
	o := trafficFixture(t, placement.CarbonAware{}, 4)
	deployOne(t, o, "x", "CityA")
	for h := 0; h < 5; h++ {
		if err := o.Tick(time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	if err := o.Undeploy("x"); err != nil {
		t.Fatal(err)
	}
	deployOne(t, o, "x", "CityA")
	before, _, _, _ := o.TrafficTelemetry()
	if err := o.Tick(time.Hour); err != nil {
		t.Fatal(err)
	}
	snap, _, _, _ := o.TrafficTelemetry()
	if before.Requests == 0 || before.Dropped+snap.Dropped > 0 {
		t.Fatalf("want five served ticks before the reuse and no drops, have %+v then %+v", before, snap)
	}
	if len(snap.Replicas) != 1 || snap.Replicas[0].Requests != snap.Requests-before.Requests {
		t.Errorf("reused name's row holds %+v, want only the last tick's %d requests", snap.Replicas, snap.Requests-before.Requests)
	}
}

func TestLoadStatePrunesDeadRows(t *testing.T) {
	// A checkpoint written before rows were retired with their deployment
	// carries a row for every name ever routed. Loading it keeps the rows
	// of deployed and queued names and sheds the rest for good.
	orig := trafficFixture(t, placement.LatencyAware{}, 6)
	deployOne(t, orig, "stays", "CityA")
	dep := deployOne(t, orig, "queued", "CityB")
	for h := 0; h < 2; h++ {
		if err := orig.Tick(time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	if err := injectFault(orig, events.Fault{Kind: events.FaultCrash, Site: orig.dcByID(dep.DCID).City}); err != nil {
		t.Fatal(err)
	}
	if err := orig.Tick(time.Hour); err != nil {
		t.Fatal(err)
	}
	st := mustState(t, orig)
	if len(st.Pending) != 1 || len(st.Deployments) != 1 || len(st.Traffic.Replicas) != 2 {
		t.Fatalf("want one deployed, one queued, two rows; have %d, %d, %d", len(st.Deployments), len(st.Pending), len(st.Traffic.Replicas))
	}
	for _, ghost := range []string{"dead-1", "dead-2"} {
		st.Traffic.Replicas[ghost] = st.Traffic.Replicas["stays"]
		st.Traffic.ByReplica[ghost] = st.Traffic.ByReplica["stays"]
	}
	st.Traffic.ByReplica["dead-label-only"] = 9

	restored := trafficFixture(t, placement.LatencyAware{}, 6)
	if err := restored.LoadState(st); err != nil {
		t.Fatal(err)
	}
	want := []string{"queued", "stays"}
	if got := rowIDs(restored); !reflect.DeepEqual(got, want) {
		t.Errorf("restored rows %v, want %v", got, want)
	}
	again := mustState(t, restored)
	if len(again.Traffic.Replicas) != 2 || len(again.Traffic.ByReplica) != 2 {
		t.Errorf("re-saved state carries rows %v and labels %v, want only %v", again.Traffic.Replicas, again.Traffic.ByReplica, want)
	}
	for _, name := range want {
		if !reflect.DeepEqual(again.Traffic.Replicas[name], st.Traffic.Replicas[name]) {
			t.Errorf("row %s changed across the restore", name)
		}
	}
	// The totals are no part of the pruning.
	if again.Traffic.Requests != st.Traffic.Requests || again.Traffic.CarbonG != st.Traffic.CarbonG {
		t.Errorf("pruning moved the totals: %d/%v -> %d/%v", st.Traffic.Requests, st.Traffic.CarbonG, again.Traffic.Requests, again.Traffic.CarbonG)
	}
}

// oracleReplicas rebuilds the router's replica set from the deployment map
// the way every tick used to: names sorted, server and profile looked up
// per deployment.
func oracleReplicas(t *testing.T, o *Orchestrator) []router.Replica {
	t.Helper()
	o.mu.Lock()
	defer o.mu.Unlock()
	names := make([]string, 0, len(o.deployments))
	for name := range o.deployments {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]router.Replica, 0, len(names))
	for _, name := range names {
		dep := o.deployments[name]
		srv, dc := dep.srv, dep.srv.dc
		prof, err := energy.ProfileFor(dep.Recipe.Model, srv.Device.Name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, router.Replica{
			ID: name, Loc: o.cities.byName[dc.City], ZoneID: dc.ZoneID, CapacityRPS: dep.Recipe.RatePerSec,
			ServiceMs: prof.InferenceMs, EnergyPerReqJ: prof.EnergyPerRequestJ(),
		})
	}
	return out
}

func TestReplicaTableMatchesRebuildOracle(t *testing.T) {
	o := trafficFixture(t, placement.CarbonAware{}, 6)
	step := 0
	check := func(what string) {
		t.Helper()
		step++
		want := oracleReplicas(t, o)
		o.mu.Lock()
		defer o.mu.Unlock()
		if len(o.replicas) != len(want) || (len(want) > 0 && !reflect.DeepEqual(o.replicas, want)) {
			t.Fatalf("step %d (%s): replica table\n %+v\nrebuild oracle\n %+v", step, what, o.replicas, want)
		}
		if len(o.appW) != len(o.replicas) {
			t.Fatalf("step %d (%s): %d load slots for %d replicas", step, what, len(o.appW), len(o.replicas))
		}
	}
	tick := func(what string) {
		t.Helper()
		if err := o.Tick(time.Hour); err != nil {
			t.Fatal(err)
		}
		check(what)
	}
	place := func(what string) {
		t.Helper()
		if _, _, err := o.PlaceBatch(); err != nil {
			t.Fatal(err)
		}
		check(what)
	}
	inject := func(f events.Fault) {
		t.Helper()
		if err := injectFault(o, f); err != nil {
			t.Fatal(err)
		}
	}
	check("empty")
	// Names submitted out of order, from both cities.
	for _, rec := range []Recipe{
		{Name: "m", Source: "CityA"}, {Name: "c", Source: "CityB"}, {Name: "x", Source: "CityA"},
		{Name: "a", Source: "CityB"}, {Name: "q", Source: "CityA"},
	} {
		rec.Model, rec.SLOms, rec.RatePerSec = "ResNet50", 50, 3
		if err := o.Submit(rec); err != nil {
			t.Fatal(err)
		}
	}
	place("first batch")
	tick("steady")
	witness := len(o.replicas)

	inject(events.Fault{Kind: events.FaultCrash, Site: "CityB", For: 2 * time.Hour})
	tick("crash CityB")
	if len(o.replicas) >= witness {
		t.Fatalf("the crash evicted nothing (%d replicas before and after); the script witnesses no shrink", witness)
	}
	place("re-place the evicted")
	inject(events.Fault{Kind: events.FaultDegrade, Site: "CityA", Factor: 0.001})
	tick("degrade CityA below usage")
	if len(o.replicas) != 0 {
		t.Fatalf("degrade to 0.1%% left %d replicas on CityA", len(o.replicas))
	}
	place("nowhere to go")
	inject(events.Fault{Kind: events.FaultScaleOut, Site: "CityA", Device: "A2", CapacityMilli: 2000, Count: 2})
	tick("scale-out")
	for _, rec := range []Recipe{{Name: "z", Source: "CityA"}, {Name: "b", Source: "CityA"}, {Name: "k", Source: "CityB"}} {
		rec.Model, rec.SLOms, rec.RatePerSec = "ResNet50", 50, 3
		if err := o.Submit(rec); err != nil {
			t.Fatal(err)
		}
	}
	place("onto the flash servers")
	if len(o.replicas) == 0 {
		t.Fatal("nothing placed on the scaled-out servers; the script witnesses no flash-server replica")
	}
	tick("recover CityB falls due")
	tick("after recover")
	if err := o.Undeploy("k"); err != nil {
		t.Fatal(err)
	}
	check("undeploy k")
	if err := o.Undeploy(o.replicas[0].ID); err != nil {
		t.Fatal(err)
	}
	check("undeploy the first row")
	tick("after undeploys")

	// A restore rebuilds the table from the state's deployments.
	restored := trafficFixture(t, placement.CarbonAware{}, 6)
	if err := restored.LoadState(mustState(t, o)); err != nil {
		t.Fatal(err)
	}
	o = restored
	check("restored")
	tick("restored, ticked")
}

func TestLiveSetConcurrentChurn(t *testing.T) {
	// Deploys, undeploys, ticks, faults, scrapes and checkpoint restores
	// race for a few hundred milliseconds (run under -race by `make race`
	// and CI); whatever the interleaving, the rows left at the end are
	// the live set's and pass the production row check.
	o := trafficFixture(t, placement.CarbonAware{}, 10)
	srv := httptest.NewServer(o.API())
	defer srv.Close()
	// One fault script: a crash that evicts, a degrade that may, a
	// forecast skew and a scale-out, all due within the first day.
	if err := o.InjectScript(&events.FaultScript{Faults: []events.Fault{
		{At: time.Hour, Kind: events.FaultCrash, Site: "CityB", For: 3 * time.Hour},
		{At: 2 * time.Hour, Kind: events.FaultDegrade, Site: "CityA", Factor: 0.01, For: 6 * time.Hour},
		{At: 3 * time.Hour, Kind: events.FaultForecastError, Zone: "Z-GREEN", Factor: 3, For: 4 * time.Hour},
		{At: 5 * time.Hour, Kind: events.FaultScaleOut, Site: "CityB", Device: "A2", CapacityMilli: 500},
	}}); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	background := func(f func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
					f()
				}
			}
		}()
	}
	// The ticker waits until at least four deployments are live, so the
	// crash (+1 h) and the degrade (+2 h) fall on servers that host some:
	// started at once, it could run them over an empty live set. The
	// fixture's traces span one year of hourly ticks; a fast machine
	// gets through that before the deployers finish, so the ticker stops
	// well short of the traces' end instead of racing off it.
	ticks, released := 0, false
	background(func() {
		if !released {
			o.mu.Lock()
			released = len(o.deployments) >= 4
			o.mu.Unlock()
			if !released {
				runtime.Gosched()
				return
			}
		}
		if ticks == 4000 {
			time.Sleep(time.Millisecond)
			return
		}
		ticks++
		if err := o.Tick(time.Hour); err != nil {
			t.Error(err)
		}
	})
	background(func() {
		resp, err := http.Get(srv.URL + "/api/v1/traffic")
		if err != nil {
			t.Error(err)
			return
		}
		var v trafficView
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Error(err)
		}
		resp.Body.Close()
		if requests, _ := v.rowSums(); requests > v.Totals.Requests-v.Totals.Dropped {
			t.Errorf("scrape saw rows summing to %d requests of %d served", requests, v.Totals.Requests-v.Totals.Dropped)
		}
	})
	background(func() {
		resp, err := http.Get(srv.URL + "/api/v1/metrics")
		if err != nil {
			t.Error(err)
			return
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	})
	background(func() {
		resp, err := http.Get(srv.URL + "/api/v1/state")
		if err != nil {
			t.Error(err)
			return
		}
		var st State
		if err := checkpoint.Decode(resp.Body, stateKind, &st); err != nil {
			t.Errorf("state scrape: %v", err)
		}
		resp.Body.Close()
	})

	// Two deployers with their own name spaces, each keeping three names
	// live and undeploying the oldest as it goes, for 300 rounds and then
	// until the whole script has been applied: the faults land mid-churn
	// however late the ticker is scheduled. An undeploy may find a name
	// gone only if some batch, of either deployer, rejected it.
	// A checkpoint PUT races the churn: LoadState restores only into a
	// fresh orchestrator, so it must refuse (409) and change nothing. It
	// starts once a deployer has submitted after the whole script was
	// applied: with every server back at full strength no batch rejects,
	// so that deployer keeps some name deployed or queued from then on
	// (it undeploys a name only after submitting three newer ones). The
	// payload is the fixture's own state, saved before the churn.
	saved, err := o.SaveState()
	if err != nil {
		t.Fatal(err)
	}
	var sealed bytes.Buffer
	if err := checkpoint.Encode(&sealed, stateKind, saved); err != nil {
		t.Fatal(err)
	}
	var calm atomic.Bool
	var puts atomic.Int64
	background(func() {
		if !calm.Load() {
			runtime.Gosched()
			return
		}
		req, err := http.NewRequest(http.MethodPut, srv.URL+"/api/v1/state", bytes.NewReader(sealed.Bytes()))
		if err != nil {
			t.Error(err)
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Error(err)
			return
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusConflict {
			t.Errorf("PUT /api/v1/state mid-churn answered %d, want %d", resp.StatusCode, http.StatusConflict)
		}
		puts.Add(1)
	})

	var namesMu sync.Mutex
	rejected, missing := map[string]bool{}, []string(nil)
	var deployers sync.WaitGroup
	for d := 0; d < 2; d++ {
		deployers.Add(1)
		go func(d int) {
			defer deployers.Done()
			for i := 0; i < 300 || o.FaultStatus().Pending > 0 || puts.Load() == 0; i++ {
				applied := o.FaultStatus().Pending == 0
				rec := Recipe{Name: fmt.Sprintf("d%d-%03d", d, i), Model: "ResNet50", Source: "CityA", SLOms: 50, RatePerSec: 1}
				if err := o.Submit(rec); err != nil {
					t.Error(err)
					return
				}
				if applied {
					calm.Store(true)
				}
				_, rej, err := o.PlaceBatch()
				if err != nil {
					t.Error(err)
					return
				}
				namesMu.Lock()
				for _, name := range rej {
					rejected[name] = true
				}
				namesMu.Unlock()
				if i >= 3 {
					// Either deployer's batch may have placed this one's
					// recipe, and a tick may have evicted it back to the
					// queue since: Undeploy finds it live or queued, unless
					// a full cluster rejected its placement or re-placement.
					if old := fmt.Sprintf("d%d-%03d", d, i-3); o.Undeploy(old) != nil {
						namesMu.Lock()
						missing = append(missing, old)
						namesMu.Unlock()
					}
				}
			}
		}(d)
	}
	deployers.Wait()
	close(done)
	wg.Wait()
	if puts.Load() == 0 {
		t.Error("no state PUT raced the churn")
	}
	for _, name := range missing {
		if !rejected[name] {
			t.Errorf("undeploy found no %s, and no batch rejected it", name)
		}
	}

	// Drain the queue, then one quiet tick routes to every live deployment.
	if _, _, err := o.PlaceBatch(); err != nil {
		t.Fatal(err)
	}
	if err := o.Tick(time.Hour); err != nil {
		t.Fatal(err)
	}
	live := liveNames(o)
	if len(live) == 0 {
		t.Fatal("nothing left live; the churn witnessed nothing")
	}
	if got := rowIDs(o); !reflect.DeepEqual(got, live) {
		t.Errorf("rows %v, live set %v", got, live)
	}
	if got := oracleReplicas(t, o); !reflect.DeepEqual(o.replicas, got) {
		t.Errorf("replica table %+v, rebuild oracle %+v", o.replicas, got)
	}
	if fs := o.FaultStatus(); fs.Applied == 0 || fs.Pending != 0 || fs.Evictions == 0 {
		t.Errorf("%d faults applied, %d pending, %d evictions; the churn raced none", fs.Applied, fs.Pending, fs.Evictions)
	}
	o.mu.Lock()
	err = o.physical(o.faults.Skew)
	o.mu.Unlock()
	if err != nil {
		t.Error(err)
	}
}
