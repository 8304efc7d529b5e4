package orchestrator

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro/internal/events"
	"repro/internal/placement"
)

// deployOne submits and places a deployment, returning where it landed.
func deployOne(t *testing.T, o *Orchestrator, name, source string) *Deployment {
	t.Helper()
	if err := o.Submit(Recipe{
		Name: name, Model: "ResNet50", Source: source, SLOms: 50, RatePerSec: 5,
	}); err != nil {
		t.Fatal(err)
	}
	placed, rejected, err := o.PlaceBatch()
	if err != nil {
		t.Fatal(err)
	}
	checkServerTable(t, o)
	if len(rejected) > 0 || len(placed) != 1 {
		t.Fatalf("placed %d, rejected %v", len(placed), rejected)
	}
	return placed[0]
}

// checkServerTable checks that the server table and the live set agree,
// as they must after every Tick and PlaceBatch: the rows pass the
// production row check (fleet.Physical, fed from the live set: each row
// holds exactly the demand of the deployments on it, within its
// capacity, and none sits on a crashed or powered-off row); each row's
// count is the deployments on it; and the replica table, live and appW
// are aligned, sorted by name, and hold exactly the deployments map, each
// draw finite and non-negative.
func checkServerTable(t testing.TB, o *Orchestrator) {
	t.Helper()
	o.mu.Lock()
	defer o.mu.Unlock()
	if err := o.physical(o.faults.Skew); err != nil {
		t.Error(err)
	}
	apps := map[*server]int{}
	for name, d := range o.deployments {
		if d.Recipe.Name != name {
			t.Errorf("deployment %s is keyed %s", d.Recipe.Name, name)
		}
		apps[d.srv]++
	}
	hosted := 0
	for _, s := range o.servers {
		if s.apps != apps[s] {
			t.Errorf("server %s counts %d deployments, hosts %d", s.id, s.apps, apps[s])
		}
		hosted += apps[s]
	}
	if hosted != len(o.deployments) {
		t.Errorf("%d deployments, %d of them on table rows", len(o.deployments), hosted)
	}
	n := len(o.deployments)
	if len(o.replicas) != n || len(o.live) != n || len(o.appW) != n {
		t.Fatalf("%d deployments, %d replicas, %d live, %d draws", n, len(o.replicas), len(o.live), len(o.appW))
	}
	for i, d := range o.live {
		name := o.replicas[i].ID
		if i > 0 && o.replicas[i-1].ID >= name {
			t.Errorf("replica %d (%s) is not after %s", i, name, o.replicas[i-1].ID)
		}
		if d.Recipe.Name != name || o.deployments[name] != d {
			t.Errorf("live row %d holds %s, replica row holds %s", i, d.Recipe.Name, name)
		}
		if w := o.appW[i]; !(w >= 0) || math.IsInf(w, 0) {
			t.Errorf("deployment %s draws %v W", name, w)
		}
	}
}

func TestFaultCrashEvictsAndResubmits(t *testing.T) {
	o := fixture(t, placement.LatencyAware{})
	dep := deployOne(t, o, "app1", "CityA")
	city := o.dcByID(dep.DCID).City

	var handled []string
	o.SetEvictionHandler(func(now time.Time, evicted []string) {
		handled = append(handled, evicted...)
		// Re-place immediately: the handler runs outside the lock.
		if _, _, err := o.PlaceBatch(); err != nil {
			t.Errorf("re-place after eviction: %v", err)
		}
		checkServerTable(t, o)
	})
	// Crash the hosting DC now; recover in 2 emulated hours.
	if err := injectFault(o, events.Fault{
		Kind: events.FaultCrash, Site: city, For: 2 * time.Hour,
	}); err != nil {
		t.Fatal(err)
	}
	if err := o.Tick(time.Hour); err != nil {
		t.Fatal(err)
	}
	checkServerTable(t, o)

	if len(handled) != 1 || handled[0] != "app1" {
		t.Fatalf("eviction handler saw %v, want [app1]", handled)
	}
	moved := o.Deployment("app1")
	if moved == nil {
		t.Fatal("evicted app not re-placed")
	}
	if moved.ServerID == dep.ServerID {
		t.Errorf("app re-placed on the crashed server %s", dep.ServerID)
	}
	st := o.FaultStatus()
	if st.Applied != 1 || st.Evictions != 1 || st.Pending != 1 {
		t.Errorf("status = %+v, want 1 applied, 1 eviction, 1 pending recover", st)
	}
	if len(st.DownServers) != 1 {
		t.Errorf("down servers = %v, want 1", st.DownServers)
	}

	// Advance past the recover instant; the event fires at the first tick
	// whose start reaches it, and the server becomes placeable again.
	if err := o.Tick(2 * time.Hour); err != nil {
		t.Fatal(err)
	}
	checkServerTable(t, o)
	if err := o.Tick(time.Hour); err != nil {
		t.Fatal(err)
	}
	checkServerTable(t, o)
	st = o.FaultStatus()
	if st.Applied != 2 || st.Pending != 0 || len(st.DownServers) != 0 {
		t.Errorf("post-recover status = %+v", st)
	}
	dep2 := deployOne(t, o, "app2", city)
	if dep2 == nil {
		t.Fatal("no placement after recovery")
	}
}

// TestUndeployEvictedDeployment: a deployment a crash evicted back to the
// queue is still the operator's to delete. Undeploy takes it out of the
// queue and retires its request stats, and the next batch places nothing.
func TestUndeployEvictedDeployment(t *testing.T) {
	o := trafficFixture(t, placement.LatencyAware{}, 8)
	dep := deployOne(t, o, "app1", "CityA")
	if err := o.Tick(time.Hour); err != nil {
		t.Fatal(err)
	}
	if got := rowIDs(o); !reflect.DeepEqual(got, []string{"app1"}) {
		t.Fatalf("request stats rows %v, want [app1]", got)
	}
	if err := injectFault(o, events.Fault{Kind: events.FaultCrash, Site: o.dcByID(dep.DCID).City}); err != nil {
		t.Fatal(err)
	}
	if err := o.Tick(time.Hour); err != nil {
		t.Fatal(err)
	}
	if o.Deployment("app1") != nil || !reflect.DeepEqual(liveNames(o), []string{"app1"}) {
		t.Fatalf("after the crash app1 is live or not queued: %v", liveNames(o))
	}
	if err := o.Undeploy("app1"); err != nil {
		t.Fatal(err)
	}
	if got := rowIDs(o); len(got) != 0 {
		t.Errorf("request stats rows %v after undeploy, want none", got)
	}
	placed, rejected, err := o.PlaceBatch()
	if err != nil {
		t.Fatal(err)
	}
	if len(placed) != 0 || len(rejected) != 0 || len(liveNames(o)) != 0 {
		t.Fatalf("the batch after undeploy placed %d, rejected %v, left %v", len(placed), rejected, liveNames(o))
	}
	checkServerTable(t, o)
	if err := o.Undeploy("app1"); err == nil {
		t.Error("a second undeploy of app1 succeeded")
	}
}

func TestFaultScaleOutAndDegrade(t *testing.T) {
	o := fixture(t, placement.LatencyAware{})
	before := len(o.servers)
	if err := o.InjectScript(&events.FaultScript{Faults: []events.Fault{
		{Kind: events.FaultScaleOut, Site: "CityA", Device: "A2", CapacityMilli: 2000, Count: 2},
		{Kind: events.FaultDegrade, Site: "CityB", Factor: 0.5},
		{Kind: events.FaultForecastError, Zone: "Z-GREEN", Factor: 4},
	}}); err != nil {
		t.Fatal(err)
	}
	if err := o.Tick(time.Hour); err != nil {
		t.Fatal(err)
	}
	checkServerTable(t, o)
	if got := len(o.servers) - before; got != 2 {
		t.Errorf("scale-out added %d servers, want 2", got)
	}
	// The next batch must place against the grown, degraded, skewed view
	// without erroring, and the workspace must resize to the new fleet.
	deployOne(t, o, "app1", "CityA")
	if o.ws.NumServers() != before+2 {
		t.Errorf("workspace tracks %d servers, want %d", o.ws.NumServers(), before+2)
	}
}

func TestFaultDegradeEvictsOvercommitted(t *testing.T) {
	// Degrading a server below its current usage must evict what no
	// longer fits (the events.FaultDegrade contract, matching the
	// simulator), not just shrink the placement view.
	o := fixture(t, placement.LatencyAware{})
	dep := deployOne(t, o, "app1", "CityA")
	city := o.dcByID(dep.DCID).City
	var evicted []string
	o.SetEvictionHandler(func(_ time.Time, names []string) { evicted = append(evicted, names...) })
	if err := injectFault(o, events.Fault{Kind: events.FaultDegrade, Site: city, Factor: 0.001}); err != nil {
		t.Fatal(err)
	}
	if err := o.Tick(time.Hour); err != nil {
		t.Fatal(err)
	}
	checkServerTable(t, o)
	if len(evicted) != 1 || evicted[0] != "app1" {
		t.Fatalf("degrade below usage evicted %v, want [app1]", evicted)
	}
	// The evicted app is back in the queue and re-places on the other DC
	// (the degraded server's residual view cannot host it).
	placed, rejected, err := o.PlaceBatch()
	if err != nil {
		t.Fatal(err)
	}
	checkServerTable(t, o)
	if len(rejected) > 0 || len(placed) != 1 {
		t.Fatalf("re-place: placed %d, rejected %v", len(placed), rejected)
	}
	if placed[0].ServerID == dep.ServerID {
		t.Errorf("app re-placed on the degraded server %s", dep.ServerID)
	}
}

// orderScripts are two scenarios injected back to back, each with one
// fault due at +1h and one at +2h, so the two faults due at each instant
// come from different calls: the 1h pair must fire degrade (first call)
// then forecast-error (second call), the 2h pair the other way round.
var orderScripts = []*events.FaultScript{
	{Faults: []events.Fault{
		{At: 2 * time.Hour, Kind: events.FaultForecastError, Zone: "Z-GREEN", Factor: 2},
		{At: time.Hour, Kind: events.FaultDegrade, Site: "CityB", Factor: 0.9},
	}},
	{Faults: []events.Fault{
		{At: time.Hour, Kind: events.FaultForecastError, Zone: "Z-DIRTY", Factor: 3},
		{At: 2 * time.Hour, Kind: events.FaultDegrade, Site: "CityA", Factor: 0.8},
	}},
}

// wantFired is what orderScripts fire on each of three one-hour ticks
// after their injection.
var wantFired = [][]string{nil, {"degrade", "forecast-error"}, {"forecast-error", "degrade"}}

// tickFired ticks o n times by an hour and returns the fault kinds each
// tick applied, in order.
func tickFired(t *testing.T, o *Orchestrator, n int) [][]string {
	t.Helper()
	out := make([][]string, n)
	for k := range out {
		before := len(o.RecentEvents())
		if err := o.Tick(time.Hour); err != nil {
			t.Fatal(err)
		}
		checkServerTable(t, o)
		for _, ev := range o.RecentEvents()[before:] {
			out[k] = append(out[k], ev.Kind)
		}
	}
	return out
}

// TestFaultQueueOrderAndState: faults from separate InjectScript calls
// fire in (due instant, injection order); a state whose fault_queue is in
// injection order, not sorted by due instant (what older builds saved),
// loads and fires in that same order; and SaveState -> LoadState ->
// SaveState is byte-identical.
func TestFaultQueueOrderAndState(t *testing.T) {
	o := fixture(t, placement.LatencyAware{})
	t0 := o.Now()
	for _, s := range orderScripts {
		if err := o.InjectScript(s); err != nil {
			t.Fatal(err)
		}
	}
	if got := tickFired(t, o, 3); !reflect.DeepEqual(got, wantFired) {
		t.Errorf("fired %v, want %v", got, wantFired)
	}

	// An unsorted queue, as an older build saved it: one script's 2h
	// fault ahead of both 1h faults.
	old := fixture(t, placement.LatencyAware{})
	st := mustState(t, old)
	a, b := orderScripts[0].Faults, orderScripts[1].Faults
	for _, f := range []events.Fault{a[0], a[1], b[0], b[1]} {
		st.FaultQueue = append(st.FaultQueue, events.ScheduledFault{At: t0.Add(f.At), Fault: f})
	}
	restored := fixture(t, placement.LatencyAware{})
	if err := restored.LoadState(st); err != nil {
		t.Fatal(err)
	}
	if got := tickFired(t, restored, 3); !reflect.DeepEqual(got, wantFired) {
		t.Errorf("state in injection order fired %v, want %v", got, wantFired)
	}

	// Round trip with faults still pending.
	live := fixture(t, placement.LatencyAware{})
	deployOne(t, live, "app1", "CityA")
	for _, s := range orderScripts {
		if err := live.InjectScript(s); err != nil {
			t.Fatal(err)
		}
	}
	tickFired(t, live, 2)
	first, err := json.Marshal(mustState(t, live))
	if err != nil {
		t.Fatal(err)
	}
	var st2 State
	if err := json.Unmarshal(first, &st2); err != nil {
		t.Fatal(err)
	}
	again := fixture(t, placement.LatencyAware{})
	if err := again.LoadState(st2); err != nil {
		t.Fatal(err)
	}
	second, err := json.Marshal(mustState(t, again))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Errorf("SaveState -> LoadState -> SaveState changed the state:\n%s\n%s", first, second)
	}
	if len(st2.FaultQueue) != 2 {
		t.Errorf("round-tripped state holds %d pending faults, want 2", len(st2.FaultQueue))
	}
}

func TestFaultTargetValidation(t *testing.T) {
	o := fixture(t, placement.LatencyAware{})
	if err := injectFault(o, events.Fault{Kind: events.FaultCrash, Site: "Nowhere"}); err == nil {
		t.Error("crash on unknown site accepted")
	}
	if err := injectFault(o, events.Fault{Kind: events.FaultForecastError, Zone: "Z-NOPE", Factor: 2}); err == nil {
		t.Error("forecast error on unknown zone accepted")
	}
	if err := injectFault(o, events.Fault{Kind: events.FaultScaleOut, Site: "CityA", CapacityMilli: 100}); err == nil {
		t.Error("scale-out without device accepted")
	}
}

func TestFaultsHTTP(t *testing.T) {
	o := fixture(t, placement.LatencyAware{})
	srv := httptest.NewServer(o.API())
	defer srv.Close()
	deployOne(t, o, "app1", "CityA")

	// Inject via the script form.
	body, _ := json.Marshal(map[string]string{
		"script": "at 0s crash site=CityA for=1h\nat 0s forecast-error zone=Z-GREEN factor=2 for=2h",
	})
	resp, err := http.Post(srv.URL+"/api/v1/faults", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var ack faultResponse
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST status %d", resp.StatusCode)
	}
	if len(ack.Scheduled) != 4 { // crash + recover + skew + clear
		t.Errorf("scheduled %v, want 4 events", ack.Scheduled)
	}

	// Single-fault form, invalid target -> 400.
	body, _ = json.Marshal(map[string]string{"kind": "crash", "site": "Nowhere"})
	resp, err = http.Post(srv.URL+"/api/v1/faults", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid fault POST status %d, want 400", resp.StatusCode)
	}

	if err := o.Tick(time.Hour); err != nil {
		t.Fatal(err)
	}
	checkServerTable(t, o)
	resp, err = http.Get(srv.URL + "/api/v1/faults")
	if err != nil {
		t.Fatal(err)
	}
	var st FaultStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Applied != 2 || st.Evictions != 1 {
		t.Errorf("GET status %+v, want 2 applied / 1 eviction", st)
	}
}

// TestFaultsHTTPRejectsNonFinite: a script with a NaN or infinite factor
// or capacity, or a number with trailing junk, is refused with 400 before
// anything is scheduled — it used to be accepted, after which the state
// could never be encoded again (JSON has no NaN) and GET /api/v1/state
// failed for good. So is a degrade factor above 1: the degraded row used
// to offer placement more than admit accepts, and a large enough batch
// failed part-way, leaving its unplaced recipes neither placed nor
// rejected.
func TestFaultsHTTPRejectsNonFinite(t *testing.T) {
	o := fixture(t, placement.LatencyAware{})
	srv := httptest.NewServer(o.API())
	defer srv.Close()
	deployOne(t, o, "app1", "CityA")
	for _, script := range []string{
		"at 2h degrade site=CityA factor=NaN",
		"at 2h degrade site=CityA factor=+Inf",
		"at 0s forecast-error zone=Z-GREEN factor=Inf",
		"at 1h scale-out site=CityA device=A2 capacity=NaN",
		"at 1h scale-out site=CityA device=A2 capacity=+Inf",
		"at 2h degrade site=CityA factor=2abc",
		"at 2h degrade site=CityA factor=3",
		"at 1h scale-out site=CityA device=A2 capacity=4000 count=3x",
	} {
		body, _ := json.Marshal(map[string]string{"script": script})
		resp, err := http.Post(srv.URL+"/api/v1/faults", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %q: status %d, want 400", script, resp.StatusCode)
		}
	}
	if st := o.FaultStatus(); st.Pending != 0 {
		t.Fatalf("rejected scripts left %d faults pending", st.Pending)
	}
	for tick := 0; tick < 3; tick++ {
		if err := o.Tick(time.Hour); err != nil {
			t.Fatal(err)
		}
		checkServerTable(t, o)
		resp, err := http.Get(srv.URL + "/api/v1/state")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /api/v1/state after tick %d: status %d", tick, resp.StatusCode)
		}
	}
}

// TestTickRejectsNonPositive: a tick of zero or negative length is an
// error and changes nothing: no fault is consumed and no handler fires.
// With traffic attached, Tick(0) used to set every draw to 0/0, after
// which the carbon totals stayed NaN and GET /api/v1/state and
// /api/v1/metrics answered 500; Tick(-1h) moved the clock back an hour.
func TestTickRejectsNonPositive(t *testing.T) {
	o := trafficFixture(t, placement.LatencyAware{}, 6)
	srv := httptest.NewServer(o.API())
	defer srv.Close()
	// One deployment the due crash would evict, one it would leave live.
	a, b := deployOne(t, o, "app1", "CityA"), deployOne(t, o, "app2", "CityB")
	if a.DCID == b.DCID {
		t.Fatalf("both deployments on %s", a.DCID)
	}
	if err := injectFault(o, events.Fault{Kind: events.FaultCrash, Site: o.dcByID(a.DCID).City}); err != nil {
		t.Fatal(err)
	}
	fired := 0
	o.SetEvictionHandler(func(time.Time, []string) { fired++ })
	o.SetOverloadHandler(func(time.Time, int64) { fired++ })
	before := sealedState(t, o)
	for _, dt := range []time.Duration{0, -time.Hour} {
		if err := o.Tick(dt); err == nil {
			t.Errorf("Tick(%v) accepted", dt)
		}
		if got := sealedState(t, o); !bytes.Equal(got, before) {
			t.Errorf("Tick(%v) changed the state:\n%s\nwant\n%s", dt, got, before)
		}
	}
	if fired != 0 {
		t.Errorf("rejected ticks fired %d handlers", fired)
	}
	checkServerTable(t, o)
	for _, path := range []string{"/api/v1/state", "/api/v1/metrics"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
	}
}

// injectFault schedules one fault (plus its timed revert, if any)
// relative to the orchestrator's clock.
func injectFault(o *Orchestrator, f events.Fault) error {
	return o.InjectScript(&events.FaultScript{Faults: []events.Fault{f}})
}
