package orchestrator

import (
	"bytes"
	"encoding/json"
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
	if len(rejected) > 0 || len(placed) != 1 {
		t.Fatalf("placed %d, rejected %v", len(placed), rejected)
	}
	return placed[0]
}

func TestFaultCrashEvictsAndResubmits(t *testing.T) {
	o := fixture(t, placement.LatencyAware{})
	dep := deployOne(t, o, "app1", "CityA")
	city := o.cluster.DataCenter(dep.DCID).City

	var handled []string
	o.SetEvictionHandler(func(now time.Time, evicted []string) {
		handled = append(handled, evicted...)
		// Re-place immediately: the handler runs outside the lock.
		if _, _, err := o.PlaceBatch(); err != nil {
			t.Errorf("re-place after eviction: %v", err)
		}
	})
	// Crash the hosting DC now; recover in 2 emulated hours.
	if err := o.InjectFault(events.Fault{
		Kind: events.FaultCrash, Site: city, For: 2 * time.Hour,
	}); err != nil {
		t.Fatal(err)
	}
	if err := o.Tick(time.Hour); err != nil {
		t.Fatal(err)
	}

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
	if err := o.Tick(time.Hour); err != nil {
		t.Fatal(err)
	}
	st = o.FaultStatus()
	if st.Applied != 2 || st.Pending != 0 || len(st.DownServers) != 0 {
		t.Errorf("post-recover status = %+v", st)
	}
	dep2 := deployOne(t, o, "app2", city)
	if dep2 == nil {
		t.Fatal("no placement after recovery")
	}
}

func TestFaultScaleOutAndDegrade(t *testing.T) {
	o := fixture(t, placement.LatencyAware{})
	before := len(o.cluster.Servers())
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
	if got := len(o.cluster.Servers()) - before; got != 2 {
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
	city := o.cluster.DataCenter(dep.DCID).City
	var evicted []string
	o.SetEvictionHandler(func(_ time.Time, names []string) { evicted = append(evicted, names...) })
	if err := o.InjectFault(events.Fault{Kind: events.FaultDegrade, Site: city, Factor: 0.001}); err != nil {
		t.Fatal(err)
	}
	if err := o.Tick(time.Hour); err != nil {
		t.Fatal(err)
	}
	if len(evicted) != 1 || evicted[0] != "app1" {
		t.Fatalf("degrade below usage evicted %v, want [app1]", evicted)
	}
	// The evicted app is back in the queue and re-places on the other DC
	// (the degraded server's residual view cannot host it).
	placed, rejected, err := o.PlaceBatch()
	if err != nil {
		t.Fatal(err)
	}
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
	if err := o.InjectFault(events.Fault{Kind: events.FaultCrash, Site: "Nowhere"}); err == nil {
		t.Error("crash on unknown site accepted")
	}
	if err := o.InjectFault(events.Fault{Kind: events.FaultForecastError, Zone: "Z-NOPE", Factor: 2}); err == nil {
		t.Error("forecast error on unknown zone accepted")
	}
	if err := o.InjectFault(events.Fault{Kind: events.FaultScaleOut, Site: "CityA", CapacityMilli: 100}); err == nil {
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
// failed for good.
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
