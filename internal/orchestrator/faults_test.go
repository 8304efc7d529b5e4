package orchestrator

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
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
