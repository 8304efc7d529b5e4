package testbed

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/carbon"
	"repro/internal/latency"
	"repro/internal/placement"
	"repro/internal/traffic"
)

// newAPIServer assembles the same stack cmd/carbonedge serves: a Florida
// testbed behind the orchestrator's HTTP API.
func newAPIServer(t *testing.T) (*Testbed, *httptest.Server) {
	t.Helper()
	zones, err := carbon.DefaultRegistry(42)
	if err != nil {
		t.Fatal(err)
	}
	cities, err := latency.DefaultCityRegistry()
	if err != nil {
		t.Fatal(err)
	}
	tb, err := New(Config{
		Region: Florida(),
		Zones:  zones,
		Traces: carbon.NewGenerator(42).GenerateTraces(zones),
		Cities: cities,
		Policy: placement.CarbonAware{},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(tb.Orch.API())
	t.Cleanup(srv.Close)
	return tb, srv
}

func decode(t *testing.T, resp *http.Response, v interface{}) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decoding %s: %v", resp.Request.URL.Path, err)
	}
}

func post(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func get(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestAPIDeployPlaceMetricsTrafficRoundTrip(t *testing.T) {
	tb, srv := newAPIServer(t)

	// Traffic endpoint before attachment: 404.
	resp := get(t, srv.URL+"/api/v1/traffic")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("traffic before attach: status %d, want 404", resp.StatusCode)
	}

	// Submit two deployments.
	for _, city := range []string{"Miami", "Tampa"} {
		body := fmt.Sprintf(`{"name":"app-%s","model":"ResNet50","source":"%s","slo_ms":20,"rate_per_sec":10}`, city, city)
		resp := post(t, srv.URL+"/api/v1/deployments", body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("deploy %s: status %d, want 202", city, resp.StatusCode)
		}
	}
	// Duplicate and malformed submissions are rejected.
	resp = post(t, srv.URL+"/api/v1/deployments", `{"name":"app-Miami","model":"ResNet50","source":"Miami","slo_ms":20,"rate_per_sec":10}`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("duplicate deploy: status %d, want 409", resp.StatusCode)
	}
	resp = post(t, srv.URL+"/api/v1/deployments", `{"name":"bad","model":"NoSuchModel","source":"Miami","slo_ms":20,"rate_per_sec":10}`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad model: status %d, want 400", resp.StatusCode)
	}

	// No solver stats before the first batch.
	resp = get(t, srv.URL+"/api/v1/placement")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("placement before batch: status %d, want 404", resp.StatusCode)
	}

	// Run the placement batch.
	var placed struct {
		Placed   []json.RawMessage `json:"placed"`
		Rejected []string          `json:"rejected"`
	}
	resp = post(t, srv.URL+"/api/v1/place", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("place: status %d", resp.StatusCode)
	}
	decode(t, resp, &placed)
	if len(placed.Placed) != 2 || len(placed.Rejected) != 0 {
		t.Fatalf("placed %d rejected %v, want 2/none", len(placed.Placed), placed.Rejected)
	}

	// Live solver stats from the orchestrator's workspace.
	var pstats struct {
		Backend        string  `json:"backend"`
		Batches        int     `json:"batches"`
		Apps           int     `json:"apps"`
		Servers        int     `json:"servers"`
		Placed         int     `json:"placed"`
		CandidatesMin  int     `json:"candidates_min"`
		CandidatesMean float64 `json:"candidates_mean"`
		CandidatesMax  int     `json:"candidates_max"`
		BnBNodes       *int    `json:"bnb_nodes"`
	}
	resp = get(t, srv.URL+"/api/v1/placement")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("placement: status %d", resp.StatusCode)
	}
	decode(t, resp, &pstats)
	if pstats.Backend == "" || pstats.Batches != 1 || pstats.Apps != 2 || pstats.Placed != 2 {
		t.Errorf("placement stats incomplete: %+v", pstats)
	}
	// Two apps on distinct cheapest servers: the exact backend's
	// certificate closes the batch without branch and bound.
	if pstats.BnBNodes == nil || *pstats.BnBNodes != 0 {
		t.Errorf("bnb_nodes = %v, want 0 (certificate-closed batch)", pstats.BnBNodes)
	}
	if pstats.CandidatesMin <= 0 || pstats.CandidatesMax > pstats.Servers ||
		pstats.CandidatesMean < float64(pstats.CandidatesMin) {
		t.Errorf("candidate stats inconsistent: %+v", pstats)
	}

	// Fetch one deployment.
	resp = get(t, srv.URL+"/api/v1/deployments/app-Miami")
	var dep struct {
		ServerID string `json:"server_id"`
		ZoneID   string `json:"zone_id"`
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get deployment: status %d", resp.StatusCode)
	}
	decode(t, resp, &dep)
	if dep.ServerID == "" || dep.ZoneID == "" {
		t.Errorf("deployment body incomplete: %+v", dep)
	}

	// Attach traffic and advance the emulated clock a day.
	if err := tb.AttachTraffic(traffic.Config{Seed: 1, Scenario: traffic.Diurnal, RPS: 15}, 40); err != nil {
		t.Fatal(err)
	}
	for h := 0; h < 24; h++ {
		if err := tb.Orch.Tick(time.Hour); err != nil {
			t.Fatal(err)
		}
	}

	// Metrics reflect the day of accrual.
	var met struct {
		CarbonTotalG float64 `json:"carbon_total_g"`
		EnergyKWh    float64 `json:"energy_kwh"`
		Deployments  int     `json:"deployments"`
	}
	resp = get(t, srv.URL+"/api/v1/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d", resp.StatusCode)
	}
	decode(t, resp, &met)
	if met.Deployments != 2 || met.CarbonTotalG <= 0 || met.EnergyKWh <= 0 {
		t.Errorf("metrics incomplete: %+v", met)
	}

	// Traffic stats: totals plus one row per deployment.
	var tr struct {
		Totals struct {
			Requests int64   `json:"requests"`
			SLOPct   float64 `json:"slo_attainment_pct"`
			P50Ms    float64 `json:"p50_ms"`
			P99Ms    float64 `json:"p99_ms"`
			CarbonG  float64 `json:"carbon_g"`
		} `json:"totals"`
		Deployments []struct {
			ID       string  `json:"id"`
			Requests int64   `json:"requests"`
			SLOPct   float64 `json:"slo_attainment_pct"`
			P50Ms    float64 `json:"p50_ms"`
		} `json:"deployments"`
	}
	resp = get(t, srv.URL+"/api/v1/traffic")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traffic: status %d", resp.StatusCode)
	}
	decode(t, resp, &tr)
	if tr.Totals.Requests == 0 {
		t.Fatal("no requests routed after a day of ticks")
	}
	if tr.Totals.SLOPct <= 0 || tr.Totals.P50Ms <= 0 || tr.Totals.CarbonG <= 0 {
		t.Errorf("traffic totals incomplete: %+v", tr.Totals)
	}
	if len(tr.Deployments) != 2 {
		t.Fatalf("per-deployment rows = %d, want 2", len(tr.Deployments))
	}
	for _, row := range tr.Deployments {
		if row.Requests == 0 || row.P50Ms <= 0 {
			t.Errorf("deployment %s has empty stats: %+v", row.ID, row)
		}
	}

	// Undeploy and verify it is gone.
	req, err := http.NewRequest(http.MethodDelete, srv.URL+"/api/v1/deployments/app-Tampa", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("undeploy: status %d, want 204", resp.StatusCode)
	}
	resp = get(t, srv.URL+"/api/v1/deployments/app-Tampa")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("deleted deployment still served: status %d", resp.StatusCode)
	}
}

func TestTrafficTickWindowScaling(t *testing.T) {
	// One 2-hour tick must route exactly the demand of two 1-hour ticks:
	// the router iterates every hourly slice the window overlaps instead
	// of scaling a single slice.
	tcfg := traffic.Config{Seed: 9, Scenario: traffic.Diurnal, RPS: 50}
	tbA, _ := newAPIServer(t)
	if err := tbA.AttachTraffic(tcfg, 40); err != nil {
		t.Fatal(err)
	}
	if err := tbA.Orch.Tick(2 * time.Hour); err != nil {
		t.Fatal(err)
	}
	tbB, _ := newAPIServer(t)
	if err := tbB.AttachTraffic(tcfg, 40); err != nil {
		t.Fatal(err)
	}
	for h := 0; h < 2; h++ {
		if err := tbB.Orch.Tick(time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	// Sub-hour ticks must partition each hourly slice exactly: four
	// 15-minute ticks over the same first hour as tbB's first 1-hour
	// tick, plus one more hour, again offer identical demand.
	tbC, _ := newAPIServer(t)
	if err := tbC.AttachTraffic(tcfg, 40); err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 4; q++ {
		if err := tbC.Orch.Tick(15 * time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbC.Orch.Tick(time.Hour); err != nil {
		t.Fatal(err)
	}
	snapA, _, _, _ := tbA.Orch.TrafficTelemetry()
	snapB, _, _, _ := tbB.Orch.TrafficTelemetry()
	snapC, _, _, _ := tbC.Orch.TrafficTelemetry()
	if snapA.Requests == 0 {
		t.Fatal("no requests routed")
	}
	if snapA.Requests != snapB.Requests {
		t.Errorf("2h tick routed %d requests, two 1h ticks routed %d", snapA.Requests, snapB.Requests)
	}
	if snapC.Requests != snapB.Requests {
		t.Errorf("15-minute ticks routed %d requests, hourly ticks routed %d", snapC.Requests, snapB.Requests)
	}
}

func TestAPIOverloadSignal(t *testing.T) {
	tb, _ := newAPIServer(t)
	// No deployments at all: every routed request drops, and each tick
	// fires the overload handler.
	if err := tb.AttachTraffic(traffic.Config{Seed: 2, Scenario: traffic.Steady, RPS: 100}, 40); err != nil {
		t.Fatal(err)
	}
	var fired int
	var droppedTotal int64
	tb.Orch.SetOverloadHandler(func(now time.Time, dropped int64) {
		fired++
		droppedTotal += dropped
	})
	for h := 0; h < 3; h++ {
		if err := tb.Orch.Tick(time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	if fired != 3 || droppedTotal == 0 {
		t.Errorf("overload handler fired %d times (%d dropped), want 3 with drops", fired, droppedTotal)
	}
	snap, overloadTicks, last, ok := tb.Orch.TrafficTelemetry()
	if !ok {
		t.Fatal("telemetry not attached")
	}
	if overloadTicks != 3 || last.IsZero() {
		t.Errorf("overload_ticks=%d last=%v, want 3 ticks recorded", overloadTicks, last)
	}
	if snap.Dropped != droppedTotal {
		t.Errorf("snapshot dropped %d != handler total %d", snap.Dropped, droppedTotal)
	}
}
