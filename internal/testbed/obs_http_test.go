package testbed

import (
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/traffic"
)

// metricValue extracts one sample's value from a Prometheus exposition.
func metricValue(t *testing.T, text, series string) float64 {
	t.Helper()
	re := regexp.MustCompile("(?m)^" + regexp.QuoteMeta(series) + " (.*)$")
	m := re.FindStringSubmatch(text)
	if m == nil {
		t.Fatalf("exposition has no series %q:\n%s", series, text)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("series %q value %q: %v", series, m[1], err)
	}
	return v
}

// TestObsEndpoints drives the full API stack through deploy, traffic,
// and a fault, then scrapes /metrics and /api/v1/obs: the unified
// registry must cover carbon/energy, traffic SLO, placement solver, and
// fault counters, and the obs body must carry the tick-phase breakdown
// plus the recorded fault events.
func TestObsEndpoints(t *testing.T) {
	tb, srv := newAPIServer(t)

	resp := post(t, srv.URL+"/api/v1/deployments",
		`{"name":"app-obs","model":"ResNet50","source":"Miami","slo_ms":20,"rate_per_sec":10}`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("deploy: status %d", resp.StatusCode)
	}
	resp = post(t, srv.URL+"/api/v1/place", "")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("place: status %d", resp.StatusCode)
	}
	if err := tb.AttachTraffic(traffic.Config{Seed: 1, Scenario: traffic.Diurnal, RPS: 15}, 40); err != nil {
		t.Fatal(err)
	}
	resp = post(t, srv.URL+"/api/v1/faults", `{"at":"1h","kind":"crash","site":"Miami","for":"3h"}`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("inject fault: status %d", resp.StatusCode)
	}
	for h := 0; h < 6; h++ {
		if err := tb.Orch.Tick(time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	// The crash evicted app-obs back into the pending queue; Miami has
	// recovered by now, so a second batch re-places it.
	resp = post(t, srv.URL+"/api/v1/place", "")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-place: status %d", resp.StatusCode)
	}

	// Prometheus exposition.
	resp = get(t, srv.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics content type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)

	if v := metricValue(t, text, "carbonedge_carbon_grams_total"); v <= 0 {
		t.Errorf("carbon total = %g, want > 0", v)
	}
	if v := metricValue(t, text, "carbonedge_energy_kwh_total"); v <= 0 {
		t.Errorf("energy total = %g, want > 0", v)
	}
	if v := metricValue(t, text, "carbonedge_deployments"); v != 1 {
		t.Errorf("deployments = %g, want 1", v)
	}
	if v := metricValue(t, text, "carbonedge_deploy_batches_total"); v != 2 {
		t.Errorf("batches = %g, want 2", v)
	}
	if v := metricValue(t, text, "carbonedge_pending_recipes"); v != 0 {
		t.Errorf("pending = %g, want 0", v)
	}
	if v := metricValue(t, text, "carbonedge_fault_evictions_total"); v != 1 {
		t.Errorf("evictions = %g, want 1", v)
	}
	if v := metricValue(t, text, "carbonedge_requests_total"); v <= 0 {
		t.Errorf("requests = %g, want > 0", v)
	}
	if v := metricValue(t, text, "carbonedge_request_latency_ms_count"); v <= 0 {
		t.Errorf("latency count = %g, want > 0", v)
	}
	if v := metricValue(t, text, "carbonedge_placement_apps"); v != 1 {
		t.Errorf("placement apps = %g, want 1", v)
	}
	bound := metricValue(t, text, `carbonedge_placement_exact_batches_total{closed_by="bound"}`)
	bnb := metricValue(t, text, `carbonedge_placement_exact_batches_total{closed_by="branch_and_bound"}`)
	// The first batch is the certificate's. The crash left Miami's servers
	// powered off, so the re-place weighs switching one back on, which
	// only branch and bound settles.
	if bound != 1 || bnb != 1 {
		t.Errorf("exact batches closed by the bound %g, by branch and bound %g; want 1 and 1", bound, bnb)
	}
	// The crash applied at +1h and its recovery at +4h.
	if v := metricValue(t, text, "carbonedge_faults_applied_total"); v != 2 {
		t.Errorf("faults applied = %g, want 2", v)
	}
	if v := metricValue(t, text, `carbonedge_tick_phase_seconds_total{phase="telemetry"}`); v < 0 {
		t.Errorf("telemetry phase seconds = %g", v)
	}
	if v := metricValue(t, text, `carbonedge_tick_phase_calls_total{phase="telemetry"}`); v != 6 {
		t.Errorf("telemetry phase calls = %g, want 6", v)
	}
	if v := metricValue(t, text, `carbonedge_tick_phase_calls_total{phase="placement"}`); v != 2 {
		t.Errorf("placement phase calls = %g, want 2", v)
	}

	// Phase breakdown + flight recorder.
	var body struct {
		Now    string `json:"now"`
		Phases []struct {
			Name  string `json:"name"`
			Calls int64  `json:"calls"`
		} `json:"phases"`
		RecentEvents []struct {
			Kind string `json:"kind"`
			Seq  uint64 `json:"seq"`
		} `json:"recent_events"`
	}
	resp = get(t, srv.URL+"/api/v1/obs")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/api/v1/obs: status %d", resp.StatusCode)
	}
	decode(t, resp, &body)
	if body.Now == "" || len(body.Phases) != 4 {
		t.Fatalf("obs body incomplete: %+v", body)
	}
	calls := map[string]int64{}
	for _, p := range body.Phases {
		calls[p.Name] = p.Calls
	}
	if calls["telemetry"] != 6 || calls["traffic"] != 6 || calls["placement"] != 2 {
		t.Errorf("phase calls = %v", calls)
	}
	if len(body.RecentEvents) != 2 {
		t.Fatalf("recorded %d events, want 2 (crash + recovery)", len(body.RecentEvents))
	}
	if body.RecentEvents[0].Kind != "crash" || body.RecentEvents[0].Seq != 1 {
		t.Errorf("first recorded event = %+v, want crash seq 1", body.RecentEvents[0])
	}
}
