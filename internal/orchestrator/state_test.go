package orchestrator

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/events"
	"repro/internal/placement"
)

// mustState saves the orchestrator's state, failing the test on error.
func mustState(t *testing.T, o *Orchestrator) State {
	t.Helper()
	st, err := o.SaveState()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestSaveLoadStateRoundTrip checkpoints a running orchestrator and
// restores it into a fresh one over an equivalent cluster: deployments,
// allocations, telemetry, clock, and pending faults must all carry over,
// and both must evolve identically afterwards.
func TestSaveLoadStateRoundTrip(t *testing.T) {
	orig := fixture(t, placement.CarbonAware{})
	deployOne(t, orig, "app-a", "CityA")
	deployOne(t, orig, "app-b", "CityB")
	for i := 0; i < 5; i++ {
		if err := orig.Tick(time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	// A fault still pending at snapshot time must survive the restore.
	if err := injectFault(orig, events.Fault{
		At: 2 * time.Hour, Kind: events.FaultCrash, Site: "CityA", For: 3 * time.Hour,
	}); err != nil {
		t.Fatal(err)
	}
	st := mustState(t, orig)

	restored := fixture(t, placement.CarbonAware{})
	if err := restored.LoadState(st); err != nil {
		t.Fatal(err)
	}
	if !restored.Now().Equal(orig.Now()) {
		t.Errorf("restored clock %v, want %v", restored.Now(), orig.Now())
	}
	if restored.CarbonTotalG() != orig.CarbonTotalG() {
		t.Errorf("restored carbon %v, want %v", restored.CarbonTotalG(), orig.CarbonTotalG())
	}
	if restored.EnergyKWh() != orig.EnergyKWh() {
		t.Errorf("restored energy %v, want %v", restored.EnergyKWh(), orig.EnergyKWh())
	}
	if got, want := restored.AppCarbonG("app-a"), orig.AppCarbonG("app-a"); got != want {
		t.Errorf("restored app-a carbon %v, want %v", got, want)
	}
	rd, od := restored.Deployments(), orig.Deployments()
	if len(rd) != len(od) {
		t.Fatalf("restored %d deployments, want %d", len(rd), len(od))
	}
	for i := range rd {
		if *rd[i] != *od[i] {
			t.Errorf("deployment %d diverged: %+v vs %+v", i, rd[i], od[i])
		}
	}
	if got, want := restored.FaultStatus(), orig.FaultStatus(); got.Pending != want.Pending {
		t.Errorf("restored %d pending faults, want %d", got.Pending, want.Pending)
	}

	// Both timelines continue identically: the pending crash fires, evicts,
	// and telemetry stays in lockstep.
	for i := 0; i < 8; i++ {
		if err := orig.Tick(time.Hour); err != nil {
			t.Fatal(err)
		}
		if err := restored.Tick(time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	if restored.CarbonTotalG() != orig.CarbonTotalG() {
		t.Errorf("post-restore carbon diverged: %v vs %v", restored.CarbonTotalG(), orig.CarbonTotalG())
	}
	fs, fo := restored.FaultStatus(), orig.FaultStatus()
	if fs.Applied != fo.Applied || fs.Evictions != fo.Evictions {
		t.Errorf("post-restore fault telemetry diverged: %+v vs %+v", fs, fo)
	}
}

// TestLoadStateInvalidatesForecastMemo is the fault-skew-then-restore
// regression: a forecast-error fault active at snapshot time must reach
// the restored orchestrator's first placement batch, and a restore must
// not keep serving the workspace the orchestrator built before it. (The
// name is historical: forecasts are read per batch, with no memo left to
// invalidate.)
func TestLoadStateInvalidatesForecastMemo(t *testing.T) {
	// Reference: with a big forecast spike on the green zone, carbon-aware
	// placement flips to the dirty-but-believed-cleaner DC.
	skewed := fixture(t, placement.CarbonAware{})
	if err := injectFault(skewed, events.Fault{
		Kind: events.FaultForecastError, Zone: "Z-GREEN", Factor: 100,
	}); err != nil {
		t.Fatal(err)
	}
	if err := skewed.Tick(time.Hour); err != nil {
		t.Fatal(err)
	}
	want := deployOne(t, skewed, "probe", "CityA").DCID

	// Same skewed orchestrator, but checkpointed after the fault applied
	// and restored into a fresh one that has already placed a batch with
	// the unskewed view at the same clock.
	donor := fixture(t, placement.CarbonAware{})
	if err := injectFault(donor, events.Fault{
		Kind: events.FaultForecastError, Zone: "Z-GREEN", Factor: 100,
	}); err != nil {
		t.Fatal(err)
	}
	if err := donor.Tick(time.Hour); err != nil {
		t.Fatal(err)
	}
	st := mustState(t, donor)

	restored := fixture(t, placement.CarbonAware{})
	if err := restored.Tick(time.Hour); err != nil {
		t.Fatal(err) // align the clock with the snapshot's
	}
	deployOne(t, restored, "warmup", "CityA") // builds a workspace without skew
	if err := restored.Undeploy("warmup"); err != nil {
		t.Fatal(err)
	}
	if err := restored.LoadState(st); err != nil {
		t.Fatal(err)
	}
	got := deployOne(t, restored, "probe", "CityA").DCID
	if got != want {
		t.Errorf("restored orchestrator placed probe on %s, want %s (stale pre-snapshot forecast view served)", got, want)
	}
}

func TestLoadStateRequiresFreshOrchestrator(t *testing.T) {
	orig := fixture(t, placement.CarbonAware{})
	deployOne(t, orig, "app-a", "CityA")
	st := mustState(t, orig)

	busy := fixture(t, placement.CarbonAware{})
	deployOne(t, busy, "other", "CityB")
	if err := busy.LoadState(st); err == nil {
		t.Error("LoadState accepted an orchestrator with existing deployments")
	}
}

// TestStateRestoresFlashServers covers runtime-added capacity: scale-out
// servers must exist again after restore, with deployments they host.
func TestStateRestoresFlashServers(t *testing.T) {
	orig := fixture(t, placement.CarbonAware{})
	if err := injectFault(orig, events.Fault{
		Kind: events.FaultScaleOut, Site: "CityA", Device: "A2", CapacityMilli: 1000, Count: 2,
	}); err != nil {
		t.Fatal(err)
	}
	if err := orig.Tick(time.Hour); err != nil {
		t.Fatal(err)
	}
	st := mustState(t, orig)
	if len(st.FlashServers) != 2 {
		t.Fatalf("state records %d flash servers, want 2", len(st.FlashServers))
	}

	restored := fixture(t, placement.CarbonAware{})
	if err := restored.LoadState(st); err != nil {
		t.Fatal(err)
	}
	for _, fs := range st.FlashServers {
		if !slices.ContainsFunc(restored.servers, func(srv *server) bool { return srv.id == fs.ID }) {
			t.Errorf("flash server %s missing after restore", fs.ID)
		}
	}
}

// TestLoadStateOntoScaledOut: LoadState's freshness test counts
// deployments and the queue only, so an orchestrator that has scaled out
// but placed nothing is fresh. Its own flash rows must not survive the
// load: the state's flash servers are the only ones after it, whether the
// state is the orchestrator's own or one saved before it scaled out, and
// the next SaveState writes exactly those.
func TestLoadStateOntoScaledOut(t *testing.T) {
	scaled := func() *Orchestrator {
		o := fixture(t, placement.CarbonAware{})
		if err := injectFault(o, events.Fault{
			Kind: events.FaultScaleOut, Site: "CityA", Device: "A2", CapacityMilli: 1000, Count: 2,
		}); err != nil {
			t.Fatal(err)
		}
		if err := o.Tick(time.Hour); err != nil {
			t.Fatal(err)
		}
		return o
	}
	flashIDs := func(st State) []string {
		var ids []string
		for _, fs := range st.FlashServers {
			ids = append(ids, fs.ID)
		}
		return ids
	}

	own := scaled()
	st := mustState(t, own)
	if err := own.LoadState(st); err != nil {
		t.Fatalf("loading the orchestrator's own state: %v", err)
	}
	if got := mustState(t, own); !reflect.DeepEqual(got, st) {
		t.Errorf("own state reloaded saves back as\n%+v\nwant\n%+v", got, st)
	}

	unscaled := fixture(t, placement.CarbonAware{})
	before := mustState(t, unscaled)
	o := scaled()
	if err := o.LoadState(before); err != nil {
		t.Fatal(err)
	}
	if n, want := len(o.servers), len(unscaled.servers); n != want {
		t.Errorf("%d server rows after loading a state without flash servers, want %d", n, want)
	}
	if got := flashIDs(mustState(t, o)); len(got) != 0 {
		t.Errorf("SaveState writes flash servers %v the loaded state never had", got)
	}
	checkServerTable(t, o)
}

// TestStateHTTPRoundTrip drives the checkpoint through the HTTP API:
// GET /api/v1/state off a live orchestrator, PUT into a fresh one.
func TestStateHTTPRoundTrip(t *testing.T) {
	orig := fixture(t, placement.CarbonAware{})
	deployOne(t, orig, "app-a", "CityA")
	for i := 0; i < 3; i++ {
		if err := orig.Tick(time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	srvA := httptest.NewServer(orig.API())
	defer srvA.Close()
	resp, err := http.Get(srvA.URL + "/api/v1/state")
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /state = %d: %s", resp.StatusCode, body.String())
	}
	// The artifact is a validated checkpoint envelope.
	var st State
	if err := checkpoint.Decode(bytes.NewReader(body.Bytes()), "orchestrator", &st); err != nil {
		t.Fatalf("GET /state did not produce a checkpoint envelope: %v", err)
	}

	restored := fixture(t, placement.CarbonAware{})
	srvB := httptest.NewServer(restored.API())
	defer srvB.Close()
	req, err := http.NewRequest(http.MethodPut, srvB.URL+"/api/v1/state", bytes.NewReader(body.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT /state = %d", resp.StatusCode)
	}
	if restored.CarbonTotalG() != orig.CarbonTotalG() {
		t.Errorf("HTTP-restored carbon %v, want %v", restored.CarbonTotalG(), orig.CarbonTotalG())
	}
	if len(restored.Deployments()) != 1 {
		t.Errorf("HTTP-restored orchestrator has %d deployments, want 1", len(restored.Deployments()))
	}

	// A second PUT hits the freshness guard: 409.
	req, _ = http.NewRequest(http.MethodPut, srvB.URL+"/api/v1/state", bytes.NewReader(body.Bytes()))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("second PUT /state = %d, want 409", resp.StatusCode)
	}

	// Corrupted envelope: 400.
	garbled := bytes.Replace(body.Bytes(), []byte(`"carbon_total_g"`), []byte(`"carbon_totals_"`), 1)
	req, _ = http.NewRequest(http.MethodPut, srvB.URL+"/api/v1/state", bytes.NewReader(garbled))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("tampered PUT /state = %d, want 400", resp.StatusCode)
	}
}

// TestStateEnvelopeMatchesSealOracle: the orchestrator checkpoint —
// deployments whose names need escaping, routed traffic, a fault still
// pending — encodes to the old write path's bytes (json.Marshal of the
// state digested into an Envelope, then the Envelope through
// json.Encoder), through checkpoint.Encode and through GET /api/v1/state
// alike.
func TestStateEnvelopeMatchesSealOracle(t *testing.T) {
	o := trafficFixture(t, placement.CarbonAware{}, 30)
	deployOne(t, o, "app<a>&b", "CityA")
	deployOne(t, o, "app \"b\"", "CityB")
	for i := 0; i < 5; i++ {
		if err := o.Tick(time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	if err := injectFault(o, events.Fault{
		At: 2 * time.Hour, Kind: events.FaultCrash, Site: "CityA", For: 3 * time.Hour,
	}); err != nil {
		t.Fatal(err)
	}
	st := mustState(t, o)
	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	env := &checkpoint.Envelope{
		Format: checkpoint.Format, Version: checkpoint.Version, Kind: stateKind,
		SHA256: hex.EncodeToString(sum[:]), Payload: raw,
	}
	var want, got bytes.Buffer
	if err := json.NewEncoder(&want).Encode(env); err != nil {
		t.Fatal(err)
	}
	if err := checkpoint.Encode(&got, stateKind, st); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("checkpoint.Encode of the orchestrator state differs from the oracle")
	}
	srv := httptest.NewServer(o.API())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/api/v1/state")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body bytes.Buffer
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body.Bytes(), want.Bytes()) {
		t.Fatalf("GET /api/v1/state = %d, body differs from the oracle", resp.StatusCode)
	}
}

func TestStateJSONDeterministic(t *testing.T) {
	// Two saves of the same state must encode identically (sorted maps,
	// stable slices) — checkpoint diffing relies on it.
	o := fixture(t, placement.CarbonAware{})
	deployOne(t, o, "app-a", "CityA")
	deployOne(t, o, "app-b", "CityB")
	if err := o.Tick(time.Hour); err != nil {
		t.Fatal(err)
	}
	a, err := json.Marshal(mustState(t, o))
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(mustState(t, o))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("two saves of one state encode differently")
	}
}

func TestLoadStateRejectsBeforeMutating(t *testing.T) {
	// An invalid checkpoint must be rejected before any cluster mutation:
	// the orchestrator stays fresh, and a corrected checkpoint still
	// restores cleanly afterwards.
	orig := fixture(t, placement.CarbonAware{})
	deployOne(t, orig, "app-a", "CityA")
	good := mustState(t, orig)

	bad := mustState(t, orig)
	bad.Deployments[0].Demand = bad.Deployments[0].Demand.Scale(1e9) // cannot fit anywhere
	fresh := fixture(t, placement.CarbonAware{})
	if err := fresh.LoadState(bad); err == nil {
		t.Fatal("over-capacity deployment accepted")
	}
	bad = mustState(t, orig)
	bad.Deployments[0].ServerID = "srv-nowhere"
	if err := fresh.LoadState(bad); err == nil {
		t.Fatal("unknown server accepted")
	}
	bad = mustState(t, orig)
	bad.Deployments[0].Recipe.Model = "no-such-model"
	if err := fresh.LoadState(bad); err == nil {
		t.Fatal("deployment of an unprofiled model accepted")
	}
	bad = mustState(t, orig)
	bad.Deployments = append(bad.Deployments, bad.Deployments[0])
	bad.Deployments[1].Demand = bad.Deployments[1].Demand.Scale(0.01) // fits beside the first
	if err := fresh.LoadState(bad); err == nil {
		t.Fatal("a deployment name listed twice accepted")
	}
	bad = mustState(t, orig)
	for i := range bad.Servers {
		if bad.Servers[i].ID == bad.Deployments[0].ServerID {
			bad.Servers[i].PoweredOn = false
		}
	}
	if err := fresh.LoadState(bad); err == nil {
		t.Fatal("deployment on a powered-off server accepted")
	}
	bad = mustState(t, orig)
	bad.DownServers = []string{"srv-nowhere"}
	if err := fresh.LoadState(bad); err == nil {
		t.Fatal("unknown crashed server accepted")
	}
	bad = mustState(t, orig)
	bad.Degraded = map[string]float64{"srv-nowhere": 0.5}
	if err := fresh.LoadState(bad); err == nil {
		t.Fatal("unknown degraded server accepted")
	}
	// Degrade factors and forecast skews outside the bounds a fault can
	// set, and a deployment over its server's degraded capacity, are
	// refused.
	for _, f := range []float64{5, -2, 0, math.NaN()} {
		bad = mustState(t, orig)
		bad.Degraded = map[string]float64{}
		for _, sp := range bad.Servers {
			bad.Degraded[sp.ID] = f
		}
		if err := fresh.LoadState(bad); err == nil {
			t.Fatalf("degrade factor %g accepted", f)
		}
	}
	for _, f := range []float64{0, -1, math.NaN()} {
		bad = mustState(t, orig)
		bad.FcSkew = map[string]float64{"Z-GREEN": f}
		if err := fresh.LoadState(bad); err == nil {
			t.Fatalf("forecast skew %g accepted", f)
		}
	}
	bad = mustState(t, orig)
	bad.Degraded = map[string]float64{bad.Deployments[0].ServerID: 1e-6}
	if err := fresh.LoadState(bad); err == nil || !strings.Contains(err.Error(), "exceed its capacity") {
		t.Fatalf("deployment over its server's degraded capacity accepted (err=%v)", err)
	}
	// A negative held demand, or a rate no server of the type can serve
	// (which a Tick used to route into an unbounded allocation), is
	// refused.
	bad = mustState(t, orig)
	bad.Deployments[0].Demand[cluster.ResCPUMilli] = -1
	if err := fresh.LoadState(bad); err == nil {
		t.Fatal("deployment holding a negative demand accepted")
	}
	bad = mustState(t, orig)
	bad.Deployments[0].Recipe.RatePerSec = 1e300
	if err := fresh.LoadState(bad); err == nil {
		t.Fatal("deployment at a rate beyond its device accepted")
	}
	// Copies under fresh names overflow the server's capacity.
	bad = mustState(t, orig)
	for i := 0; i < 100; i++ {
		ds := bad.Deployments[0]
		ds.Recipe.Name = fmt.Sprintf("copy-%d", i)
		bad.Deployments = append(bad.Deployments, ds)
	}
	if err := fresh.LoadState(bad); err == nil || !strings.Contains(err.Error(), "exceed its capacity") {
		t.Fatalf("deployments over a server's capacity accepted (err=%v)", err)
	}
	// The backlog holds only what Submit accepts.
	bad = mustState(t, orig)
	bad.Pending = []Recipe{bad.Deployments[0].Recipe}
	if err := fresh.LoadState(bad); err == nil {
		t.Fatal("pending recipe named like a deployment accepted")
	}
	bad = mustState(t, orig)
	bad.Pending = []Recipe{{Name: "q", Model: "no-such-model", Source: "CityA", SLOms: 50, RatePerSec: 1}}
	if err := fresh.LoadState(bad); err == nil {
		t.Fatal("pending recipe of an unprofiled model accepted")
	}

	// The failed attempts mutated nothing: the corrected state restores.
	if err := fresh.LoadState(good); err != nil {
		t.Fatalf("restore after rejected attempts failed: %v", err)
	}
	if len(fresh.Deployments()) != 1 {
		t.Errorf("restored %d deployments, want 1", len(fresh.Deployments()))
	}
}

// TestLoadStateRefusesUnphysicalRows: the shared row check refuses
// restored rows no run reaches — a crashed server powered on, empty or
// hosting a deployment — and the refused load changes nothing.
func TestLoadStateRefusesUnphysicalRows(t *testing.T) {
	orig := fixture(t, placement.CarbonAware{})
	host := deployOne(t, orig, "app-a", "CityA").ServerID
	empty := ""
	for _, sp := range mustState(t, orig).Servers {
		if sp.ID != host {
			empty = sp.ID
		}
	}
	for _, tc := range []struct{ name, id string }{
		{"empty crashed server powered on", empty},
		{"deployment on a crashed server", host},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fresh := fixture(t, placement.CarbonAware{})
			before, err := json.Marshal(mustState(t, fresh))
			if err != nil {
				t.Fatal(err)
			}
			bad := mustState(t, orig)
			bad.DownServers = []string{tc.id}
			if err := fresh.LoadState(bad); err == nil || !strings.Contains(err.Error(), "down and powered on") {
				t.Fatalf("err = %v, want the row check's refusal", err)
			}
			after, err := json.Marshal(mustState(t, fresh))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before, after) {
				t.Errorf("the refused load changed the orchestrator:\nbefore %s\nafter  %s", before, after)
			}
			if err := fresh.LoadState(mustState(t, orig)); err != nil {
				t.Fatalf("restore after the refused one: %v", err)
			}
			checkServerTable(t, fresh)
		})
	}
}

// TestLoadStateRejectsInvalidQueuedFaults: a checkpoint's pending fault
// queue is held to what InjectScript accepts, so a queued fault that
// would zero a server's capacity, add a negative-capacity server, or fail
// the next Tick is rejected at load, and the orchestrator is left fresh.
func TestLoadStateRejectsInvalidQueuedFaults(t *testing.T) {
	orig := fixture(t, placement.CarbonAware{})
	deployOne(t, orig, "app-a", "CityA")
	for _, tc := range []struct {
		name  string
		fault events.Fault
	}{
		{"degrade with a negative factor", events.Fault{Kind: events.FaultDegrade, Site: "CityA", Factor: -1}},
		{"scale-out with a negative capacity", events.Fault{Kind: events.FaultScaleOut, Site: "CityA", Device: "A2", CapacityMilli: -5}},
		{"scale-out at an unknown site", events.Fault{Kind: events.FaultScaleOut, Site: "Atlantis", Device: "A2", CapacityMilli: 500}},
		{"unknown kind", events.Fault{Kind: "bogus", Site: "CityA"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fresh := fixture(t, placement.CarbonAware{})
			before, err := json.Marshal(mustState(t, fresh))
			if err != nil {
				t.Fatal(err)
			}
			bad := mustState(t, orig)
			bad.FaultQueue = append(bad.FaultQueue, events.ScheduledFault{At: bad.Now.Add(time.Hour), Fault: tc.fault})
			if err := fresh.LoadState(bad); err == nil {
				t.Fatal("accepted")
			}
			after, err := json.Marshal(mustState(t, fresh))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before, after) {
				t.Errorf("the rejected load changed the orchestrator:\nbefore %s\nafter  %s", before, after)
			}
		})
	}
}

// TestStateCarriesExactBatchCounters: the split of exact-backend batches
// into certificate-closed and branch-and-bound-closed survives a
// checkpoint, and a state written before the split existed (no
// bound_batches, bnb_batches or last_solve.bnb_nodes) still loads, with
// both counters at zero.
func TestStateCarriesExactBatchCounters(t *testing.T) {
	orig := fixture(t, placement.CarbonAware{})
	deployOne(t, orig, "app-a", "CityA")
	deployOne(t, orig, "app-b", "CityB")
	if orig.boundBatches+orig.bnbBatches != 2 {
		t.Fatalf("%d certificate + %d branch-and-bound batches, want 2 exact batches", orig.boundBatches, orig.bnbBatches)
	}
	st := mustState(t, orig)

	restored := fixture(t, placement.CarbonAware{})
	if err := restored.LoadState(st); err != nil {
		t.Fatal(err)
	}
	if restored.boundBatches != orig.boundBatches || restored.bnbBatches != orig.bnbBatches {
		t.Errorf("restored counters %d/%d, want %d/%d", restored.boundBatches, restored.bnbBatches, orig.boundBatches, orig.bnbBatches)
	}

	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var old map[string]any
	if err := json.Unmarshal(raw, &old); err != nil {
		t.Fatal(err)
	}
	delete(old, "bound_batches")
	delete(old, "bnb_batches")
	delete(old["last_solve"].(map[string]any), "bnb_nodes")
	if raw, err = json.Marshal(old); err != nil {
		t.Fatal(err)
	}
	var oldSt State
	if err := json.Unmarshal(raw, &oldSt); err != nil {
		t.Fatal(err)
	}
	fromOld := fixture(t, placement.CarbonAware{})
	if err := fromOld.LoadState(oldSt); err != nil {
		t.Fatalf("a state without the counters no longer loads: %v", err)
	}
	if _, batches, _ := fromOld.PlacementStats(); batches != 2 || fromOld.boundBatches != 0 || fromOld.bnbBatches != 0 {
		t.Errorf("loaded %d batches with counters %d/%d, want 2 with 0/0", batches, fromOld.boundBatches, fromOld.bnbBatches)
	}
}
