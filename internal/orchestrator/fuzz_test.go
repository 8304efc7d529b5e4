package orchestrator

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/events"
	"repro/internal/placement"
)

// sealedState is o's state as a GET /api/v1/state envelope.
func sealedState(t *testing.T, o *Orchestrator) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := checkpoint.Encode(&buf, stateKind, mustState(t, o)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzLoadState is PUT /api/v1/state under a hostile checkpoint: the
// fuzzer mutates a state payload, the payload is re-sealed (so the
// digest is good) and decoded as the handler decodes it, and the state
// is loaded into a fresh orchestrator. Nothing may panic. A state that
// loads must survive SaveState → LoadState into another fresh
// orchestrator and save back to the same envelope, and a Tick and a
// placement batch on it may fail but not panic. The seed is the golden
// state's payload; testdata/fuzz/FuzzLoadState adds doctored states that
// LoadState used to accept.
func FuzzLoadState(f *testing.F) {
	golden, err := os.ReadFile(goldenStatePath)
	if err != nil {
		f.Fatal(err)
	}
	var seed json.RawMessage
	if err := checkpoint.Decode(bytes.NewReader(golden), stateKind, &seed); err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(seed))
	f.Fuzz(func(t *testing.T, payload []byte) {
		var sealed bytes.Buffer
		if err := checkpoint.Encode(&sealed, stateKind, json.RawMessage(payload)); err != nil {
			return // not JSON
		}
		var st State
		if err := checkpoint.Decode(&sealed, stateKind, &st); err != nil {
			return
		}
		o := trafficFixture(t, placement.LatencyAware{}, 6)
		if err := o.LoadState(st); err != nil {
			return
		}
		saved := sealedState(t, o)
		var again State
		if err := checkpoint.Decode(bytes.NewReader(saved), stateKind, &again); err != nil {
			t.Fatalf("saved state does not decode: %v", err)
		}
		restored := trafficFixture(t, placement.LatencyAware{}, 6)
		if err := restored.LoadState(again); err != nil {
			t.Fatalf("saved state does not load: %v", err)
		}
		if resaved := sealedState(t, restored); !bytes.Equal(resaved, saved) {
			t.Fatalf("load then save gives\n%s\nwant\n%s", resaved, saved)
		}
		_ = o.Tick(time.Hour)
		_, _, _ = o.PlaceBatch()
	})
}

// liveFaultsRecipes caps the recipes one FuzzLiveFaults or
// FuzzHTTPHandlers input submits (FuzzLiveFaults' 7 rounds of at most 7
// stay under it). The fixture's two servers hold 24 testRecipes, so
// inputs reach full servers, rejections and the heuristic fallback. The
// exact backend solves alike apps as one integer per (class, server), so
// no batch under the cap is slow (TestAlikeBatchSolvesInClasses).
const liveFaultsRecipes = 64

// FuzzLiveFaults drives the live path under a random fault script: the
// script is injected into a carbon-aware orchestrator with traffic
// attached, and each round submits up to deploys recipes (at most
// liveFaultsRecipes in all), places the queue and ticks an hour. A
// script ParseFaultScript or InjectScript rejects is skipped; otherwise
// no PlaceBatch or Tick may fail or panic, and the server table must
// check out after each. Seeds cover every fault kind, a zone outage, a
// near-total degrade, a scale-out whose site then crashes, and a degrade
// by 3 of a small scale-out server (the validator now refuses it; it used
// to make placement offer more than admit accepts).
func FuzzLiveFaults(f *testing.F) {
	for _, seed := range []struct {
		script          string
		deploys, rounds uint8
	}{
		{"at 1h crash site=CityA for=2h", 4, 4},
		{"at 0s crash site=CityB\nat 2h recover site=CityB", 3, 4},
		{"at 0s degrade site=CityA factor=0.5 for=2h", 4, 3},
		{"at 1h forecast-error zone=Z-GREEN factor=20 for=1h", 3, 3},
		{"at 0s scale-out site=CityB device=A2 capacity=100 count=2", 4, 3},
		{"at 1h crash zone=Z-GREEN for=1h", 4, 4},
		{"at 1h degrade zone=Z-DIRTY factor=0.001", 4, 3},
		{"at 0s scale-out site=CityA device=A2 capacity=1000\nat 2h crash site=CityA", 3, 4},
		{"at 0s crash site=CityB\nat 0s crash site=CityA\n" +
			"at 0s scale-out site=CityA device=A2 capacity=300\nat 0s degrade site=CityA factor=3", 4, 2},
	} {
		f.Add(seed.script, seed.deploys, seed.rounds)
	}
	f.Fuzz(func(t *testing.T, script string, deploys, rounds uint8) {
		s, err := events.ParseFaultScript(script)
		if err != nil {
			return
		}
		o := trafficFixture(t, placement.CarbonAware{}, 6)
		if err := o.InjectScript(s); err != nil {
			return
		}
		submitted := 0
		for r := 0; r < int(rounds%8); r++ {
			for k := 0; k < int(deploys%8) && submitted < liveFaultsRecipes; k++ {
				rec := testRecipe(fmt.Sprintf("app%d", submitted))
				if k%2 == 1 {
					rec.Source = "CityB"
				}
				if err := o.Submit(rec); err != nil {
					t.Fatal(err)
				}
				submitted++
			}
			if _, _, err := o.PlaceBatch(); err != nil {
				t.Fatalf("round %d: PlaceBatch: %v", r, err)
			}
			checkServerTable(t, o)
			if err := o.Tick(time.Hour); err != nil {
				t.Fatalf("round %d: Tick: %v", r, err)
			}
			checkServerTable(t, o)
		}
	})
}

// FuzzHTTPHandlers drives the write endpoints with hostile bodies through
// the API handler. deploys and faults are newline-separated request
// bodies. Each round POSTs every deploy body to /api/v1/deployments
// (until liveFaultsRecipes have been accepted), the round's fault body
// to /api/v1/faults and place to /api/v1/place, then ticks an hour. No
// request may panic or hang, every response is a 2xx or a 4xx with a
// JSON error body, and the server table must check out after every
// request and tick.
func FuzzHTTPHandlers(f *testing.F) {
	for _, seed := range []struct {
		deploys, faults, place string
		rounds                 uint8
	}{
		{`{"name":"a","model":"ResNet50","source":"CityA","slo_ms":20,"rate_per_sec":10}` + "\n" +
			`{"name":"b","model":"ResNet50","source":"CityB","slo_ms":20,"rate_per_sec":10}`,
			`{"script":"at 1h crash site=CityA for=2h"}` + "\n" + `{"kind":"degrade","site":"CityB","factor":0.5,"at":"0s"}`, "", 4},
		{`{"name":"a","model":"ResNet50","source":"CityA","slo_ms":20,"rate_per_sec":10,"extra":1}` + "\n" +
			`{"name":"","model":"ResNet50"}` + "\n" + `not json`,
			`{"kind":"scale-out","site":"CityA","device":"A2","capacity":100,"count":2147483647}` + "\n" + `{"script":"at -1h crash"}`, "{}", 3},
		{`{"name":"c","model":"YOLOv4","source":"CityB","slo_ms":1,"rate_per_sec":1e308}`,
			`{"kind":"forecast-error","zone":"Z-GREEN","factor":20,"for":"1h"}`, "garbage", 2},
	} {
		f.Add(seed.deploys, seed.faults, seed.place, seed.rounds)
	}
	f.Fuzz(func(t *testing.T, deploys, faults, place string, rounds uint8) {
		o := trafficFixture(t, placement.CarbonAware{}, 6)
		api := o.API()
		post := func(path, body string) int {
			rec := httptest.NewRecorder()
			api.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
			if rec.Code >= 400 && rec.Code < 500 {
				var eb errorBody
				if rec.Header().Get("Content-Type") != "application/json" || json.Unmarshal(rec.Body.Bytes(), &eb) != nil || eb.Error == "" {
					t.Fatalf("POST %s %q: %d with body %q, want a JSON error", path, body, rec.Code, rec.Body)
				}
			} else if rec.Code < 200 || rec.Code >= 300 {
				t.Fatalf("POST %s %q: %d %s", path, body, rec.Code, rec.Body)
			}
			checkServerTable(t, o)
			return rec.Code
		}
		faultBodies := strings.Split(faults, "\n")
		submitted := 0
		for r := 0; r < int(rounds%8); r++ {
			for _, body := range strings.Split(deploys, "\n") {
				if submitted < liveFaultsRecipes && post("/api/v1/deployments", body) == http.StatusAccepted {
					submitted++
				}
			}
			if r < len(faultBodies) {
				post("/api/v1/faults", faultBodies[r])
			}
			post("/api/v1/place", place)
			if err := o.Tick(time.Hour); err != nil {
				t.Fatalf("round %d: Tick: %v", r, err)
			}
			checkServerTable(t, o)
		}
	})
}
