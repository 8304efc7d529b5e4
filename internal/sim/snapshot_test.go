package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/carbon"
	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/events"
	"repro/internal/metrics"
	"repro/internal/placement"
	"repro/internal/traffic"
)

// encodeResult renders a result's serializable state with wall-clock
// telemetry stripped — the byte-identity the checkpoint subsystem
// promises.
func encodeResult(t *testing.T, r *Result) []byte {
	t.Helper()
	st := r.State()
	st.SolveTimeNs = 0
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// runInterrupted drives cfg to snapAt epochs, snapshots, round-trips the
// snapshot through JSON (a restore always comes off disk), restores into
// a fresh engine, and runs to the end.
func runInterrupted(t *testing.T, cfg Config, w *World, snapAt int) *Result {
	t.Helper()
	e, err := NewEngine(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	for e.Epoch() < snapAt && !e.Done() {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := json.Marshal(e.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	// Keep stepping the original past the snapshot point before the
	// restore runs, so shared-state leaks between the two engines show up.
	for i := 0; i < 3 && !e.Done(); i++ {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	r, err := NewEngineFrom(cfg, w, &snap)
	if err != nil {
		t.Fatal(err)
	}
	if r.Epoch() != snapAt {
		t.Fatalf("restored engine at epoch %d, want %d", r.Epoch(), snapAt)
	}
	for !r.Done() {
		if err := r.Step(); err != nil {
			t.Fatal(err)
		}
	}
	return r.Finish()
}

// TestSnapshotRestoreEquivalence is the tentpole proof: for every mode,
// run-to-N + snapshot + restore + run-to-end is byte-identical to an
// uninterrupted run. Pairs run on concurrent goroutines over the shared
// world so -race doubles this as the restore path's data-race check.
func TestSnapshotRestoreEquivalence(t *testing.T) {
	w := testWorld(t)
	mk := func(mutate func(*Config)) Config {
		cfg := shortConfig(carbon.RegionEurope, placement.CarbonAware{})
		cfg.Hours = 24 * 8
		mutate(&cfg)
		return cfg
	}
	crashCity := hotCity(t, mk(func(cfg *Config) {}), w)
	configs := map[string]Config{
		"classic": mk(func(cfg *Config) {}),
		"redeploy": mk(func(cfg *Config) {
			cfg.RedeployEveryHours = 24
			cfg.MigrationDataMB, cfg.MigrationJPerMB = 500, 0.2
		}),
		"batched": mk(func(cfg *Config) { cfg.BatchHours = 6; cfg.ServersAlwaysOn = false }),
		"traffic": mk(func(cfg *Config) {
			cfg.Traffic = &traffic.Config{Scenario: traffic.FlashCrowd, RPS: 900}
			cfg.CollectLoadCI = true
		}),
		"faults": mk(func(cfg *Config) {
			cfg.Faults = &events.FaultScript{Faults: []events.Fault{
				{At: 48 * time.Hour, Kind: events.FaultCrash, Site: crashCity, For: 72 * time.Hour},
				{At: 60 * time.Hour, Kind: events.FaultScaleOut, Site: crashCity, CapacityMilli: 2000, Count: 2},
				{At: 30 * time.Hour, Kind: events.FaultForecastError, Zone: w.Dep.InRegion(cfg.Region)[0].ZoneID, Factor: 3, For: 100 * time.Hour},
			}}
		}),
	}
	// Snapshot points: the edges, inside the crash window (55), and after
	// the scale-out with the recover still ahead (100).
	snapPoints := []int{0, 1, 55, 100, 24 * 8}
	for name, cfg := range configs {
		name, cfg := name, cfg
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			var uninterrupted *Result
			var uerr error
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				uninterrupted, uerr = Run(cfg, w)
			}()
			interrupted := make([]*Result, len(snapPoints))
			for i, at := range snapPoints {
				i, at := i, at
				wg.Add(1)
				go func() {
					defer wg.Done()
					interrupted[i] = runInterrupted(t, cfg, w, at)
				}()
			}
			wg.Wait()
			if uerr != nil {
				t.Fatal(uerr)
			}
			want := encodeResult(t, uninterrupted)
			for i, at := range snapPoints {
				if got := encodeResult(t, interrupted[i]); !bytes.Equal(got, want) {
					t.Errorf("snapshot at epoch %d diverged from uninterrupted run:\nresumed:       %s\nuninterrupted: %s", at, got, want)
				}
			}
		})
	}
}

// TestCheckpointRestoreEveryEpoch takes the road a restart takes at
// every epoch boundary of the four checkpoint modes: the snapshot goes
// through checkpoint.Encode and Decode into NewEngineFrom, and the
// restored engine, run to the end, must reproduce the uninterrupted
// run's Result byte for byte. Each restored result, read through Finish,
// must conserve its placements (checkPlacementCounts), and some snapshot
// must be cut right after an epoch that placed, when the engine still
// holds that epoch's counts unfolded.
func TestCheckpointRestoreEveryEpoch(t *testing.T) {
	w := testWorld(t)
	for m, cfg := range checkpointModes(t, w) {
		m, cfg := m, cfg
		t.Run([]string{"classic", "redeploy", "traffic", "faults"}[m], func(t *testing.T) {
			t.Parallel()
			e, err := NewEngine(cfg, w)
			if err != nil {
				t.Fatal(err)
			}
			var envelopes [][]byte
			afterPlacing := 0
			for {
				if e.placedMonths != 0 {
					afterPlacing++
				}
				var buf bytes.Buffer
				if err := checkpoint.Encode(&buf, "engine", e.Snapshot()); err != nil {
					t.Fatal(err)
				}
				envelopes = append(envelopes, buf.Bytes())
				if e.Done() {
					break
				}
				if err := e.Step(); err != nil {
					t.Fatal(err)
				}
			}
			want := encodeResult(t, e.Finish())
			for at, env := range envelopes {
				var snap Snapshot
				if err := checkpoint.Decode(bytes.NewReader(env), "engine", &snap); err != nil {
					t.Fatal(err)
				}
				r, err := NewEngineFrom(cfg, w, &snap)
				if err != nil {
					t.Fatalf("epoch %d: %v", at, err)
				}
				if err := checkPlacementCounts(r.Finish()); err != nil {
					t.Fatalf("restored at epoch %d: %v", at, err)
				}
				for !r.Done() {
					if err := r.Step(); err != nil {
						t.Fatal(err)
					}
				}
				if got := encodeResult(t, r.Finish()); !bytes.Equal(got, want) {
					t.Fatalf("restored at epoch %d, diverged from the uninterrupted run:\nresumed:       %s\nuninterrupted: %s", at, got, want)
				}
			}
			if afterPlacing == 0 {
				t.Fatal("no snapshot was cut after an epoch that placed: the fold is never tested")
			}
		})
	}
}

// runFrom restores snap into cfg, runs the engine to the end, and
// returns the encoded result.
func runFrom(t *testing.T, cfg Config, w *World, snap *Snapshot) []byte {
	t.Helper()
	r, err := NewEngineFrom(cfg, w, snap)
	if err != nil {
		t.Fatal(err)
	}
	for !r.Done() {
		if err := r.Step(); err != nil {
			t.Fatal(err)
		}
	}
	return encodeResult(t, r.Finish())
}

// TestRestoreCountsDownServers: the crashed-server count is derived from
// the restored servers' down flags, so a snapshot cannot claim an outage
// its servers do not show. A faults-mode snapshot at epoch 5, with no
// server down, doctored to carry "down_count":1 (a key checkpoints once
// held and the restore trusted, charging 43 outage epochs instead of 10)
// must still run to the uninterrupted Result.
func TestRestoreCountsDownServers(t *testing.T) {
	w := testWorld(t)
	cfg := checkpointModes(t, w)[3]
	want, err := Run(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	for e.Epoch() < 5 {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := json.Marshal(e.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, []byte(`"down":true`)) {
		t.Fatal("fixture has a crashed server at epoch 5")
	}
	raw = bytes.Replace(raw, []byte(`{"config_sig":`), []byte(`{"down_count":1,"config_sig":`), 1)
	var snap Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	if got := runFrom(t, cfg, w, &snap); !bytes.Equal(got, encodeResult(t, want)) {
		t.Fatalf("restore trusted a stale down count:\nresumed:       %s\nuninterrupted: %s", got, encodeResult(t, want))
	}
}

// TestRestoresOlderCheckpoint: testdata/faults_epoch35.ckpt is the
// faults-mode envelope at epoch 35, one server down, written before
// snapshots dropped the app_seq, evict_seq and down_count keys it
// carries. It must still decode, restore and run to the uninterrupted
// Result.
func TestRestoresOlderCheckpoint(t *testing.T) {
	w := testWorld(t)
	cfg := checkpointModes(t, w)[3]
	want, err := Run(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	env, err := os.ReadFile(filepath.Join("testdata", "faults_epoch35.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"app_seq":`, `"evict_seq":`, `"down_count":`} {
		if !bytes.Contains(env, []byte(key)) {
			t.Fatalf("fixture lacks %s", key)
		}
	}
	var snap Snapshot
	if err := checkpoint.Decode(bytes.NewReader(env), "engine", &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Epoch != 35 {
		t.Fatalf("fixture at epoch %d, want 35", snap.Epoch)
	}
	if got := runFrom(t, cfg, w, &snap); !bytes.Equal(got, encodeResult(t, want)) {
		t.Fatalf("older checkpoint diverged:\nresumed:       %s\nuninterrupted: %s", got, encodeResult(t, want))
	}
}

// TestBlendConfigRestoresOwnSnapshot: the Eq. 8 blend caches its
// normalization ranges as it solves, and the config that stepped an
// engine must still restore that engine's snapshot and run on to the
// uninterrupted Result, while a different alpha is still refused.
func TestBlendConfigRestoresOwnSnapshot(t *testing.T) {
	w := testWorld(t)
	blend := func(alpha float64) Config {
		cfg := shortConfig(carbon.RegionEurope, placement.NewCarbonEnergyBlend(alpha))
		cfg.Hours = 48
		return cfg
	}
	want, err := Run(blend(0.5), w)
	if err != nil {
		t.Fatal(err)
	}
	cfg := blend(0.5)
	e, err := NewEngine(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	for e.Epoch() < 24 {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if fmt.Sprintf("%+v", cfg.Policy) == fmt.Sprintf("%+v", blend(0.5).Policy) {
		t.Fatal("the blend cached nothing in 24 epochs: the test is vacuous")
	}
	snap := e.Snapshot()
	if got := runFrom(t, cfg, w, snap); !bytes.Equal(got, encodeResult(t, want)) {
		t.Fatalf("restored blend run diverged:\nresumed:       %s\nuninterrupted: %s", got, encodeResult(t, want))
	}
	if _, err := NewEngineFrom(blend(0.6), w, snap); err == nil {
		t.Error("snapshot restored under a different alpha")
	}
}

func TestSnapshotRejectsMismatchedConfig(t *testing.T) {
	w := testWorld(t)
	cfg := shortConfig(carbon.RegionEurope, placement.CarbonAware{})
	cfg.Hours = 24
	e, err := NewEngine(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	snap := e.Snapshot()

	other := cfg
	other.Seed++
	if _, err := NewEngineFrom(other, w, snap); err == nil {
		t.Error("snapshot restored under a different seed")
	}
	other = cfg
	other.Policy = placement.LatencyAware{}
	if _, err := NewEngineFrom(other, w, snap); err == nil {
		t.Error("snapshot restored under a different policy")
	}
	if _, err := NewEngineFrom(cfg, w, nil); err == nil {
		t.Error("nil snapshot accepted")
	}
	bad := *snap
	bad.Epoch = cfg.Hours + 1
	if _, err := NewEngineFrom(cfg, w, &bad); err == nil {
		t.Error("snapshot with out-of-span epoch accepted")
	}
	// A live app's committed demand is re-derived from its profile on
	// restore: one its device has no profile for cannot have been placed.
	if len(snap.Live) == 0 {
		t.Fatal("no live app to doctor after 5 epochs")
	}
	bad = *snap
	bad.Live = append([]LiveAppSnap(nil), snap.Live...)
	bad.Live[0].Model = "no-such-model"
	if _, err := NewEngineFrom(cfg, w, &bad); err == nil {
		t.Error("snapshot with a live app of an unprofiled model accepted")
	}
}

// TestSnapshotRejectsBadSourceSite: a live app's source site is read
// back when it is redeployed or evicted, and a pending app's becomes the
// live app's when it is placed. Out of range, the restore used to
// succeed and the engine panicked later (a redeploying Europe run
// snapshotted at epoch 30 with every source site 999 died at epoch 48 in
// Engine.redeploy). A pending entry sourced away from its site's city,
// or evicted in a run with no fault script (whose placement then charged
// fault stats that do not exist), is rejected alongside.
func TestSnapshotRejectsBadSourceSite(t *testing.T) {
	w := testWorld(t)
	snapAt := func(cfg Config, epoch int) *Snapshot {
		e, err := NewEngine(cfg, w)
		if err != nil {
			t.Fatal(err)
		}
		for e.Epoch() < epoch {
			if err := e.Step(); err != nil {
				t.Fatal(err)
			}
		}
		return e.Snapshot()
	}
	redeploy := checkpointModes(t, w)[1]
	batched := shortConfig(carbon.RegionEurope, placement.CarbonAware{})
	batched.Hours, batched.BatchHours = 48, 6
	live, pending := snapAt(redeploy, 20), snapAt(batched, 3)
	if len(live.Live) == 0 || len(pending.Pending) == 0 {
		t.Fatalf("fixture has %d live and %d pending apps", len(live.Live), len(pending.Pending))
	}
	for _, tc := range []struct {
		name string
		cfg  Config
		base *Snapshot
		bad  func(*Snapshot)
	}{
		{"live src_site 999", redeploy, live, func(s *Snapshot) {
			for i := range s.Live {
				s.Live[i].SrcSite = 999
			}
		}},
		{"live src_site -1", redeploy, live, func(s *Snapshot) { s.Live[len(s.Live)-1].SrcSite = -1 }},
		{"pending src 999", batched, pending, func(s *Snapshot) { s.Pending[0].Src = 999 }},
		{"pending src -1", batched, pending, func(s *Snapshot) { s.Pending[0].Src = -1 }},
		{"pending sourced elsewhere", batched, pending, func(s *Snapshot) { s.Pending[0].Src = (s.Pending[0].Src + 1) % len(w.Dep.InRegion(batched.Region)) }},
		{"pending evicted without faults", batched, pending, func(s *Snapshot) { s.Pending[0].EvictedAt = 1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			raw, err := json.Marshal(tc.base)
			if err != nil {
				t.Fatal(err)
			}
			var snap Snapshot
			if err := json.Unmarshal(raw, &snap); err != nil {
				t.Fatal(err)
			}
			if _, err := NewEngineFrom(tc.cfg, w, &snap); err != nil {
				t.Fatalf("untouched snapshot rejected: %v", err)
			}
			tc.bad(&snap)
			if _, err := NewEngineFrom(tc.cfg, w, &snap); err == nil ||
				!strings.Contains(err.Error(), "pending app") && !strings.Contains(err.Error(), "source site") {
				t.Errorf("doctored snapshot restored (err=%v)", err)
			}
		})
	}
}

// TestRestoreRefusesUnphysicalSnapshot: a snapshot no run can produce
// used to restore, and the resumed run reported what its fields said (a
// live app drawing 1e300 W put 4.8e298 g of carbon on a 48 h Europe run's
// books). Each mutation of that run's epoch-20 snapshot must be refused:
// a live app's power or RTT off its class's cells, a hosting server whose
// used no longer sums its apps, and a backlog entry asking another rate
// than the config's.
func TestRestoreRefusesUnphysicalSnapshot(t *testing.T) {
	w := testWorld(t)
	cfg := checkpointModes(t, w)[0]
	e, err := NewEngine(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	for e.Epoch() < 20 {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := json.Marshal(e.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, want string
		bad        func(*Snapshot)
	}{
		{"live power_w 1e300", "not physical", func(s *Snapshot) { s.Live[0].PowerW = 1e300 }},
		{"hosting server used 0", "not physical", func(s *Snapshot) { s.Servers[s.Live[0].Srv].Used = cluster.Resources{} }},
		{"live rtt_ms -5", "not physical", func(s *Snapshot) { s.Live[0].RTTMs = -5 }},
		{"hosting server off", "not physical", func(s *Snapshot) { s.Servers[s.Live[0].Srv].On = false }},
		{"down server on", "not physical", func(s *Snapshot) {
			for j := range s.Servers {
				if s.Servers[j].Used == (cluster.Resources{}) {
					s.Servers[j].Down, s.Servers[j].On = true, true
					return
				}
			}
			t.Fatal("fixture has no empty server")
		}},
		{"capacity no degrade sets", "no degrade", func(s *Snapshot) { s.Servers[0].Cap = s.Servers[0].BaseCap.Scale(2) }},
		{"forecast skew -1", "not above 0", func(s *Snapshot) { s.FcErr = map[string]float64{"DE": -1} }},
		{"pending at 1000 req/s", "pending app", func(s *Snapshot) {
			site := w.Dep.InRegion(cfg.Region)[0]
			s.Pending = append(s.Pending, PendingSnap{
				App:     placement.App{ID: "q-0", Model: appModel, Source: site.City, SLOms: cfg.RTTLimitMs, RatePerSec: 1000},
				Expires: 30, EvictedAt: -1,
			})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var snap Snapshot
			if err := json.Unmarshal(raw, &snap); err != nil {
				t.Fatal(err)
			}
			if len(snap.Live) == 0 {
				t.Fatal("fixture has no live app")
			}
			if _, err := NewEngineFrom(cfg, w, &snap); err != nil {
				t.Fatalf("untouched snapshot rejected: %v", err)
			}
			tc.bad(&snap)
			if _, err := NewEngineFrom(cfg, w, &snap); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("doctored snapshot: err = %v, want one naming %q", err, tc.want)
			}
		})
	}
}

// TestCheckpointEncodeMatchesSealOracle: the engine envelope of every
// epoch of the classic, redeploy, traffic and faults runs is
// byte-identical to the reflection path's — the snapshot through
// json.Marshal, digested, and the Envelope through json.Encoder, which
// re-compacts the payload.
func TestCheckpointEncodeMatchesSealOracle(t *testing.T) {
	w := testWorld(t)
	var got, want bytes.Buffer
	for m, cfg := range checkpointModes(t, w) {
		e, err := NewEngine(cfg, w)
		if err != nil {
			t.Fatal(err)
		}
		for {
			snap := e.Snapshot()
			got.Reset()
			if err := checkpoint.Encode(&got, "engine", snap); err != nil {
				t.Fatal(err)
			}
			raw, err := json.Marshal(snap)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(raw)
			want.Reset()
			if err := json.NewEncoder(&want).Encode(&checkpoint.Envelope{
				Format: checkpoint.Format, Version: checkpoint.Version, Kind: "engine",
				SHA256: hex.EncodeToString(sum[:]), Payload: raw,
			}); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("mode %d epoch %d: envelope differs from the oracle", m, e.Epoch())
			}
			if e.Done() {
				break
			}
			if err := e.Step(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestRestoreRefusesUnconservedCounts doctors the placement counts of a
// 48 h Europe checkpoint, re-seals it and decodes it as a restore reads a
// file: every count list that does not conserve Placed, or names a city
// no site of the run is in, is refused by NewEngineFrom, and all but the
// last by ResultState.Restore too.
func TestRestoreRefusesUnconservedCounts(t *testing.T) {
	w := testWorld(t)
	cfg := checkpointModes(t, w)[0]
	e, err := NewEngine(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	for e.Epoch() < 20 {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	snap := e.Snapshot()
	if _, err := NewEngineFrom(cfg, w, snap); err != nil {
		t.Fatalf("untouched snapshot rejected: %v", err)
	}
	raw, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	type counts = map[string]any
	for _, tc := range []struct {
		name, want string
		bad        func(res, cities, months counts, city string)
	}{
		{"city -1000", "over their months", func(_, cities, _ counts, city string) { cities[city] = -1000 }},
		{"month -1, totals kept", "month label", func(_, _, months counts, city string) {
			months[city+"/1"] = months[city+"/0"].(float64) + 1
			months[city+"/0"] = -1
		}},
		{"month 12", "month label", func(_, _, months counts, city string) {
			months[city+"/12"], months[city+"/0"] = months[city+"/0"], nil
		}},
		{"month 01", "month label", func(_, _, months counts, city string) {
			months[city+"/01"], months[city+"/0"] = months[city+"/0"], nil
		}},
		{"no month", "month label", func(_, _, months counts, city string) {
			months[city], months[city+"/0"] = months[city+"/0"], nil
		}},
		{"month of an uncounted city", "over their months", func(_, _, months counts, city string) {
			months["Nowhere/0"], months[city+"/0"] = months[city+"/0"], nil
		}},
		{"city without its months", "over their months", func(res, cities, _ counts, city string) {
			cities[city] = cities[city].(float64) + 1
			res["placed"] = res["placed"].(float64) + 1
		}},
		{"placed off by one", "Placed is", func(res, _, _ counts, _ string) { res["placed"] = res["placed"].(float64) + 1 }},
		{"city of no site", "no site", func(res, cities, months counts, _ string) {
			cities["Atlantis"], months["Atlantis/0"] = 1, 1
			res["placed"] = res["placed"].(float64) + 1
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var doc map[string]any
			if err := json.Unmarshal(raw, &doc); err != nil {
				t.Fatal(err)
			}
			res := doc["result"].(map[string]any)
			cities, months := res["placements_by_city"].(map[string]any), res["monthly_placements"].(map[string]any)
			var city string
			for c := range cities {
				city = max(city, c)
			}
			if city == "" || months[city+"/0"] == nil {
				t.Fatalf("fixture counts no placement in month 0: %v %v", cities, months)
			}
			tc.bad(res, cities, months, city)
			for l, n := range months {
				if n == nil {
					delete(months, l)
				}
			}
			payload, err := json.Marshal(doc)
			if err != nil {
				t.Fatal(err)
			}
			var sealed bytes.Buffer
			if err := checkpoint.Encode(&sealed, "engine", json.RawMessage(payload)); err != nil {
				t.Fatal(err)
			}
			var snap Snapshot
			if err := checkpoint.Decode(&sealed, "engine", &snap); err != nil {
				t.Fatal(err)
			}
			if _, err := NewEngineFrom(cfg, w, &snap); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("NewEngineFrom: err = %v, want one naming %q", err, tc.want)
			}
			if _, err := snap.Result.Restore(); (err == nil) != (tc.want == "no site") {
				t.Errorf("Restore: err = %v", err)
			}
		})
	}
}

// TestRestoreRejectsDoctoredTrafficSketch takes the road a hostile
// checkpoint travels: an engine envelope is decoded, its traffic latency
// sketch doctored, the envelope re-sealed (so the digest is good) and
// decoded again into NewEngineFrom. Every doctored accumulator must come
// back as an error — an oversized num_buckets used to panic in make, and
// the router's pair memo hands bucket indices to that sketch unchecked.
func TestRestoreRejectsDoctoredTrafficSketch(t *testing.T) {
	w := testWorld(t)
	cfg := trafficConfig(carbon.RegionEurope, traffic.Steady, 300)
	cfg.Hours = 24
	e, err := NewEngine(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	var sealed bytes.Buffer
	if err := checkpoint.Encode(&sealed, "engine", e.Snapshot()); err != nil {
		t.Fatal(err)
	}
	restore := func(doctor func(*metrics.SketchState)) error {
		var snap Snapshot
		if err := checkpoint.Decode(bytes.NewReader(sealed.Bytes()), "engine", &snap); err != nil {
			t.Fatal(err)
		}
		doctor(&snap.Result.Traffic.Latency)
		var resealed bytes.Buffer
		if err := checkpoint.Encode(&resealed, "engine", &snap); err != nil {
			t.Fatal(err)
		}
		var hostile Snapshot
		if err := checkpoint.Decode(&resealed, "engine", &hostile); err != nil {
			t.Fatal(err)
		}
		_, err := NewEngineFrom(cfg, w, &hostile)
		return err
	}
	if err := restore(func(*metrics.SketchState) {}); err != nil {
		t.Fatalf("untouched envelope rejected: %v", err)
	}
	for name, doctor := range map[string]func(*metrics.SketchState){
		"num_buckets 1<<62":  func(st *metrics.SketchState) { st.NumBkts = 1 << 62 },
		"count above total":  func(st *metrics.SketchState) { st.Count += 1000 },
		"bucket added":       func(st *metrics.SketchState) { st.Buckets[0] += 7 },
		"min above max":      func(st *metrics.SketchState) { st.Min = st.Max + 1 },
		"coarser resolution": func(st *metrics.SketchState) { st.NumBkts = len(st.Buckets) - 1 },
	} {
		if err := restore(doctor); err == nil {
			t.Errorf("%s: doctored traffic sketch restored", name)
		}
	}
}

func TestSnapshotSharesNoMutableState(t *testing.T) {
	// Stepping the engine after Snapshot must not mutate the snapshot:
	// checkpoints are often held in memory while the run continues.
	w := testWorld(t)
	cfg := shortConfig(carbon.RegionEurope, placement.CarbonAware{})
	cfg.Hours = 48
	e, err := NewEngine(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	snap := e.Snapshot()
	before, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	for !e.Done() {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	after, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Error("snapshot mutated by continued stepping")
	}
}

func TestRestoredResultMatchesDeepEqual(t *testing.T) {
	// Beyond byte-identical encodings, the restored accumulator itself
	// must equal the uninterrupted one structurally (counters, summaries,
	// monthly breakdowns).
	w := testWorld(t)
	cfg := shortConfig(carbon.RegionEurope, placement.CarbonAware{})
	cfg.Hours = 24 * 5
	uninterrupted, err := Run(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	resumed := runInterrupted(t, cfg, w, 61)
	if !reflect.DeepEqual(stripClock(uninterrupted), stripClock(resumed)) {
		t.Errorf("resumed result differs structurally:\nresumed:       %+v\nuninterrupted: %+v",
			stripClock(resumed), stripClock(uninterrupted))
	}
}
