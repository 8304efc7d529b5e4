package sim

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/carbon"
	"repro/internal/placement"
	"repro/internal/router"
	"repro/internal/traffic"
)

// trafficConfig is a short traffic-driven run at moderate load.
func trafficConfig(region carbon.Region, scn traffic.Scenario, rps float64) Config {
	cfg := shortConfig(region, placement.CarbonAware{})
	cfg.Hours = 24 * 7
	cfg.Traffic = &traffic.Config{Scenario: scn, RPS: rps}
	return cfg
}

func TestTrafficModeBasics(t *testing.T) {
	w := testWorld(t)
	res, err := Run(trafficConfig(carbon.RegionEurope, traffic.Diurnal, 300), w)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Traffic
	if st == nil {
		t.Fatal("traffic mode produced no request telemetry")
	}
	if st.Requests == 0 || st.SLOMet == 0 {
		t.Fatalf("requests=%d slo_met=%d, want traffic served", st.Requests, st.SLOMet)
	}
	if st.SLOMet+st.Spilled > st.Requests {
		t.Errorf("served %d exceeds offered %d", st.SLOMet+st.Spilled, st.Requests)
	}
	if st.Latency.Count() == 0 {
		t.Error("no latency samples recorded")
	}
	if st.CarbonG <= 0 || st.EnergyKWh <= 0 {
		t.Errorf("no per-request attribution: carbon=%v energy=%v", st.CarbonG, st.EnergyKWh)
	}
	// Request energy/carbon must be folded into the run totals.
	if res.CarbonG < st.CarbonG || res.EnergyKWh < st.EnergyKWh {
		t.Errorf("run totals (%.2f g, %.4f kWh) below traffic totals (%.2f g, %.4f kWh)",
			res.CarbonG, res.EnergyKWh, st.CarbonG, st.EnergyKWh)
	}
	if len(st.ByReplica.Labels()) == 0 {
		t.Error("no per-replica request counts")
	}
}

func TestClassicModeHasNoTrafficTelemetry(t *testing.T) {
	w := testWorld(t)
	cfg := shortConfig(carbon.RegionEurope, placement.CarbonAware{})
	cfg.Hours = 48
	res, err := Run(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if res.Traffic != nil {
		t.Error("classic epoch mode grew traffic telemetry")
	}
}

func TestTrafficOverloadSignals(t *testing.T) {
	w := testWorld(t)
	// Demand far beyond the replicas' provisioned capacity: the first
	// hours have almost no live apps, so drops and overload slices are
	// guaranteed, and spill-over engages once replicas exist.
	cfg := trafficConfig(carbon.RegionEurope, traffic.FlashCrowd, 5000)
	cfg.Hours = 24 * 3
	res, err := Run(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Traffic
	if st.Dropped == 0 || st.OverloadSlices == 0 {
		t.Errorf("overload not signalled: dropped=%d overload_slices=%d", st.Dropped, st.OverloadSlices)
	}
	if st.SLOAttainment() >= 1 {
		t.Error("saturated run reports perfect SLO attainment")
	}
}

func TestTrafficScenarioChangesOutcome(t *testing.T) {
	w := testWorld(t)
	diurnal, err := Run(trafficConfig(carbon.RegionEurope, traffic.Diurnal, 300), w)
	if err != nil {
		t.Fatal(err)
	}
	flash, err := Run(trafficConfig(carbon.RegionEurope, traffic.FlashCrowd, 300), w)
	if err != nil {
		t.Fatal(err)
	}
	// The flash crowd is the diurnal shape plus bursts: it must offer
	// more requests and degrade service quality per offered request.
	if flash.Traffic.Requests <= diurnal.Traffic.Requests {
		t.Errorf("flash crowd offered %d requests, diurnal %d; bursts should add demand",
			flash.Traffic.Requests, diurnal.Traffic.Requests)
	}
	degraded := func(st *router.Stats) float64 {
		return float64(st.Spilled+st.Dropped) / float64(st.Requests)
	}
	if degraded(flash.Traffic) <= degraded(diurnal.Traffic) {
		t.Errorf("flash crowd degradation %.4f not above diurnal %.4f",
			degraded(flash.Traffic), degraded(diurnal.Traffic))
	}
}

func TestTrafficSLOCoversSlowestDevice(t *testing.T) {
	// On a heterogeneous pool the routing SLO must cover the slowest
	// (model, device) service time, not just the first device's, so
	// slow-device replicas are not misclassified as SLO-violating.
	w := testWorld(t)
	cfg := trafficConfig(carbon.RegionEurope, traffic.Steady, 100)
	cfg.Devices = []string{"GTX 1080", "Orin Nano"} // 3.8 ms vs 14 ms ResNet50
	e, err := NewEngine(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if want := cfg.RTTLimitMs + 14; e.sloMs != want {
		t.Errorf("traffic SLO %.1f ms, want %.1f (RTT limit + slowest service time)", e.sloMs, want)
	}
}

func TestTrafficModeCollectsLoadCI(t *testing.T) {
	// CollectLoadCI keeps its per-app-hour sampling semantics in the
	// traffic-driven mode.
	w := testWorld(t)
	cfg := trafficConfig(carbon.RegionEurope, traffic.Steady, 100)
	cfg.Hours = 48
	cfg.CollectLoadCI = true
	res, err := Run(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.LoadCI) == 0 {
		t.Fatal("traffic mode dropped LoadCI samples")
	}
}

func TestTrafficReplayDeterministicParallel(t *testing.T) {
	// Serial and concurrent traffic-driven runs over one shared world
	// must be bit-identical (run under -race in CI: this is also the
	// world-immutability check for the traffic path).
	w := testWorld(t)
	var configs []Config
	for _, region := range []carbon.Region{carbon.RegionUS, carbon.RegionEurope} {
		for _, scn := range []traffic.Scenario{traffic.Steady, traffic.Diurnal, traffic.FlashCrowd} {
			cfg := trafficConfig(region, scn, 400)
			cfg.Hours = 24 * 4
			configs = append(configs, cfg)
		}
	}
	serial := make([]*Result, len(configs))
	for i, cfg := range configs {
		r, err := Run(cfg, w)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = r
	}
	parallel := make([]*Result, len(configs))
	errs := make([]error, len(configs))
	var wg sync.WaitGroup
	for i, cfg := range configs {
		wg.Add(1)
		go func(i int, cfg Config) {
			defer wg.Done()
			parallel[i], errs[i] = Run(cfg, w)
		}(i, cfg)
	}
	wg.Wait()
	for i := range configs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(stripClock(serial[i]), stripClock(parallel[i])) {
			t.Errorf("config %d: parallel traffic replay diverged from serial", i)
		}
	}
}

// TestInjectedDropsAreNotRespilled: requests injected from a neighbor
// shard that the engine cannot absorb are dropped, but TrafficDropped —
// the count the shard coordinator turns into spill — leaves them out, so
// spilled volume moves one hop. A restore keeps the split, and an engine
// that was never fed encodes no count.
func TestInjectedDropsAreNotRespilled(t *testing.T) {
	w := testWorld(t)
	cfg := trafficConfig(carbon.RegionEurope, traffic.Steady, 300)
	cfg.Hours = 12
	plain, err := NewEngine(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	fed, err := NewEngine(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	const flood = 1 << 40
	for epoch := 0; epoch < cfg.Hours; epoch++ {
		if epoch%3 == 1 {
			if err := fed.InjectRequests(epoch, flood); err != nil {
				t.Fatal(err)
			}
		}
		if err := plain.Step(); err != nil {
			t.Fatal(err)
		}
		if err := fed.Step(); err != nil {
			t.Fatal(err)
		}
		if got, want := fed.TrafficDropped(), plain.TrafficDropped(); got != want {
			t.Fatalf("epoch %d: TrafficDropped %d with injected volume, %d without", epoch, got, want)
		}
	}
	if extra := fed.Finish().Traffic.Dropped - plain.Finish().Traffic.Dropped; extra < flood {
		t.Fatalf("the engine dropped only %d more requests when flooded: the test is vacuous", extra)
	}

	snap := fed.Snapshot()
	restored, err := NewEngineFrom(cfg, w, snap)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := restored.TrafficDropped(), fed.TrafficDropped(); got != want {
		t.Errorf("restored TrafficDropped %d, want %d", got, want)
	}
	snap.InDropped = -1
	if _, err := NewEngineFrom(cfg, w, snap); err == nil {
		t.Error("restored a negative count of dropped injected requests")
	}
	b, err := plain.Snapshot().AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), "inbox_dropped") {
		t.Error("a snapshot of an engine never fed carries an inbox_dropped key")
	}
}
