package sim

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/carbon"
	"repro/internal/placement"
)

// stripClock zeroes wall-clock telemetry so results can be compared
// bit-for-bit.
func stripClock(r *Result) *Result {
	c := *r
	c.SolveTime = 0
	return &c
}

func TestEngineMatchesRun(t *testing.T) {
	// Stepping an Engine by hand must produce the same result as Run —
	// Run is only a loop over Step.
	w := testWorld(t)
	cfg := shortConfig(carbon.RegionEurope, placement.CarbonAware{})
	cfg.Hours = 24 * 7
	viaRun, err := Run(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	for !e.Done() {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
		steps++
	}
	if steps != cfg.Hours {
		t.Errorf("stepped %d epochs, want %d", steps, cfg.Hours)
	}
	if !reflect.DeepEqual(stripClock(viaRun), stripClock(e.Finish())) {
		t.Errorf("engine result diverged from Run:\nrun:    %+v\nengine: %+v", viaRun, e.Finish())
	}
}

// TestEngineObserverOrdering observes the engine from outside after
// every Step: epochs advance one at a time and cumulative carbon, read
// through Finish, never falls.
func TestEngineObserverOrdering(t *testing.T) {
	w := testWorld(t)
	cfg := shortConfig(carbon.RegionEurope, placement.CarbonAware{})
	cfg.Hours = 48
	e, err := NewEngine(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	var lastCarbon float64
	for epoch := 0; !e.Done(); epoch++ {
		if got := e.Epoch(); got != epoch {
			t.Fatalf("before step %d the engine is at epoch %d", epoch, got)
		}
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
		res := e.Finish()
		if res.CarbonG < lastCarbon {
			t.Errorf("epoch %d: cumulative carbon decreased %v -> %v", epoch, lastCarbon, res.CarbonG)
		}
		lastCarbon = res.CarbonG
	}
	if e.Epoch() != cfg.Hours {
		t.Fatalf("stepped %d epochs, want %d", e.Epoch(), cfg.Hours)
	}
}

func TestEngineStepPastEnd(t *testing.T) {
	w := testWorld(t)
	cfg := shortConfig(carbon.RegionEurope, placement.CarbonAware{})
	cfg.Hours = 2
	e, err := NewEngine(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	for !e.Done() {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Step(); err == nil {
		t.Error("Step past the configured span succeeded")
	}
	if e.Epoch() != cfg.Hours {
		t.Errorf("Epoch() = %d after completion, want %d", e.Epoch(), cfg.Hours)
	}
}

func TestEngineMidRunFinishIsPartial(t *testing.T) {
	w := testWorld(t)
	cfg := shortConfig(carbon.RegionEurope, placement.CarbonAware{})
	cfg.Hours = 24 * 4
	e, err := NewEngine(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 24; i++ {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	partial := e.Finish().CarbonG
	for !e.Done() {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if final := e.Finish().CarbonG; final <= partial {
		t.Errorf("carbon did not grow after the partial read: %v -> %v", partial, final)
	}
}

func TestConcurrentEnginesSharedWorldDeterministic(t *testing.T) {
	// Many engines over one shared World, on concurrent goroutines, must
	// reproduce the serial results bit-for-bit (modulo solver wall
	// clock). Run with -race this doubles as the world-immutability
	// check.
	w := testWorld(t)
	configs := []Config{}
	for _, region := range []carbon.Region{carbon.RegionUS, carbon.RegionEurope} {
		for _, seed := range []int64{3, 11, 27} {
			cfg := shortConfig(region, placement.CarbonAware{})
			cfg.Hours = 24 * 4
			cfg.Seed = seed
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
			t.Errorf("config %d: parallel result diverged from serial:\nserial:   %+v\nparallel: %+v",
				i, serial[i], parallel[i])
		}
	}
}
