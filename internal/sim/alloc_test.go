package sim

import (
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/carbon"
	"repro/internal/events"
	"repro/internal/placement"
	"repro/internal/traffic"
)

// allocWorld is testWorld for testing.TB (benchmarks included).
func allocWorld(tb testing.TB) *World {
	tb.Helper()
	worldOnce.Do(func() { world, worldErr = NewWorld(42) })
	if worldErr != nil {
		tb.Fatal(worldErr)
	}
	return world
}

// allocModes are the engine modes under the steady-state allocation
// budget. The fault script fires (and recovers) during warmup: fault
// events themselves may allocate — they are world changes, not steady
// state — but the epochs after recovery must be as quiet as a fault-free
// run's. The two redeploy modes re-place every live app every 6 h, cold
// and warm-seeded. The cdn mode is the paper's CDN shape as the ledger's
// cdn_year runs it (US, 6 arrivals/h, 24 h lifetimes, servers always
// on): its live table turns over as a prefix every epoch.
func allocModes(rps float64) map[string]Config {
	classic := DefaultConfig(carbon.RegionEurope, placement.CarbonAware{})
	classic.Hours = 24 * 14
	classic.ArrivalsPerHour = 4

	trafficCfg := classic
	trafficCfg.Traffic = &traffic.Config{Scenario: traffic.Diurnal, RPS: rps}

	faults := trafficCfg
	faults.Faults = &events.FaultScript{Faults: []events.Fault{
		{At: 24 * time.Hour, Kind: events.FaultCrash, Site: "London", For: 12 * time.Hour},
	}}

	redeploy := classic
	redeploy.RedeployEveryHours = 6
	redeployWarm := redeploy
	redeployWarm.WarmRedeploy = true

	cdn := DefaultConfig(carbon.RegionUS, placement.CarbonAware{})
	cdn.Hours = 24 * 14

	return map[string]Config{"classic": classic, "traffic": trafficCfg, "faults": faults,
		"redeploy": redeploy, "redeploy-warm": redeployWarm, "cdn": cdn}
}

// finalState runs an engine to completion and exports its result with
// the wall-clock solve time zeroed (the only non-deterministic field).
func finalState(e *Engine) (ResultState, error) {
	for !e.Done() {
		if err := e.Step(); err != nil {
			return ResultState{}, err
		}
	}
	st := e.Finish().State()
	st.SolveTimeNs = 0
	return st, nil
}

// epochAllocs warms the engine, then reports the average heap allocations
// and allocated bytes per Step over runs further epochs, measured as
// testing.AllocsPerRun measures (one more Step first, GOMAXPROCS 1).
func epochAllocs(tb testing.TB, cfg Config, warm, runs int) (allocs, bytes float64) {
	tb.Helper()
	if warm+runs+1 > cfg.Hours {
		tb.Fatalf("config spans %d epochs, need %d", cfg.Hours, warm+runs+1)
	}
	e, err := NewEngine(cfg, allocWorld(tb))
	if err != nil {
		tb.Fatal(err)
	}
	step := func() {
		if err := e.Step(); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < warm; i++ {
		step()
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	step()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		step()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// Steady-state budgets per epoch: allocation count and allocated bytes.
// The count alone misses a large allocation made every few dozen
// epochs, such as a live table that reallocates as it refills after its
// departures were resliced off its head (1.0 to 1.2 KB per epoch in
// these modes); the byte bound catches it.
const (
	epochAllocBudget = 2.0
	epochByteBudget  = 512.0
)

// TestEpochAllocBudget is the CI allocation gate: after warmup, the epoch
// hot loop must run allocation-free up to a small amortized remainder
// (live-pool growth reallocations, bounded-cardinality telemetry keys),
// in count and in bytes.
func TestEpochAllocBudget(t *testing.T) {
	for name, cfg := range allocModes(300) {
		t.Run(name, func(t *testing.T) {
			allocs, bytes := epochAllocs(t, cfg, 24*3, 24*9)
			if allocs > epochAllocBudget {
				t.Errorf("steady-state allocations per epoch = %.2f, budget %.1f", allocs, epochAllocBudget)
			}
			if bytes > epochByteBudget {
				t.Errorf("steady-state bytes allocated per epoch = %.0f, budget %.0f", bytes, epochByteBudget)
			}
			t.Logf("%.2f allocs, %.0f B per epoch", allocs, bytes)
		})
	}
}

// BenchmarkEpochAllocs reports per-epoch wall time and allocations for
// each mode (README "Performance" quotes them).
func BenchmarkEpochAllocs(b *testing.B) {
	for name, cfg := range allocModes(300) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			cfg := cfg
			cfg.Hours = 24*3 + b.N
			e, err := NewEngine(cfg, allocWorld(b))
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < 24*3; i++ {
				if err := e.Step(); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := e.Step(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestArenaReuseNoLeak locks in two properties of the arena-backed state:
// (1) reusing the engine's scratch across epochs never bleeds state
// between runs — two engines stepped in lockstep from the same config
// stay byte-identical even when one is driven concurrently with other
// engines (run with -race to exercise sharing bugs); (2) a restored
// engine shares no mutable buffers with its donor — stepping the donor
// further must not perturb the restored engine's trajectory.
func TestArenaReuseNoLeak(t *testing.T) {
	w := allocWorld(t)
	cfg := allocModes(300)["traffic"]
	cfg.Hours = 24 * 6

	// Reference trajectory: a solo engine run to completion.
	ref, err := NewEngine(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	want, err := finalState(ref)
	if err != nil {
		t.Fatal(err)
	}

	// Three engines over the same shared world, stepped concurrently:
	// engine-owned arenas must keep them independent.
	var wg sync.WaitGroup
	results := make([]ResultState, 3)
	errs := make([]error, 3)
	for k := range results {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			e, err := NewEngine(cfg, w)
			if err != nil {
				errs[k] = err
				return
			}
			results[k], errs[k] = finalState(e)
		}(k)
	}
	wg.Wait()
	for k := range results {
		if errs[k] != nil {
			t.Fatal(errs[k])
		}
		if !reflect.DeepEqual(results[k], want) {
			t.Fatalf("concurrent engine %d diverged from solo run", k)
		}
	}

	// Snapshot/restore independence: step the donor past the snapshot,
	// then run the restored engine — donor activity in its reused arenas
	// must not reach the restored engine's state.
	donor, err := NewEngine(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	for donor.Epoch() < cfg.Hours/2 {
		if err := donor.Step(); err != nil {
			t.Fatal(err)
		}
	}
	snap := donor.Snapshot()
	restored, err := NewEngineFrom(cfg, w, snap)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 24 && !donor.Done(); i++ { // donor keeps churning its arenas
		if err := donor.Step(); err != nil {
			t.Fatal(err)
		}
	}
	got, err := finalState(restored)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("restored engine diverged: donor stepping after Snapshot leaked shared state")
	}
}
