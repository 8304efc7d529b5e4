package sweep

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/carbon"
	"repro/internal/placement"
	"repro/internal/sim"
)

func TestMapOrderAndValues(t *testing.T) {
	for _, parallel := range []int{0, 1, 2, 7, 100} {
		out, err := Map(parallel, 25, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 25 {
			t.Fatalf("parallel=%d: %d results", parallel, len(out))
		}
		for i, v := range out {
			if v != i*i {
				t.Errorf("parallel=%d: out[%d] = %d, want %d", parallel, i, v, i*i)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	out, err := Map[int](4, 0, func(i int) (int, error) { return 0, nil })
	if err != nil || out != nil {
		t.Errorf("empty map = %v, %v", out, err)
	}
}

func TestMapError(t *testing.T) {
	wantErr := fmt.Errorf("boom at 3")
	for _, parallel := range []int{1, 4} {
		_, err := Map(parallel, 10, func(i int) (int, error) {
			if i == 3 {
				return 0, wantErr
			}
			return i, nil
		})
		if err == nil {
			t.Fatalf("parallel=%d: error swallowed", parallel)
		}
	}
}

func TestMapStopsSchedulingAfterError(t *testing.T) {
	// With a single worker, nothing past the failing index may run.
	var ran atomic.Int64
	_, err := Map(1, 100, func(i int) (int, error) {
		ran.Add(1)
		if i == 5 {
			return 0, fmt.Errorf("stop")
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("no error")
	}
	if n := ran.Load(); n > 6 {
		t.Errorf("%d calls ran after the failure at index 5", n)
	}
}

var (
	worldOnce sync.Once
	world     *sim.World
	worldErr  error
)

func testWorld(t *testing.T) *sim.World {
	t.Helper()
	worldOnce.Do(func() { world, worldErr = sim.NewWorld(42) })
	if worldErr != nil {
		t.Fatal(worldErr)
	}
	return world
}

// testGrid declares a small mixed grid: two regions, two policies, two
// seeds — eight runs against one shared world.
func testGrid(w *sim.World, parallel int) *Grid {
	g := &Grid{World: w, Parallel: parallel}
	for _, region := range []carbon.Region{carbon.RegionUS, carbon.RegionEurope} {
		for _, pol := range []placement.Policy{placement.CarbonAware{}, placement.LatencyAware{}} {
			for _, seed := range []int64{1, 7} {
				cfg := sim.DefaultConfig(region, pol)
				cfg.Hours = 24 * 5
				cfg.Seed = seed
				cfg.ArrivalsPerHour = 3
				g.Add(fmt.Sprintf("%s/%s/seed=%d", region, pol.Name(), seed), cfg)
			}
		}
	}
	return g
}

// normalize strips wall-clock telemetry, which legitimately varies
// between executions; everything else must be bit-identical.
func normalize(rs []*sim.Result) []*sim.Result {
	out := make([]*sim.Result, len(rs))
	for i, r := range rs {
		c := *r
		c.SolveTime = 0
		out[i] = &c
	}
	return out
}

func TestGridDeterministicAcrossParallelism(t *testing.T) {
	// The same declared grid must produce identical results (modulo
	// solver wall-clock) regardless of worker count: each run owns its
	// RNG and the world is immutable. Run under -race this also
	// exercises concurrent engines on one shared World.
	w := testWorld(t)
	serial, err := testGrid(w, 1).Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, parallel := range []int{2, 4} {
		par, err := testGrid(w, parallel).Run()
		if err != nil {
			t.Fatal(err)
		}
		if len(par) != len(serial) {
			t.Fatalf("parallel=%d: %d results, want %d", parallel, len(par), len(serial))
		}
		ns, np := normalize(serial), normalize(par)
		for i := range ns {
			if !reflect.DeepEqual(ns[i], np[i]) {
				t.Errorf("parallel=%d: point %d diverged from serial run:\nserial:   %+v\nparallel: %+v",
					parallel, i, ns[i], np[i])
			}
		}
	}
}

func TestGridRunMap(t *testing.T) {
	w := testWorld(t)
	g := &Grid{World: w, Parallel: 2}
	cfg := sim.DefaultConfig(carbon.RegionEurope, placement.CarbonAware{})
	cfg.Hours = 24 * 2
	g.Add("a", cfg)
	cfg.Seed = 7
	g.Add("b", cfg)
	m, err := g.RunMap()
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 2 || m["a"] == nil || m["b"] == nil {
		t.Fatalf("RunMap = %v", m)
	}
	if m["a"].Placed == 0 && m["b"].Placed == 0 {
		t.Error("nothing placed in either run")
	}
}

func TestGridRunMapDuplicateKey(t *testing.T) {
	w := testWorld(t)
	g := &Grid{World: w, Parallel: 1}
	cfg := sim.DefaultConfig(carbon.RegionEurope, placement.CarbonAware{})
	cfg.Hours = 24
	g.Add("dup", cfg)
	g.Add("dup", cfg)
	if _, err := g.RunMap(); err == nil {
		t.Error("duplicate key accepted")
	}
}

func TestGridTraceAggregates(t *testing.T) {
	// With Trace set, every point runs traced and the per-point tracers
	// merge into the shared aggregate: phase call counts sum across the
	// grid. Results must stay identical to an untraced run.
	w := testWorld(t)
	cfg := sim.DefaultConfig(carbon.RegionEurope, placement.CarbonAware{})
	cfg.Hours = 24 * 2

	plain := &Grid{World: w, Parallel: 2}
	plain.Add("a", cfg)
	plain.Add("b", cfg)
	want, err := plain.Run()
	if err != nil {
		t.Fatal(err)
	}

	traced := &Grid{World: w, Parallel: 2, Trace: sim.NewPhaseTracer()}
	traced.Add("a", cfg)
	traced.Add("b", cfg)
	got, err := traced.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if want[i].CarbonG != got[i].CarbonG || want[i].Placed != got[i].Placed {
			t.Errorf("point %d diverged under tracing", i)
		}
	}
	for _, ps := range traced.Trace.Report() {
		switch ps.Name {
		case "carbon-tick", "departures", "arrivals", "placement", "accrual":
			if ps.Calls != int64(2*cfg.Hours) {
				t.Errorf("phase %s aggregated %d calls, want %d", ps.Name, ps.Calls, 2*cfg.Hours)
			}
		}
	}
}
