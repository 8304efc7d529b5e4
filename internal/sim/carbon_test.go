package sim

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/carbon"
	"repro/internal/cluster"
	"repro/internal/energy"
	"repro/internal/events"
	"repro/internal/fleet"
	"repro/internal/placement"
	"repro/internal/timeseries"
)

// freshTraces regenerates the trace set of testWorld's seed over zones:
// the generator is a pure function of the seed and each zone's ID, so
// every zone's trace equals the shared world's, and a test may edit the
// copies in place.
func freshTraces(t *testing.T, zones []*carbon.Zone) *carbon.TraceSet {
	t.Helper()
	reg, err := carbon.NewRegistry(zones)
	if err != nil {
		t.Fatal(err)
	}
	return carbon.NewGenerator(42).GenerateTraces(reg)
}

// traceWorld returns a copy of w whose trace set holds every zone's trace
// except the one named, which edit replaces (a nil result drops the zone).
func traceWorld(t *testing.T, w *World, zone string, edit func(full *timeseries.Series) *timeseries.Series) *World {
	zones := w.Zones.Zones()
	edited := edit(w.Traces.Trace(zone))
	if edited == nil {
		zones = slices.DeleteFunc(slices.Clone(zones), func(z *carbon.Zone) bool { return z.ID == zone })
	}
	ts := freshTraces(t, zones)
	if edited != nil {
		*ts.Trace(zone) = *edited
	}
	cp := *w
	cp.Traces = ts
	return &cp
}

// startedAt returns a copy of w whose trace set starts h hours later
// while every zone keeps its own trace: a run over it begins h hours
// into the trace year, so epoch 0 reads each zone's trace at index h.
func startedAt(w *World, h int) *World {
	ts := *w.Traces
	ts.Start = ts.Start.Add(time.Duration(h) * time.Hour)
	cp := *w
	cp.Traces = &ts
	return &cp
}

// shifted keeps a zone's trace from hour from onward: the zone's trace
// then starts later than every other zone's.
func shifted(from, to int) func(*timeseries.Series) *timeseries.Series {
	return func(full *timeseries.Series) *timeseries.Series {
		tr, err := full.Slice(from, to)
		if err != nil {
			panic(err)
		}
		return tr
	}
}

// lastZone is the zone of the region's last site: not the zone of site 0,
// the only zone Step once checked the trace span of.
func lastZone(t *testing.T, w *World, region carbon.Region) string {
	t.Helper()
	sites := w.Dep.InRegion(region)
	z := sites[len(sites)-1].ZoneID
	if z == sites[0].ZoneID {
		t.Fatalf("region %v: first and last site share zone %s", region, z)
	}
	return z
}

// TestZoneSignalMatchesService is the differential oracle for the
// engine's carbon read path: after every epoch, every zone slot's
// intensity, and after every epoch that solved, its mean forecast and the
// forecast intensity of each of its servers in the placement workspace,
// are bit-identical to what carbon.Service answers for the epoch's instant
// by zone ID — the path the engine used to take on every read. The
// forecast-error fault's factor is derived from the script, not read back
// from the engine.
func TestZoneSignalMatchesService(t *testing.T) {
	w := testWorld(t)
	region := carbon.RegionEurope
	late := lastZone(t, w, region)
	skewed := w.Dep.InRegion(region)[0].ZoneID
	const skewAt, skewFor, skew = 30, 40, 2.5

	cases := map[string]struct {
		cfg func(*Config)
		w   *World
	}{
		"seasonal-naive": {cfg: func(c *Config) {}},
		"start-hour":     {cfg: func(c *Config) {}, w: startedAt(w, 24*90+7)},
		"ewma":           {cfg: func(c *Config) { c.Forecaster = carbon.EWMA{Alpha: 0.3} }, w: startedAt(w, 50)},
		"oracle":         {cfg: func(c *Config) { c.Forecaster = carbon.Oracle{} }, w: startedAt(w, 11)},
		"forecast-error": {cfg: func(c *Config) {
			c.Faults = &events.FaultScript{Faults: []events.Fault{
				{At: skewAt * time.Hour, Kind: events.FaultForecastError, Zone: skewed, Factor: skew, For: skewFor * time.Hour},
			}}
		}},
		// The late zone's trace starts 3 h after the others', so its trace
		// index runs 3 behind every other slot's.
		"late-trace": {
			cfg: func(c *Config) {},
			w:   startedAt(traceWorld(t, w, late, shifted(3, w.Traces.Hours)), 5),
		},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			cw := w
			if tc.w != nil {
				cw = tc.w
			}
			cfg := shortConfig(region, placement.CarbonAware{})
			cfg.Hours = 24 * 4
			tc.cfg(&cfg)
			fc := cfg.Forecaster
			if fc == nil {
				fc = carbon.SeasonalNaive{Period: 24}
			}
			svc := carbon.NewService(cw.Traces, fc)
			e, err := NewEngine(cfg, cw)
			if err != nil {
				t.Fatal(err)
			}
			solved := 0
			for !e.Done() {
				epoch := e.Epoch()
				now := e.start.Add(time.Duration(epoch) * time.Hour)
				if err := e.Step(); err != nil {
					t.Fatal(err)
				}
				if !e.fcStale {
					solved++
				}
				for zone, slot := range e.zoneSlot {
					wantCI, err := svc.Current(zone, now)
					if err != nil {
						t.Fatal(err)
					}
					wantFC, err := svc.MeanForecast(zone, now, fleet.ForecastHours)
					if err != nil {
						t.Fatal(err)
					}
					if cfg.Faults != nil && zone == skewed && epoch >= skewAt && epoch < skewAt+skewFor {
						wantFC *= skew
					}
					if got := e.zones[slot].ci; math.Float64bits(got) != math.Float64bits(wantCI) {
						t.Fatalf("epoch %d zone %s: intensity %v, service %v", epoch, zone, got, wantCI)
					}
					if e.fcStale {
						continue // no solve this epoch: no forecast computed
					}
					if got := e.zones[slot].fc; math.Float64bits(got) != math.Float64bits(wantFC) {
						t.Fatalf("epoch %d zone %s: forecast %v, service %v", epoch, zone, got, wantFC)
					}
					for j := range e.servers {
						if e.zoneSlotOfSite[e.servers[j].site] != slot {
							continue
						}
						if got := e.ws.Server(j).Intensity; math.Float64bits(got) != math.Float64bits(wantFC) {
							t.Fatalf("epoch %d zone %s: server %d's workspace intensity %v, service %v", epoch, zone, j, got, wantFC)
						}
					}
				}
			}
			if solved < cfg.Hours*3/4 {
				t.Fatalf("%d of %d epochs solved: too few checked forecasts", solved, cfg.Hours)
			}
			if name == "late-trace" {
				if d := e.zones[e.zoneSlot[late]].off - e.zones[0].off; d != -3 {
					t.Fatalf("late zone's trace offset differs by %d from slot 0's, want -3", d)
				}
			}
		})
	}
}

// TestStepRefusesEpochOutsideAnyTrace pins the span check to every zone
// slot, not only site 0's: a run reaching past the end of one zone's
// trace, or starting before it, or over a zone without a trace, fails at
// exactly the first Step that would read outside it, with the span error.
func TestStepRefusesEpochOutsideAnyTrace(t *testing.T) {
	w := testWorld(t)
	region := carbon.RegionEurope
	zone := lastZone(t, w, region)
	cases := map[string]struct {
		w      *World
		failAt int
	}{
		"ends-early":   {w: traceWorld(t, w, zone, shifted(0, 50)), failAt: 50},
		"starts-late":  {w: startedAt(traceWorld(t, w, zone, shifted(10, w.Traces.Hours)), 4), failAt: 0},
		"late-in-span": {w: startedAt(traceWorld(t, w, zone, shifted(10, 40)), 12), failAt: 28},
		"no-trace":     {w: traceWorld(t, w, zone, func(*timeseries.Series) *timeseries.Series { return nil }), failAt: 0},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			cfg := shortConfig(region, placement.CarbonAware{})
			cfg.Hours = 60
			e, err := NewEngine(cfg, tc.w)
			if err != nil {
				t.Fatal(err)
			}
			for e.Epoch() < tc.failAt {
				if err := e.Step(); err != nil {
					t.Fatalf("epoch %d: %v", e.Epoch(), err)
				}
			}
			err = e.Step()
			if err == nil || !strings.Contains(err.Error(), "outside trace span") {
				t.Fatalf("Step at epoch %d: got %v, want an outside-trace-span error", tc.failAt, err)
			}
		})
	}
}

// TestServerUsageIsCommittedDemand checks the capacity books after every
// epoch: each server's used vector equals the sum of its live apps'
// placement cells (derived here from the profiles, not read back from the
// apps) and has no negative component. Departures, six-hourly redeploys
// and a crash that evicts a whole site all release what the placement
// committed — on a CPU pool, where the cell puts the model's memory in
// host memory rather than GPU memory, as well as on a GPU pool.
func TestServerUsageIsCommittedDemand(t *testing.T) {
	w := testWorld(t)
	cases := map[string]func(*Config){
		"gpu": func(c *Config) {},
		"cpu": func(c *Config) {
			c.Devices = []string{energy.XeonE5.Name}
			c.Models = []string{energy.ModelSci}
		},
	}
	for name, set := range cases {
		t.Run(name, func(t *testing.T) {
			cfg := shortConfig(carbon.RegionEurope, placement.CarbonAware{})
			cfg.Hours = 200
			cfg.ArrivalsPerHour = 8
			cfg.RedeployEveryHours = 6
			set(&cfg)
			city := hotCity(t, cfg, w)
			cfg.Faults = &events.FaultScript{Faults: []events.Fault{
				{At: 40 * time.Hour, Kind: events.FaultCrash, Site: city, For: 20 * time.Hour},
			}}
			e, err := NewEngine(cfg, w)
			if err != nil {
				t.Fatal(err)
			}
			for !e.Done() {
				if err := e.Step(); err != nil {
					t.Fatal(err)
				}
				want := make([]cluster.Resources, len(e.servers))
				for i := range e.live.items() {
					a := &e.live.items()[i]
					prof, err := energy.ProfileFor(e.pool.models[a.mi], e.servers[a.srv].Device.Name)
					if err != nil {
						t.Fatal(err)
					}
					d, _, ok := placement.Coefficients(prof, appRatePerSec)
					if !ok {
						t.Fatalf("live app %d on a device that cannot host it", i)
					}
					want[a.srv] = want[a.srv].Add(d)
				}
				for j := range e.servers {
					used := e.servers[j].Used
					if used != want[j] {
						t.Fatalf("epoch %d server %d: used %v, live apps committed %v", e.Epoch()-1, j, used, want[j])
					}
					for k, v := range used {
						if v < 0 {
							t.Fatalf("epoch %d server %d: used[%d] = %v < 0", e.Epoch()-1, j, k, v)
						}
					}
				}
			}
			res := e.Finish()
			if res.Faults.Evictions == 0 || res.Migrations == 0 || res.Placed <= e.live.len() {
				t.Fatalf("run witnessed %d evictions, %d migrations, %d placed of which %d still live: want all three paths exercised",
					res.Faults.Evictions, res.Migrations, res.Placed, e.live.len())
			}
		})
	}
}

// scaledWorld returns a copy of w whose every zone trace is multiplied
// by k.
func scaledWorld(t *testing.T, w *World, k float64) *World {
	ts := freshTraces(t, w.Zones.Zones())
	for _, id := range ts.ZoneIDs() {
		vals := ts.Trace(id).Values
		for i, v := range vals {
			vals[i] = k * v
		}
	}
	cp := *w
	cp.Traces = ts
	return &cp
}

// TestScaledIntensityMetamorphic is the simulator leg of the scaling
// relation: multiplying every zone's intensity by a power of two is exact
// in binary floating point and scales every carbon-priced cost alike, so
// CarbonAware and IntensityAware runs place exactly as before, city by
// city and month by month, and emit exactly k times the carbon.
func TestScaledIntensityMetamorphic(t *testing.T) {
	w := testWorld(t)
	for _, k := range []float64{2, 0.5} {
		sw := scaledWorld(t, w, k)
		for _, region := range []carbon.Region{carbon.RegionEurope, carbon.RegionUS} {
			for _, pol := range []placement.Policy{placement.CarbonAware{}, placement.IntensityAware{}} {
				cfg := shortConfig(region, pol)
				base, err := Run(cfg, w)
				if err != nil {
					t.Fatal(err)
				}
				scaled, err := Run(cfg, sw)
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("%v/%s, k=%g", region, pol.Name(), k)
				if base.Placed == 0 {
					t.Fatalf("%s: nothing placed: the relation is vacuous", name)
				}
				if !reflect.DeepEqual(scaled.PlacementsByCity, base.PlacementsByCity) {
					t.Errorf("%s: placements by city moved", name)
				}
				if !reflect.DeepEqual(scaled.MonthlyPlacements, base.MonthlyPlacements) {
					t.Errorf("%s: monthly placements moved", name)
				}
				if math.Float64bits(scaled.CarbonG) != math.Float64bits(k*base.CarbonG) {
					t.Errorf("%s: carbon %v, k times the original %v", name, scaled.CarbonG, k*base.CarbonG)
				}
			}
		}
	}
}
