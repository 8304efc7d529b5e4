package router

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/metrics"
)

// The test locations: the three hosting cities of testReplicas and a
// distant source.
const (
	miami = iota
	orlando
	tampa
	far
)

// testRTTms is a small symmetric latency table over the test locations.
var testRTTms = [4][4]float64{
	miami:   {0, 6, 8, 40},
	orlando: {6, 0, 3, 42},
	tampa:   {8, 3, 0, 44},
	far:     {40, 42, 44, 0},
}

func testRTT(src, dst int) float64 { return testRTTms[src][dst] }

func testReplicas() []Replica {
	return []Replica{
		{ID: "mia", Loc: miami, ZoneID: "Z-MIA", CapacityRPS: 10, ServiceMs: 8, EnergyPerReqJ: 0.5},
		{ID: "orl", Loc: orlando, ZoneID: "Z-ORL", CapacityRPS: 10, ServiceMs: 8, EnergyPerReqJ: 0.5},
		{ID: "tpa", Loc: tampa, ZoneID: "Z-TPA", CapacityRPS: 10, ServiceMs: 8, EnergyPerReqJ: 0.5},
	}
}

func flatCI(string) float64 { return 100 }

func mustRouter(t *testing.T, cfg Config) *Router {
	t.Helper()
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRouterValidation(t *testing.T) {
	if _, err := New(Config{SLOms: 0, RTTAt: testRTT}); err == nil {
		t.Error("zero SLO accepted")
	}
	if _, err := New(Config{SLOms: 20}); err == nil {
		t.Error("nil RTTAt oracle accepted")
	}
}

func TestRouteWithinCapacityMeetsSLO(t *testing.T) {
	r := mustRouter(t, Config{SLOms: 20, RTTAt: testRTT})
	sl := r.ReuseSlice(testReplicas(), 100) // 1000-request budget per replica
	sl.RouteAt(miami, 900, flatCI)
	sl.Close()

	st := r.Stats()
	if st.Requests != 900 || st.SLOMet != 900 {
		t.Errorf("requests=%d slo_met=%d, want 900/900", st.Requests, st.SLOMet)
	}
	if st.Spilled != 0 || st.Dropped != 0 || st.OverloadSlices != 0 {
		t.Errorf("unexpected spill/drop: %+v", st)
	}
	if att := st.SLOAttainment(); att != 1 {
		t.Errorf("attainment %.3f, want 1", att)
	}
	// All latencies are 0..8ms RTT + 8ms service <= 16ms.
	if p99 := st.Latency.Quantile(0.99); p99 > 20 {
		t.Errorf("p99 %.1f ms > SLO", p99)
	}
	// Per-request carbon: 900 * 0.5 J / 3.6e6 * 100 g/kWh.
	wantG := 900 * 0.5 / 3.6e6 * 100
	if math.Abs(st.CarbonG-wantG)/wantG > 1e-9 {
		t.Errorf("carbon %.6f g, want %.6f", st.CarbonG, wantG)
	}
}

func TestRouteProportionalToFreeCapacity(t *testing.T) {
	reps := []Replica{
		{ID: "big", Loc: miami, ZoneID: "Z", CapacityRPS: 75, ServiceMs: 5, EnergyPerReqJ: 1},
		{ID: "small", Loc: orlando, ZoneID: "Z", CapacityRPS: 25, ServiceMs: 5, EnergyPerReqJ: 1},
	}
	r := mustRouter(t, Config{SLOms: 30, RTTAt: testRTT})
	sl := r.ReuseSlice(reps, 100) // budgets 7500 / 2500
	sl.RouteAt(miami, 4000, flatCI)
	sl.Close()
	served := sl.Served()
	ratio := float64(served[0]) / float64(served[1])
	if ratio < 2.8 || ratio > 3.2 {
		t.Errorf("split %d/%d (ratio %.2f), want ~3.0", served[0], served[1], ratio)
	}
}

func TestSpillOverOnSaturation(t *testing.T) {
	reps := []Replica{
		{ID: "near", Loc: miami, ZoneID: "Z", CapacityRPS: 1, ServiceMs: 8, EnergyPerReqJ: 1},
		{ID: "far", Loc: far, ZoneID: "Z", CapacityRPS: 100, ServiceMs: 8, EnergyPerReqJ: 1},
	}
	r := mustRouter(t, Config{SLOms: 20, RTTAt: testRTT})
	sl := r.ReuseSlice(reps, 10) // near fits 10 requests, far 1000
	sl.RouteAt(miami, 200, flatCI)
	sl.Close()

	st := r.Stats()
	if st.SLOMet != 10 {
		t.Errorf("slo_met=%d, want 10 (near replica budget)", st.SLOMet)
	}
	if st.Spilled != 190 {
		t.Errorf("spilled=%d, want 190", st.Spilled)
	}
	if st.Dropped != 0 {
		t.Errorf("dropped=%d, want 0", st.Dropped)
	}
	// Spilled requests' latency (40+8+8... RTT 2*40? testRTT returns 40
	// round-trip) lands well past the SLO in the sketch.
	if p99 := st.Latency.Quantile(0.99); p99 <= 20 {
		t.Errorf("p99 %.1f ms should reflect spill-over latency", p99)
	}
}

func TestDropWhenAllSaturated(t *testing.T) {
	r := mustRouter(t, Config{SLOms: 20, RTTAt: testRTT})
	sl := r.ReuseSlice(testReplicas(), 1) // 10-request budget per replica
	sl.RouteAt(miami, 100, flatCI)
	if sl.Dropped() != 70 {
		t.Errorf("dropped=%d, want 70", sl.Dropped())
	}
	sl.Close()
	st := r.Stats()
	if st.Dropped != 70 || st.OverloadSlices != 1 {
		t.Errorf("dropped=%d overload_slices=%d, want 70/1", st.Dropped, st.OverloadSlices)
	}
	if st.Requests != 100 || st.SLOMet+st.Dropped+st.Spilled != 100 {
		t.Errorf("request accounting broken: %+v", st)
	}
	// Closing again must not double-count the overload.
	sl.Close()
	if st.OverloadSlices != 1 {
		t.Error("double Close double-counted the overload")
	}
}

func TestRoutingDeterministic(t *testing.T) {
	run := func() Snapshot {
		r := mustRouter(t, Config{SLOms: 20, RTTAt: testRTT, PerReplica: true})
		for slice := 0; slice < 5; slice++ {
			sl := r.ReuseSlice(testReplicas(), 60)
			sl.RouteAt(miami, 700, flatCI)
			sl.RouteAt(orlando, 500, flatCI)
			sl.RouteAt(far, 300, flatCI)
			sl.Close()
		}
		return r.Stats().Snapshot()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("identical routing diverged:\na: %+v\nb: %+v", a, b)
	}
}

func TestPerReplicaSnapshot(t *testing.T) {
	r := mustRouter(t, Config{SLOms: 20, RTTAt: testRTT, PerReplica: true})
	sl := r.ReuseSlice(testReplicas(), 100)
	sl.RouteAt(tampa, 600, flatCI)
	sl.Close()
	snap := r.Stats().Snapshot()
	if len(snap.Replicas) == 0 {
		t.Fatal("no per-replica rows")
	}
	var total int64
	for i, row := range snap.Replicas {
		total += row.Requests
		if i > 0 && snap.Replicas[i-1].ID >= row.ID {
			t.Error("replica rows not sorted by ID")
		}
		if row.Requests > 0 && row.CarbonPerMReq <= 0 {
			t.Errorf("%s: no per-request carbon attribution", row.ID)
		}
	}
	if total != 600 {
		t.Errorf("per-replica requests sum %d, want 600", total)
	}
	if snap.SLOPct != 100 {
		t.Errorf("attainment %.1f%%, want 100%%", snap.SLOPct)
	}
}

func TestZeroAndClosedSliceRouting(t *testing.T) {
	r := mustRouter(t, Config{SLOms: 20, RTTAt: testRTT})
	sl := r.ReuseSlice(testReplicas(), 100)
	sl.RouteAt(miami, 0, flatCI)
	sl.RouteAt(miami, -5, flatCI)
	sl.Close()
	sl.RouteAt(miami, 50, flatCI) // closed: ignored
	if st := r.Stats(); st.Requests != 0 {
		t.Errorf("requests=%d, want 0", st.Requests)
	}
}

// TestFullyDrainedPool covers the pool with zero serving capacity: every
// request must surface as an explicit drop with zero energy/carbon
// attribution — no divide-by-zero in the waterfill shares and no silent
// loss in the counters.
// TestOverflowingCapacityClamped routes over replicas whose budget
// CapacityRPS·seconds is +Inf, NaN, negative or 2^63: the slice clamps
// each to a budget waterfill cannot overflow, so every served count is
// non-negative and served plus dropped is every request routed, within
// and past the SLO.
func TestOverflowingCapacityClamped(t *testing.T) {
	for _, capRPS := range []float64{math.Inf(1), math.NaN(), -5, math.Inf(-1), 1 << 63, 1 << 62, math.MaxFloat64} {
		r := mustRouter(t, Config{SLOms: 20, RTTAt: testRTT, PerReplica: true})
		replicas := testReplicas()
		replicas[1].CapacityRPS = capRPS
		sl := r.ReuseSlice(replicas, 1)
		var routed int64
		for _, rt := range []struct {
			src   int
			count int64
		}{{miami, 500}, {orlando, 1 << 40}, {tampa, 7}, {far, 300}} {
			sl.RouteAt(rt.src, rt.count, flatCI)
			routed += rt.count
		}
		var served int64
		for i, n := range sl.Served() {
			if n < 0 {
				t.Fatalf("capacity %v: replica %d served %d requests", capRPS, i, n)
			}
			served += n
		}
		if served+sl.Dropped() != routed {
			t.Errorf("capacity %v: served %d + dropped %d != routed %d", capRPS, served, sl.Dropped(), routed)
		}
		sl.Close()
		if st := r.Stats(); st.Requests != routed || st.SLOMet+st.Spilled+st.Dropped != routed || st.EnergyKWh < 0 {
			t.Errorf("capacity %v: request accounting broken: %+v", capRPS, st)
		}
	}
}

func TestFullyDrainedPool(t *testing.T) {
	r := mustRouter(t, Config{SLOms: 20, RTTAt: testRTT, PerReplica: true})
	replicas := testReplicas()
	for i := range replicas {
		replicas[i].CapacityRPS = 0
	}
	sl := r.ReuseSlice(replicas, 100)
	sl.RouteAt(miami, 500, flatCI)
	sl.RouteAt(orlando, 250, flatCI)
	sl.Close()

	st := r.Stats()
	if st.Requests != 750 {
		t.Fatalf("requests = %d, want 750 (attempt-complete accounting)", st.Requests)
	}
	if st.Dropped != 750 || sl.Dropped() != 750 {
		t.Errorf("dropped = %d/%d, want all 750", st.Dropped, sl.Dropped())
	}
	if st.SLOMet != 0 || st.Spilled != 0 {
		t.Errorf("met=%d spilled=%d on a drained pool, want 0/0", st.SLOMet, st.Spilled)
	}
	if st.EnergyKWh != 0 || st.CarbonG != 0 {
		t.Errorf("energy=%v carbon=%v attributed to dropped requests, want 0/0", st.EnergyKWh, st.CarbonG)
	}
	if st.Latency.Count() != 0 {
		t.Errorf("latency sketch recorded %d samples for unserved requests", st.Latency.Count())
	}
	if st.OverloadSlices != 1 {
		t.Errorf("overload slices = %d, want 1", st.OverloadSlices)
	}
	if got := st.DropRate(); got != 1 {
		t.Errorf("drop rate = %v, want 1", got)
	}
	if got := st.SLOAttainment(); got != 0 {
		t.Errorf("SLO attainment = %v, want 0", got)
	}
	for i, n := range sl.Served() {
		if n != 0 {
			t.Errorf("replica %d served %d requests with zero capacity", i, n)
		}
	}
	// The JSON snapshot stays finite (no NaN/Inf leaks from the zeros).
	snap := st.Snapshot()
	if snap.P50Ms != 0 || snap.P99Ms != 0 || snap.SLOPct != 0 {
		t.Errorf("snapshot quantiles not zeroed: %+v", snap)
	}
	for _, rep := range snap.Replicas {
		if rep.Requests != 0 || rep.CarbonPerMReq != 0 {
			t.Errorf("replica snapshot leaked stats: %+v", rep)
		}
	}
}

// TestPoolDrainsMidSlice drains the pool during a slice: the requests
// that fit are served, the remainder drops, and attribution covers only
// the served share.
func TestPoolDrainsMidSlice(t *testing.T) {
	r := mustRouter(t, Config{SLOms: 20, RTTAt: testRTT})
	sl := r.ReuseSlice(testReplicas(), 10) // 100-request budget per replica
	sl.RouteAt(miami, 250, flatCI)         // fills Miami + Orlando + Tampa (300 cap)
	sl.RouteAt(miami, 200, flatCI)         // only 50 left; 150 must drop
	sl.Close()

	st := r.Stats()
	if st.Requests != 450 {
		t.Fatalf("requests = %d", st.Requests)
	}
	if st.Dropped != 150 {
		t.Errorf("dropped = %d, want 150", st.Dropped)
	}
	served := st.Requests - st.Dropped
	wantKWh := float64(served) * 0.5 / 3.6e6
	if math.Abs(st.EnergyKWh-wantKWh) > 1e-12 {
		t.Errorf("energy = %v kWh, want %v (served requests only)", st.EnergyKWh, wantKWh)
	}
	if st.Latency.Count() != served {
		t.Errorf("latency samples %d != served %d", st.Latency.Count(), served)
	}
}

// TestReuseRouteAtZeroAlloc locks in the router's steady-state allocation
// contract: after one warm cycle, the ReuseSlice + RouteAt + Close loop —
// the simulator's per-epoch path — performs zero heap allocations.
func TestReuseRouteAtZeroAlloc(t *testing.T) {
	rttAt := func(src, dst int) float64 {
		if src == dst {
			return 0
		}
		return 5
	}
	r := mustRouter(t, Config{SLOms: 20, RTTAt: rttAt})
	reps := testReplicas()
	for i := range reps {
		reps[i].Loc = i
	}
	sources := []int{0, 1}
	cycle := func() {
		sl := r.ReuseSlice(reps, 100)
		for _, src := range sources {
			sl.RouteAt(src, 450, flatCI)
		}
		sl.Close()
	}
	cycle() // warm: grows scratch buffers, memo rows, the observation log and telemetry keys once
	if got := testing.AllocsPerRun(200, cycle); got != 0 {
		t.Errorf("reused routing cycle allocates %.2f/op, want 0", got)
	}
	// A source index first seen after warm-up grows the memo rows (and the
	// log, by one more source's assignments) once; after that the cycle is
	// allocation-free again with the new source in play.
	sources = append(sources, 7)
	cycle()
	if got := testing.AllocsPerRun(200, cycle); got != 0 {
		t.Errorf("routing cycle with a late source allocates %.2f/op, want 0", got)
	}
}

// TestStatsSnapshotAllocsBounded pins the scrape path: a Snapshot of
// per-replica stats performs a small constant number of allocations
// (pre-sized row slice plus sort scaffolding), not one per replica or
// per scrape-history.
func TestStatsSnapshotAllocsBounded(t *testing.T) {
	r := mustRouter(t, Config{SLOms: 20, RTTAt: testRTT, PerReplica: true})
	sl := r.ReuseSlice(testReplicas(), 100)
	sl.RouteAt(miami, 900, flatCI)
	sl.Close()
	st := r.Stats()
	if got := testing.AllocsPerRun(100, func() { _ = st.Snapshot() }); got > 6 {
		t.Errorf("stats scrape allocates %.1f/op, want a small constant", got)
	}
}

// memoWorld is the differential tests' location universe: nLoc
// locations with a fixed pseudo-random symmetric RTT table, read through
// an RTTAt oracle that counts its calls.
type memoWorld struct {
	rtt   [][]float64
	calls int
}

func newMemoWorld(rng *rand.Rand, nLoc int) *memoWorld {
	w := &memoWorld{rtt: make([][]float64, nLoc)}
	for i := 0; i < nLoc; i++ {
		w.rtt[i] = make([]float64, nLoc)
	}
	for i := 0; i < nLoc; i++ {
		for j := i + 1; j < nLoc; j++ {
			w.rtt[i][j] = 1 + 30*rng.Float64()
			w.rtt[j][i] = w.rtt[i][j]
		}
	}
	return w
}

func (w *memoWorld) at(src, dst int) float64 { w.calls++; return w.rtt[src][dst] }

// memoSlice is one routing window of a differential scenario.
type memoSlice struct {
	replicas []Replica
	sources  []int
	counts   []int64
}

// memoScenario draws a slice sequence that leans on everything the pair
// memo keys or caches: replicas join and leave between slices, two
// replicas can share a Loc with different ServiceMs (distinct classes)
// or share both (one class, one row), capacities are tight enough that
// slices spill and drop, and the source range widens over time so later
// slices route from indices no earlier slice used (row growth).
func memoScenario(rng *rand.Rand, w *memoWorld, nSlices int) []memoSlice {
	nLoc := len(w.rtt)
	var catalog []Replica
	for loc := 0; loc < nLoc; loc++ {
		for k, svc := range []float64{4, 9, 4} {
			catalog = append(catalog, Replica{
				ID: fmt.Sprintf("L%02d/%d", loc, k%2), Loc: loc,
				ZoneID: fmt.Sprintf("Z%d", loc%3), ServiceMs: svc, EnergyPerReqJ: 0.25 + float64(k),
			})
		}
	}
	out := make([]memoSlice, nSlices)
	for k := range out {
		sl := &out[k]
		for _, rep := range catalog {
			if rng.Intn(3) == 0 {
				rep.CapacityRPS = float64(rng.Intn(40)) // 0 = present but drained
				sl.replicas = append(sl.replicas, rep)
			}
		}
		rng.Shuffle(len(sl.replicas), func(i, j int) {
			sl.replicas[i], sl.replicas[j] = sl.replicas[j], sl.replicas[i]
		})
		reach := min(nLoc, 2+k/2)
		for n := 1 + rng.Intn(5); n > 0; n-- {
			sl.sources = append(sl.sources, rng.Intn(reach))
			sl.counts = append(sl.counts, int64(rng.Intn(900)))
		}
	}
	return out
}

func zoneCI(zone string) float64 { return 100 + 50*float64(zone[1]-'0') }

func stateJSON(t *testing.T, r *Router) string {
	t.Helper()
	b, err := json.Marshal(r.Stats().State())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestRouteAtMemoDifferential holds RouteAt on a long-lived router — warm
// memo rows, logged observations — against three routers that cannot
// benefit from the memo across slices: one whose memo is invalidated
// before every slice (InvalidateRTT), a fresh router per slice chained
// through State/RestoreStats (cold memo every slice), and a long-lived
// router whose stats are exported and restored in place mid-run (memo
// dropped while warm). All four must end every slice with JSON-identical
// exported stats.
func TestRouteAtMemoDifferential(t *testing.T) {
	for _, perReplica := range []bool{false, true} {
		for seed := int64(1); seed <= 6; seed++ {
			rng := rand.New(rand.NewSource(seed))
			w := newMemoWorld(rng, 9)
			slices := memoScenario(rng, w, 40)
			cfg := Config{SLOms: 22, RTTAt: w.at, PerReplica: perReplica}

			long, cold, chained, interrupted := mustRouter(t, cfg), mustRouter(t, cfg), mustRouter(t, cfg), mustRouter(t, cfg)
			var spilled, dropped bool
			for k, ms := range slices {
				if k == len(slices)/2 {
					if err := interrupted.RestoreStats(interrupted.Stats().State()); err != nil {
						t.Fatal(err)
					}
				}
				next := mustRouter(t, cfg)
				if err := next.RestoreStats(chained.Stats().State()); err != nil {
					t.Fatal(err)
				}
				chained = next

				cold.InvalidateRTT()
				for _, r := range []*Router{long, cold, chained, interrupted} {
					sl := r.ReuseSlice(ms.replicas, 10)
					for i, src := range ms.sources {
						sl.RouteAt(src, ms.counts[i], zoneCI)
					}
					sl.Close()
				}

				want := stateJSON(t, long)
				for name, r := range map[string]*Router{"invalidated every slice": cold, "fresh router per slice": chained, "restored mid-run": interrupted} {
					if got := stateJSON(t, r); got != want {
						t.Fatalf("seed %d per-replica=%t slice %d: %s diverged from the long-lived RouteAt router\n got: %s\nwant: %s",
							seed, perReplica, k, name, got, want)
					}
				}
				spilled = spilled || long.Stats().Spilled > 0
				dropped = dropped || long.Stats().Dropped > 0
			}
			if !spilled || !dropped || long.Stats().SLOMet == 0 {
				t.Errorf("seed %d: scenario too easy to tell paths apart: %+v", seed, long.Stats().Snapshot())
			}
		}
	}
}

// TestRouteAtEvaluatesEachPairOnce checks the memo is doing its job, not
// just agreeing: over a long scenario the RTTAt oracle is consulted once
// per distinct (source, replica class) pair, however many slices see it.
func TestRouteAtEvaluatesEachPairOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	w := newMemoWorld(rng, 9)
	slices := memoScenario(rng, w, 60)
	r := mustRouter(t, Config{SLOms: 22, RTTAt: w.at})
	type pair struct {
		src, loc int
		svc      float64
	}
	seen := map[pair]bool{}
	for _, ms := range slices {
		sl := r.ReuseSlice(ms.replicas, 10)
		for i, src := range ms.sources {
			sl.RouteAt(src, ms.counts[i], zoneCI)
			if ms.counts[i] > 0 {
				for _, rep := range ms.replicas {
					seen[pair{src, rep.Loc, rep.ServiceMs}] = true
				}
			}
		}
		sl.Close()
	}
	if w.calls != len(seen) {
		t.Errorf("RTTAt called %d times for %d distinct (source, class) pairs", w.calls, len(seen))
	}
}

// TestInvalidateRTTSeesNewDelays: a pair's latency is memoized until
// InvalidateRTT; after it, RouteAt reads the oracle again, and a link
// pushed past the SLO takes no more feasible traffic.
func TestInvalidateRTTSeesNewDelays(t *testing.T) {
	rtt := testRTTms
	r := mustRouter(t, Config{SLOms: 20, RTTAt: func(src, dst int) float64 { return rtt[src][dst] }})
	route := func() []int64 {
		sl := r.ReuseSlice(testReplicas(), 100)
		sl.RouteAt(miami, 900, flatCI)
		sl.Close()
		return append([]int64(nil), sl.Served()...)
	}
	route()
	rtt[miami][orlando], rtt[orlando][miami] = 30, 30 // 30 + 8 ms > SLO
	if served := route(); served[1] == 0 {
		t.Fatal("the memo should hold the old Miami-Orlando latency until invalidated")
	}
	r.InvalidateRTT()
	if served := route(); served[1] != 0 || served[0]+served[2] != 900 {
		t.Errorf("after InvalidateRTT served %v, want nothing on orl and all 900 on mia+tpa", served)
	}
	if st := r.Stats(); st.SLOMet != 2700 || st.Spilled != 0 {
		t.Errorf("slo_met=%d spilled=%d, want 2700/0", st.SLOMet, st.Spilled)
	}
}

// TestRetireDropsRowKeepsTotals: a retired ID loses its per-replica row
// and ByReplica label, the totals and the other rows are untouched, and
// routing to the ID again starts from zero.
func TestRetireDropsRowKeepsTotals(t *testing.T) {
	r := mustRouter(t, Config{SLOms: 20, RTTAt: testRTT, PerReplica: true})
	route := func() {
		sl := r.ReuseSlice(testReplicas(), 100)
		sl.RouteAt(tampa, 600, flatCI)
		sl.RouteAt(far, 50, flatCI)
		sl.Close()
	}
	route()
	before := r.Stats().State()
	if len(before.Replicas) != 3 || before.ByReplica["orl"] == 0 {
		t.Fatalf("want three served replicas, have %+v", before.ByReplica)
	}

	r.Retire("orl")
	r.Retire("never-routed")
	after := r.Stats().State()
	if _, ok := after.Replicas["orl"]; ok || len(after.Replicas) != 2 {
		t.Errorf("retired row still present: %d rows", len(after.Replicas))
	}
	if _, ok := after.ByReplica["orl"]; ok || len(after.ByReplica) != 2 {
		t.Errorf("retired label still present: %v", after.ByReplica)
	}
	for _, id := range []string{"mia", "tpa"} {
		if !reflect.DeepEqual(after.Replicas[id], before.Replicas[id]) || after.ByReplica[id] != before.ByReplica[id] {
			t.Errorf("retiring orl changed %s", id)
		}
	}
	orlServed := before.ByReplica["orl"]
	after.Replicas, after.ByReplica, before.Replicas, before.ByReplica = nil, nil, nil, nil
	if !reflect.DeepEqual(after, before) {
		t.Errorf("retiring a row moved the totals:\n before %+v\n after  %+v", before, after)
	}

	route()
	if got := r.Stats().Replicas["orl"].Requests; got != orlServed {
		t.Errorf("re-routed orl holds %d requests, want the %d one slice gives it", got, orlServed)
	}
	if got, want := r.Stats().ByReplica.State()["orl"], r.Stats().Replicas["orl"].Requests; got != want {
		t.Errorf("re-routed orl: label counts %d, row %d", got, want)
	}
}

// TestCloseFoldsPerReplicaByBucketOrValue: per-replica sketches end up
// exactly as per-assignment AddN calls would leave them, both at the
// total sketch's resolution (folded by the logged bucket) and at a
// restored foreign one (folded by value) — with a pair's bucket read from
// the memo once and reused for the waterfill's further rounds.
func TestCloseFoldsPerReplicaByBucketOrValue(t *testing.T) {
	r := mustRouter(t, Config{SLOms: 20, RTTAt: testRTT, PerReplica: true})
	st := r.Stats().State()
	coarse := metrics.NewQuantileSketch().State()
	coarse.NumBkts, coarse.Gamma = 300, 1.1
	st.Replicas = map[string]ReplicaStatsState{"orl": {Latency: coarse}}
	if err := r.RestoreStats(st); err != nil {
		t.Fatal(err)
	}
	ref := map[string]*metrics.QuantileSketch{}
	for id, rs := range r.Stats().Replicas {
		sk, err := metrics.SketchFromState(rs.Latency.State())
		if err != nil {
			t.Fatal(err)
		}
		ref[id] = sk
	}

	// Uneven capacities and a count far above them force several waterfill
	// rounds per (source, replica) pair, then spill-over.
	replicas := testReplicas()
	replicas[0].CapacityRPS, replicas[2].CapacityRPS = 3, 17
	for round := 0; round < 4; round++ {
		sl := r.ReuseSlice(replicas, 10)
		for _, src := range []int{tampa, miami, far, tampa} {
			served := append([]int64(nil), sl.Served()...)
			sl.RouteAt(src, 97, flatCI)
			for i, n := range sl.Served() {
				if d := n - served[i]; d > 0 {
					id := replicas[i].ID
					if ref[id] == nil {
						ref[id] = metrics.NewQuantileSketch()
					}
					// One AddN per pair equals the per-assignment adds: the
					// pair's latency is one value.
					ref[id].AddN(testRTT(src, replicas[i].Loc)+replicas[i].ServiceMs, d)
				}
			}
		}
		sl.Close()
	}
	if r.Stats().Replicas["orl"].Latency.SameResolution(r.Stats().Latency) {
		t.Fatal("orl's restored sketch should keep its foreign resolution")
	}
	for id, want := range ref {
		got := r.Stats().Replicas[id].Latency.State()
		w := want.State()
		// Sums are float accumulations in assignment order; the reference
		// adds a pair's rounds in one step, so compare them to 1e-12.
		if math.Abs(got.Sum-w.Sum) > 1e-12*w.Sum {
			t.Errorf("%s: sum %v, want %v", id, got.Sum, w.Sum)
		}
		got.Sum, w.Sum = 0, 0
		if !reflect.DeepEqual(got, w) {
			t.Errorf("%s: sketch\n %+v\nwant\n %+v", id, got, w)
		}
	}
}

// TestCloseFoldsRowsInAssignmentOrder routes two sources' requests over
// two replicas sharing a row, one at 1.25 ms and one at 2^53 ms, so the
// row takes their observations interleaved: 1.25, 2^53, 1.25, 2^53. Its
// sum keeps the small terms only in some orders (grouped by replica it
// ends 4 higher), and the row's sketch must equal, bit for bit, one fed
// the observations in assignment order.
func TestCloseFoldsRowsInAssignmentOrder(t *testing.T) {
	r := mustRouter(t, Config{SLOms: 1 << 60, RTTAt: testRTT, PerReplica: true})
	reps := []Replica{
		{ID: "row", Loc: tampa, ZoneID: "Z", CapacityRPS: 1, ServiceMs: 1.25, EnergyPerReqJ: 0.5},
		{ID: "row", Loc: miami, ZoneID: "Z", CapacityRPS: 1, ServiceMs: 1<<53 - 8, EnergyPerReqJ: 0.5},
	}
	sl := r.ReuseSlice(reps, 10)
	sl.RouteAt(tampa, 2, flatCI)
	sl.RouteAt(tampa, 2, flatCI)
	sl.Close()
	if got := sl.Served(); got[0] != 2 || got[1] != 2 {
		t.Fatalf("served %v, want two requests on each replica", got)
	}
	small, big := testRTT(tampa, tampa)+1.25, testRTT(tampa, miami)+(1<<53-8)
	sketch := func(vs ...float64) metrics.SketchState {
		sk := metrics.NewQuantileSketch()
		for _, v := range vs {
			sk.AddN(v, 1)
		}
		return sk.State()
	}
	want := sketch(small, big, small, big)
	if sketch(small, small, big, big).Sum == want.Sum {
		t.Fatal("fixture: the sum does not depend on the order")
	}
	if got := r.Stats().Replicas["row"].Latency.State(); !reflect.DeepEqual(got, want) {
		t.Errorf("row sketch\n %+v\nwant\n %+v", got, want)
	}
}

// legacyRoute is the eager routing path RouteAt replaced, kept as its
// bit-exact oracle: every route partitions all replicas into copied
// latency, bucket, feasible and infeasible scratch, the spill list
// included, and every assignment looks its per-replica row up by ID and
// records its latency in the row's sketch itself. It routes on an open
// slice of its own router, through the slice's budgets, counts and
// observation log, so Close folds its routes into the router's own
// sketch as it folds RouteAt's.
type legacyRoute struct {
	lat                  []float64
	bucket               []int32
	feasible, infeasible []int
	zi                   []float64
	ziOK                 []bool
}

// open readies the scratch for slice s, freshly reset by ReuseSlice.
func (l *legacyRoute) open(s *Slice) {
	n := len(s.replicas)
	l.lat, l.bucket = reslice(l.lat, n), reslice(l.bucket, n)
	l.zi, l.ziOK = reslice(l.zi, n), reslice(l.ziOK, n)
	clear(l.ziOK)
}

func (l *legacyRoute) routeAt(s *Slice, srcLoc int, count int64, intensity func(string) float64) {
	if count <= 0 || s.closed {
		return
	}
	s.r.stats.Requests += count
	if !s.idsOK {
		s.resolveIDs()
	}
	l.feasible, l.infeasible = l.feasible[:0], l.infeasible[:0]
	row := s.r.srcRow(srcLoc)
	for i, id := range s.ids {
		c := row[id]
		if c.lat != c.lat {
			rep := &s.replicas[i]
			c.lat = s.r.cfg.RTTAt(srcLoc, rep.Loc) + rep.ServiceMs
			c.bucket = s.r.stats.Latency.Bucket(c.lat)
			row[id] = c
		}
		l.lat[i], l.bucket[i] = c.lat, c.bucket
		if c.lat <= s.r.cfg.SLOms {
			l.feasible = append(l.feasible, i)
		} else {
			l.infeasible = append(l.infeasible, i)
		}
	}
	left := l.waterfill(s, count, l.feasible, false, intensity)
	if left > 0 {
		left = l.waterfill(s, left, l.infeasible, true, intensity)
	}
	if left > 0 {
		s.r.stats.Dropped += left
		s.dropped += left
	}
}

func (l *legacyRoute) waterfill(s *Slice, count int64, idxs []int, spill bool, intensity func(string) float64) int64 {
	left := count
	for left > 0 {
		var totalFree float64
		for _, i := range idxs {
			if s.free[i] >= 1 {
				totalFree += s.free[i]
			}
		}
		if totalFree < 1 {
			break
		}
		progressed := false
		rem := left
		for _, i := range idxs {
			if rem == 0 {
				break
			}
			if s.free[i] < 1 {
				continue
			}
			n := int64(float64(left) * s.free[i] / totalFree)
			if n == 0 {
				n = 1
			}
			if n > rem {
				n = rem
			}
			if budget := int64(s.free[i]); n > budget {
				n = budget
			}
			if n == 0 {
				continue
			}
			l.assign(s, i, n, l.lat[i], spill, intensity)
			s.free[i] -= float64(n)
			rem -= n
			progressed = true
		}
		left = rem
		if !progressed {
			break
		}
	}
	return left
}

func (l *legacyRoute) assign(s *Slice, i int, n int64, latMs float64, spill bool, intensity func(string) float64) {
	rep := &s.replicas[i]
	st := &s.r.stats
	s.served[i] += n
	met := latMs <= s.r.cfg.SLOms
	if met {
		st.SLOMet += n
	}
	if spill {
		st.Spilled += n
	}
	s.log = append(s.log, metrics.Obs{V: latMs, N: n, Bucket: l.bucket[i]})
	if !l.ziOK[i] {
		l.zi[i], l.ziOK[i] = intensity(rep.ZoneID), true
	}
	kwh := float64(n) * rep.EnergyPerReqJ / 3.6e6
	grams := kwh * l.zi[i]
	st.EnergyKWh += kwh
	st.CarbonG += grams
	if st.Replicas != nil {
		rs := st.Replicas[rep.ID]
		if rs == nil {
			rs = &ReplicaStats{Latency: metrics.NewQuantileSketch()}
			st.Replicas[rep.ID] = rs
		}
		rs.Requests += n
		if met {
			rs.SLOMet += n
		}
		if spill {
			rs.Spilled += n
		}
		rs.Latency.AddN(latMs, n)
		rs.EnergyKWh += kwh
		rs.CarbonG += grams
	}
}

// legacyPair routes the same slices through RouteAt on one router and
// through legacyRoute on another, each router asking its own copy of one
// RTT oracle, and compares them after every slice.
type legacyPair struct {
	got, want             *Router
	gotOracle, wantOracle *fuzzOracle
	gs, ws                *Slice
	legacy                legacyRoute
	// nanRouted records a route offered a NaN pair with capacity, for
	// vacuity checks.
	nanRouted bool
}

func newLegacyPair(t *testing.T, seed int, perReplica bool, slo float64) *legacyPair {
	p := &legacyPair{gotOracle: &fuzzOracle{seed: seed}, wantOracle: &fuzzOracle{seed: seed}}
	var err error
	if p.got, err = New(Config{SLOms: slo, RTTAt: p.gotOracle.at, PerReplica: perReplica}); err != nil {
		t.Fatal(err)
	}
	if p.want, err = New(Config{SLOms: slo, RTTAt: p.wantOracle.at, PerReplica: perReplica}); err != nil {
		t.Fatal(err)
	}
	return p
}

// open opens a slice on both routers and returns RouteAt's.
func (p *legacyPair) open(reps []Replica, seconds float64) *Slice {
	p.gs, p.ws = p.got.ReuseSlice(reps, seconds), p.want.ReuseSlice(reps, seconds)
	p.legacy.open(p.ws)
	return p.gs
}

// route routes one source on both open slices.
func (p *legacyPair) route(src int, count int64) {
	p.gs.RouteAt(src, count, zoneCI)
	p.legacy.routeAt(p.ws, src, count, zoneCI)
	if count > 0 {
		for _, rep := range p.ws.replicas {
			if rep.CapacityRPS >= 1 && math.IsNaN(p.wantOracle.rtt(src, rep.Loc)) {
				p.nanRouted = true
			}
		}
	}
}

// close closes both slices and fails, naming where, at the first
// difference: in the slices' served and dropped counts, in the number of
// oracle calls, or in the JSON of the exported stats, which renders every
// float (sums included) exactly.
func (p *legacyPair) close(t *testing.T, where string) {
	t.Helper()
	p.gs.Close()
	p.ws.Close()
	if !reflect.DeepEqual(p.gs.Served(), p.ws.Served()) || p.gs.Dropped() != p.ws.Dropped() {
		t.Fatalf("%s: served %v dropped %d, legacy served %v dropped %d", where, p.gs.Served(), p.gs.Dropped(), p.ws.Served(), p.ws.Dropped())
	}
	if p.gotOracle.calls != p.wantOracle.calls {
		t.Fatalf("%s: RTTAt called %d times, legacy %d", where, p.gotOracle.calls, p.wantOracle.calls)
	}
	if got, want := stateJSON(t, p.got), stateJSON(t, p.want); got != want {
		t.Fatalf("%s: stats diverged from the legacy route\n got: %s\nwant: %s", where, got, want)
	}
}

// between applies one between-slices operation to both routers: 0
// invalidates the memo under a new oracle version, 1 retires id, 2
// restores each router's stats from its own export, anything else none.
func (p *legacyPair) between(t *testing.T, op int, id string) {
	switch op {
	case 0:
		p.gotOracle.version++
		p.wantOracle.version++
		p.got.InvalidateRTT()
		p.want.InvalidateRTT()
	case 1:
		p.got.Retire(id)
		p.want.Retire(id)
	case 2:
		for _, r := range []*Router{p.got, p.want} {
			if err := r.RestoreStats(r.Stats().State()); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestRouteMatchesLegacy holds RouteAt bit for bit to legacyRoute over
// seeded scenarios, with per-replica stats on and off: replicas drawn from
// a catalog where some IDs span classes (at one location or across
// locations) and some classes back two IDs, an oracle that answers NaN for
// about one pair in eight, capacities tight enough to spill and drop, and
// invalidations, retirements and stats restores between slices.
func TestRouteMatchesLegacy(t *testing.T) {
	const nLoc, slo = 6, 20.0
	var catalog []Replica
	for loc := 0; loc < nLoc; loc++ {
		// k = 1 and 2 share a class under two IDs; k = 2 and 3 share an ID
		// over two classes.
		for k, svc := range []float64{2, 7, 7, 12} {
			catalog = append(catalog, Replica{
				ID: fmt.Sprintf("r%d/%d", loc, min(k, 2)), Loc: loc, ZoneID: fmt.Sprintf("Z%d", (loc+k)%3),
				ServiceMs: svc, EnergyPerReqJ: 0.3 + 0.2*float64(k),
			})
		}
	}
	catalog[1].ID = catalog[0].ID // location 0's first two classes under one ID
	catalog[9].ID = catalog[4].ID // one ID at locations 1 and 2
	for _, perReplica := range []bool{false, true} {
		var spilled, dropped, nanRouted, sharedID bool
		for seed := 1; seed <= 8; seed++ {
			rng := rand.New(rand.NewSource(int64(seed)))
			p := newLegacyPair(t, seed, perReplica, slo)
			for k := 0; k < 60; k++ {
				var reps []Replica
				ids := map[string]int{}
				for _, rep := range catalog {
					if rng.Intn(3) == 0 {
						rep.CapacityRPS = float64(rng.Intn(30)) // 0: present but drained
						reps = append(reps, rep)
						ids[rep.ID]++
					}
				}
				rng.Shuffle(len(reps), func(i, j int) { reps[i], reps[j] = reps[j], reps[i] })
				p.open(reps, float64(1+rng.Intn(8)))
				for n := 1 + rng.Intn(6); n > 0; n-- {
					p.route(rng.Intn(nLoc), int64(rng.Intn(600)))
				}
				p.close(t, fmt.Sprintf("seed %d per-replica=%t slice %d", seed, perReplica, k))
				for _, n := range ids {
					sharedID = sharedID || n > 1
				}
				p.between(t, rng.Intn(5), catalog[rng.Intn(len(catalog))].ID)
			}
			st := p.want.Stats()
			spilled = spilled || st.Spilled > 0
			dropped = dropped || st.Dropped > 0
			nanRouted = nanRouted || p.nanRouted
		}
		if !spilled || !dropped || !nanRouted || !sharedID {
			t.Errorf("per-replica=%t: scenario too easy (spilled %t, dropped %t, NaN pair routed %t, shared ID %t)",
				perReplica, spilled, dropped, nanRouted, sharedID)
		}
	}
}
