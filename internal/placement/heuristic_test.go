package placement

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/cluster"
	"repro/internal/energy"
)

// TestSolverSearchModesEquivalent is the core flattening property on
// dense problems at a size where local search genuinely iterates: the
// flattened search (memoized cost rows + dirty-app work queue) must
// reproduce the reference sweep bit for bit, cold and warm, under every
// policy.
func TestSolverSearchModesEquivalent(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 12; trial++ {
		inst := randomWSInstance(rng, 10+rng.Intn(30), 5+rng.Intn(20))
		p, err := Build(inst.apps, inst.servers, inst.rtt, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, pol := range allPolicies() {
			flat := NewHeuristicSolver()

			aSweep, err := sweepSolve(p, pol, nil)
			if err != nil {
				t.Fatalf("trial %d %s sweep: %v", trial, pol.Name(), err)
			}
			aFlat, err := flat.Solve(p, pol)
			if err != nil {
				t.Fatalf("trial %d %s flat: %v", trial, pol.Name(), err)
			}
			if !reflect.DeepEqual(aSweep, aFlat) {
				t.Fatalf("trial %d %s: cold assignments diverged across search modes:\nsweep: %+v\nflat:  %+v",
					trial, pol.Name(), aSweep, aFlat)
			}
			if err := p.CheckFeasible(aFlat); err != nil {
				t.Fatalf("trial %d %s: flat assignment infeasible: %v", trial, pol.Name(), err)
			}

			// Warm from a rotated seed (stale entries included).
			seed := &Assignment{ServerOf: append([]int(nil), aSweep.ServerOf...)}
			for i, j := range seed.ServerOf {
				if j >= 0 {
					seed.ServerOf[i] = (j + 1) % len(p.Servers)
				}
			}
			wSweep, err := sweepSolve(p, pol, seed)
			if err != nil {
				t.Fatal(err)
			}
			wFlat, err := solveNew(flat, p, pol, seed)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(wSweep, wFlat) {
				t.Fatalf("trial %d %s: warm assignments diverged across search modes:\nsweep: %+v\nflat:  %+v",
					trial, pol.Name(), wSweep, wFlat)
			}
		}
	}
}

// warmBoth solves p warm from warm under CarbonAware with the sweep oracle
// and with the solver, in that order.
func warmBoth(t *testing.T, p *Problem, warm *Assignment) []*Assignment {
	t.Helper()
	sweep, err := sweepSolve(p, CarbonAware{}, warm)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := solveNew(NewHeuristicSolver(), p, CarbonAware{}, warm)
	if err != nil {
		t.Fatal(err)
	}
	return []*Assignment{sweep, flat}
}

// TestSolveWarmStaleAssignments: warm.ServerOf entries pointing at
// out-of-range or now-incompatible servers must be skipped, not panic —
// over shrunk and grown fleets, for both backends and the sweep oracle.
func TestSolveWarmStaleAssignments(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	base := randomWSInstance(rng, 6, 8)
	full, err := Build(base.apps, base.servers, base.rtt, nil)
	if err != nil {
		t.Fatal(err)
	}
	prev, err := NewHeuristicSolver().Solve(full, CarbonAware{})
	if err != nil {
		t.Fatal(err)
	}

	// An assignment whose every entry lands on an incompatible server:
	// apps are forced onto a fleet of one device class they cannot run on
	// by construction below.
	cases := []struct {
		name    string
		servers []Server
		warm    *Assignment
	}{
		{
			// Fleet shrunk after the previous epoch: high indices dangle.
			name:    "shrunk fleet",
			servers: base.servers[:3],
			warm:    prev,
		},
		{
			// Fleet grown: previous indices are valid but the warm slice
			// is shorter than nothing — same length apps, larger fleet.
			name:    "grown fleet",
			servers: append(append([]Server(nil), base.servers...), randomWSInstance(rng, 0, 4).servers...),
			warm:    prev,
		},
		{
			name:    "negative and far out-of-range entries",
			servers: base.servers,
			warm:    &Assignment{ServerOf: []int{-1, 999, 7, -5, 1 << 30, 2}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Deduplicate server IDs for the grown fleet case.
			seen := map[string]int{}
			for j := range tc.servers {
				if n := seen[tc.servers[j].ID]; n > 0 {
					tc.servers[j].ID = fmt.Sprintf("%s-g%d", tc.servers[j].ID, n)
				}
				seen[tc.servers[j].ID]++
			}
			p, err := Build(base.apps, tc.servers, base.rtt, nil)
			if err != nil {
				t.Fatal(err)
			}
			got := warmBoth(t, p, tc.warm)
			for _, a := range got {
				if err := p.CheckFeasible(a); err != nil {
					t.Fatalf("stale warm produced infeasible assignment: %v", err)
				}
			}
			if !reflect.DeepEqual(got[0], got[1]) {
				t.Fatalf("stale warm diverged across search modes:\nsweep: %+v\nflat:  %+v", got[0], got[1])
			}
			// The exact backend screens the same stale point as a
			// candidate incumbent; it must survive and stay optimal.
			ea, err := solveNew(NewExactSolver(), p, CarbonAware{}, tc.warm)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.CheckFeasible(ea); err != nil {
				t.Fatalf("exact stale warm infeasible: %v", err)
			}
		})
	}

	// Now-incompatible: the warm assignment points at servers that can no
	// longer serve the apps — SLOs tightened below the fixture's 2 ms RTT
	// floor, so every previously-valid (app, server) pair fails the
	// latency gate and must be skipped.
	t.Run("incompatible servers", func(t *testing.T) {
		apps := append([]App(nil), base.apps...)
		for i := range apps {
			apps[i].SLOms = 0.5
		}
		p, err := Build(apps, base.servers, base.rtt, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range warmBoth(t, p, prev) {
			if len(a.Unplaced) != len(apps) {
				t.Fatalf("expected every app unplaced on incompatible fleet, got %d unplaced", len(a.Unplaced))
			}
		}
	})
}

// TestSolverReusesValidationMaps is the regression test for the lazy-init
// bug where SolveInto allocated s.ids/s.sid after clearing them: two
// solves on one solver must reuse the same maps, and a steady-state solve
// (validation on, reused destination) must not allocate at all.
func TestSolverReusesValidationMaps(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	inst := randomWSInstance(rng, 12, 10)
	p, err := Build(inst.apps, inst.servers, inst.rtt, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := NewHeuristicSolver()
	var dst Assignment
	if err := s.SolveInto(&dst, p, CarbonAware{}, nil); err != nil {
		t.Fatal(err)
	}
	ids0 := reflect.ValueOf(s.ids).Pointer()
	sid0 := reflect.ValueOf(s.sid).Pointer()
	if err := s.SolveInto(&dst, p, CarbonAware{}, nil); err != nil {
		t.Fatal(err)
	}
	if reflect.ValueOf(s.ids).Pointer() != ids0 || reflect.ValueOf(s.sid).Pointer() != sid0 {
		t.Fatal("second solve rebuilt the validation maps instead of reusing them")
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := s.SolveInto(&dst, p, CarbonAware{}, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("steady-state solve allocates %.1f times per run, want 0", allocs)
	}
}

// TestSolverSkipValidate: the trusted fast path must skip the structural
// checks (a malformed problem sails through), while the default posture
// still rejects it.
func TestSolverSkipValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	inst := randomWSInstance(rng, 4, 5)
	p, err := Build(inst.apps, inst.servers, inst.rtt, nil)
	if err != nil {
		t.Fatal(err)
	}
	p.Apps[1].ID = p.Apps[0].ID // duplicate ID: structurally invalid
	if _, err := NewHeuristicSolver().Solve(p, CarbonAware{}); err == nil {
		t.Fatal("duplicate app ID accepted with validation on")
	}
	if _, err := (&ExactSolver{Options: NewExactSolver().Options}).Solve(p, CarbonAware{}); err == nil {
		t.Fatal("exact: duplicate app ID accepted with validation on")
	}
	trusted := &HeuristicSolver{SkipValidate: true}
	if _, err := trusted.Solve(p, CarbonAware{}); err != nil {
		t.Fatalf("trusted solve rejected problem: %v", err)
	}
	te := NewExactSolver()
	te.SkipValidate = true
	if _, err := te.Solve(p, CarbonAware{}); err != nil {
		t.Fatalf("trusted exact solve rejected problem: %v", err)
	}
}

// TestOrderByCountMatchesStableSort: construct's counting sort must
// produce the permutation sort.SliceStable does (a stable sort's
// permutation is unique), on the edge shapes and on random vectors.
func TestOrderByCountMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	cases := [][]int{
		{},              // empty batch
		{3},             // single app
		{0},             // single app with no option
		{4, 4, 4, 4, 4}, // all equal: identity
		{5, 4, 3, 2, 1, 0},
		{0, 7, 0, 7, 1, 7, 0},
	}
	for trial := 0; trial < 200; trial++ {
		m := 1 + rng.Intn(40)
		counts := make([]int, rng.Intn(300))
		for i := range counts {
			counts[i] = rng.Intn(m + 1)
		}
		cases = append(cases, counts)
	}
	for n, counts := range cases {
		m := 0
		for _, k := range counts {
			m = max(m, k)
		}
		want := make([]int, len(counts))
		for i := range want {
			want[i] = i
		}
		sort.SliceStable(want, func(a, b int) bool { return counts[want[a]] < counts[want[b]] })
		got := make([]int, len(counts))
		bucket := make([]int, m+2)
		for i := range bucket {
			bucket[i] = -99 // scratch arrives dirty
		}
		orderByCount(got, counts, bucket)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d: counts %v ordered %v, stable sort says %v", n, counts, got, want)
		}
	}
}

// TestAdjacencyBuiltOnlyWhenNeeded pins the lazy reverse adjacency: a
// solve in which local search moves nothing — every app constructed onto
// its cheapest server of an always-on fleet with room to spare, the
// cdn_year shape — never builds it, and a warm solve of a churned batch
// on the same solver still agrees with the reference sweep.
func TestAdjacencyBuiltOnlyWhenNeeded(t *testing.T) {
	for _, pol := range []Policy{CarbonAware{}, LatencyAware{}, EnergyAware{}, IntensityAware{}} {
		t.Run(pol.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(5))
			const nApps, nServers = 30, 10
			inst := classedWSInstance(rng, nApps, nServers)
			for j := range inst.servers {
				inst.servers[j].PoweredOn = true
				inst.servers[j].Free = inst.servers[j].Free.Scale(100)
			}
			ws, err := NewWorkspace(inst.servers, inst.rtt, nil)
			if err != nil {
				t.Fatal(err)
			}
			flat := &HeuristicSolver{SkipValidate: true}
			apps := append([]App(nil), inst.apps...)
			p, err := ws.Problem(apps)
			if err != nil {
				t.Fatal(err)
			}
			first, err := flat.Solve(p, pol)
			if err != nil {
				t.Fatal(err)
			}
			if flat.memo.adj {
				t.Fatal("a solve that moved nothing built the reverse adjacency")
			}

			for c := 0; c < 4; c++ {
				fresh := classedWSInstance(rng, 1, 0).apps[0]
				fresh.ID = fmt.Sprintf("churn-%d", c)
				apps[rng.Intn(nApps)] = fresh
			}
			p, err = ws.Problem(apps)
			if err != nil {
				t.Fatal(err)
			}
			want, err := sweepSolve(p, pol, first)
			if err != nil {
				t.Fatal(err)
			}
			got, err := solveNew(flat, p, pol, first)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("churned warm solve diverged from the sweep:\nsweep: %+v\nflat:  %+v", want, got)
			}
		})
	}
}

// gridApps returns n apps drawn from the classes of a (source, SLO, model)
// grid at one rate, so a workspace view groups them into at most
// len(sources) x len(slos) x len(models) classes.
func gridApps(rng *rand.Rand, n int, sources []string, slos []float64, models []string) []App {
	apps := make([]App, n)
	for i := range apps {
		apps[i] = App{
			ID:         fmt.Sprintf("g%04d", i),
			Model:      models[rng.Intn(len(models))],
			Source:     sources[rng.Intn(len(sources))],
			SLOms:      slos[rng.Intn(len(slos))],
			RatePerSec: 2,
		}
	}
	return apps
}

// memoInstance is a workspace fleet that drives both class memos through
// their edge cases: a third of the servers start powered off (power-ons
// mid-construct), capacity is tight enough that a class's pick fills up
// and is re-scanned mid-construct, and intensities come in tied pairs,
// pairs 5e-13 apart (inside local search's 1e-12 tie band) and as -0 next
// to +0.
func memoInstance(rng *rand.Rand, nServers int) wsInstance {
	inst := randomWSInstance(rng, 0, nServers)
	for j := range inst.servers {
		s := &inst.servers[j]
		s.PoweredOn = j%3 != 0
		s.Free = s.Free.Scale(0.25 + 0.5*rng.Float64())
		switch j % 5 {
		case 1: // the previous server's device and intensity: exact cost ties
			s.Intensity = inst.servers[j-1].Intensity
			s.Device, s.BasePowerW = inst.servers[j-1].Device, inst.servers[j-1].BasePowerW
		case 2:
			s.Intensity = inst.servers[j-2].Intensity + 5e-13
		case 3:
			s.Intensity = math.Copysign(0, -1)
		case 4:
			s.Intensity = 0
		}
	}
	return inst
}

// TestClassMemoMatchesSweep is the differential test for construct's
// class pick and local search's class floor: on workspace views, where
// tens of apps share each class, the flattened solver must reproduce the
// reference sweep's ServerOf and PowerOn exactly — cold, warm from a
// rotated seed, and through churned warm rounds on one view. The
// scan counters show the memos were actually exercised: fewer scans than
// apps, construct re-scanning classes whose pick (seeded by the cost-row
// build, so every construct scan is a refill) filled or was retired by a
// power-on, and every floor verdict taken (no move, move to the
// cheapest, near-tie fallback scan, retry on the first fit, retry with
// nothing fitting), under every policy, the batch-normalized blend
// included.
func TestClassMemoMatchesSweep(t *testing.T) {
	sources := []string{"c0", "c1", "c3"}
	slos := []float64{8, 13}
	models := []string{energy.ModelEfficientNetB0, energy.ModelResNet50, energy.ModelYOLOv4}
	same := func(t *testing.T, when string, want, got *Assignment) {
		t.Helper()
		if !reflect.DeepEqual(want.ServerOf, got.ServerOf) || !reflect.DeepEqual(want.PowerOn, got.PowerOn) {
			t.Fatalf("%s: flat diverged from sweep:\nsweep: %+v\nflat:  %+v", when, want, got)
		}
	}
	for _, pol := range allPolicies() {
		t.Run(pol.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(19))
			var cold, coldScans int
			var verdicts [5]int
			for trial := 0; trial < 6; trial++ {
				inst := memoInstance(rng, 12+rng.Intn(8))
				ws, err := NewWorkspace(inst.servers, inst.rtt, nil)
				if err != nil {
					t.Fatal(err)
				}
				apps := gridApps(rng, 150+rng.Intn(150), sources, slos, models)
				p, err := ws.Problem(apps)
				if err != nil {
					t.Fatal(err)
				}
				flat := &HeuristicSolver{SkipValidate: true}

				want, err := sweepSolve(p, pol, nil)
				if err != nil {
					t.Fatal(err)
				}
				got, err := flat.Solve(p, pol)
				if err != nil {
					t.Fatal(err)
				}
				same(t, fmt.Sprintf("trial %d cold", trial), want, got)
				cold += len(apps)
				coldScans += flat.scans.construct // all refills: the build seeds every pick

				seed := &Assignment{ServerOf: append([]int(nil), want.ServerOf...)}
				for i, j := range seed.ServerOf {
					if j >= 0 {
						seed.ServerOf[i] = (j + 1) % len(p.Servers)
					}
				}
				if want, err = sweepSolve(p, pol, seed); err != nil {
					t.Fatal(err)
				}
				if got, err = solveNew(flat, p, pol, seed); err != nil {
					t.Fatal(err)
				}
				same(t, fmt.Sprintf("trial %d warm", trial), want, got)

				// Continuation rounds: churn a few apps per round, with an
				// intensity tick or a power toggle now and then.
				prev := got
				for round := 0; round < 8; round++ {
					for c := 0; c < 5; c++ {
						fresh := gridApps(rng, 1, sources, slos, models)[0]
						fresh.ID = fmt.Sprintf("t%d-r%d-%d", trial, round, c)
						apps[rng.Intn(len(apps))] = fresh
					}
					switch round % 4 {
					case 1:
						j := rng.Intn(len(inst.servers))
						ws.UpdateIntensity(j, ws.Server(j).Intensity+5e-13)
					case 3:
						j := rng.Intn(len(inst.servers))
						srv := ws.Server(j)
						ws.SetServerState(j, srv.Free, !srv.PoweredOn)
					}
					if p, err = ws.Problem(apps); err != nil {
						t.Fatal(err)
					}
					if want, err = sweepSolve(p, pol, prev); err != nil {
						t.Fatal(err)
					}
					if got, err = solveNew(flat, p, pol, prev); err != nil {
						t.Fatal(err)
					}
					same(t, fmt.Sprintf("trial %d round %d", trial, round), want, got)
					prev = got
				}
				// The counters are the solver's lifetime totals.
				for k, v := range []int{flat.scans.stay, flat.scans.move, flat.scans.fallback, flat.scans.retry, flat.scans.stuck} {
					verdicts[k] += v
				}
			}
			t.Logf("cold: %d apps, %d construct scans", cold, coldScans)
			t.Logf("verdicts: stay %d, move %d, fallback %d, retry %d, nothing fits %d",
				verdicts[0], verdicts[1], verdicts[2], verdicts[3], verdicts[4])
			for k, name := range []string{"no move", "move to the cheapest", "near-tie fallback", "retry on the first fit", "retry with nothing fitting"} {
				if verdicts[k] == 0 {
					t.Errorf("the fixture never takes the %s verdict", name)
				}
			}
			if coldScans >= cold {
				t.Errorf("construct scanned every app (%d scans for %d apps): the pick memo never hit", coldScans, cold)
			}
			if coldScans == 0 {
				t.Error("no class was re-scanned in construct: the fixture never fills a pick or powers a server on")
			}
		})
	}
}

// TestClassMemoScanCount pins the saving as a count: a cold solve of 2 000
// apps in 8 classes on an always-on fleet with room to spare makes no
// scan at all — construct takes every pick from the cost-row build's
// seeds and certifies its result a fixpoint, so local search never runs.
// A warm solve from a seed that spreads every class over the fleet moves
// most apps, and no move flips a fit threshold here, so it scans once per
// class — not once per (class, hosting server) and moving app, as before
// the class floor.
func TestClassMemoScanCount(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	inst := randomWSInstance(rng, 0, 40)
	for j := range inst.servers {
		inst.servers[j].PoweredOn = true
		inst.servers[j].Free = inst.servers[j].Free.Scale(1000)
	}
	ws, err := NewWorkspace(inst.servers, inst.rtt, nil)
	if err != nil {
		t.Fatal(err)
	}
	apps := gridApps(rng, 2000, []string{"c0", "c3"}, []float64{13, 30},
		[]string{energy.ModelEfficientNetB0, energy.ModelResNet50})
	p, err := ws.Problem(apps)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.classRep) != 8 {
		t.Fatalf("fixture has %d classes, want 8", len(p.classRep))
	}
	for _, pol := range []Policy{CarbonAware{}, LatencyAware{}, EnergyAware{}, IntensityAware{}} {
		flat := &HeuristicSolver{SkipValidate: true}
		a, err := flat.Solve(p, pol)
		if err != nil {
			t.Fatal(err)
		}
		want, err := sweepSolve(p, pol, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, want) {
			t.Fatalf("%s: flat diverged from sweep", pol.Name())
		}
		if got := flat.scans.construct; got != 0 {
			t.Errorf("%s: %d construct scans, want 0 (every pick seeded)", pol.Name(), got)
		}
		if got := flat.scans.search; got != 0 {
			t.Errorf("%s: %d local-search floor scans, want 0 (construct certified)", pol.Name(), got)
		}

		seed := &Assignment{ServerOf: make([]int, len(apps))}
		for i := range seed.ServerOf {
			seed.ServerOf[i] = i % len(inst.servers)
		}
		if want, err = sweepSolve(p, pol, seed); err != nil {
			t.Fatal(err)
		}
		before := flat.scans
		if a, err = solveNew(flat, p, pol, seed); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, want) {
			t.Fatalf("%s: warm flat diverged from sweep", pol.Name())
		}
		if got := flat.scans.search - before.search; got > 8 {
			t.Errorf("%s: %d warm floor scans, want at most one per class (8)", pol.Name(), got)
		}
		if got := flat.scans.lookup - before.lookup; got != len(apps) {
			t.Errorf("%s: %d warm-seed slot lookups, want one per seeded app (%d)", pol.Name(), got, len(apps))
		}
		moved := 0
		for i, j := range a.ServerOf {
			if j != seed.ServerOf[i] {
				moved++
			}
		}
		if moved < len(apps)/2 {
			t.Fatalf("%s: the warm solve moved %d of %d apps, want most", pol.Name(), moved, len(apps))
		}
		t.Logf("%s: %d construct, %d floor and %d fallback scans; warm: %d floor and %d fallback scans, %d floors updated in place and %d dropped, %d of %d apps moved",
			pol.Name(), before.construct, before.search, before.fallback,
			flat.scans.search-before.search, flat.scans.fallback-before.fallback,
			flat.scans.inplace-before.inplace, flat.scans.dropped-before.dropped, moved, len(apps))
	}
}

// TestFloorScanAndMove pins the class floor's two halves directly. The
// scan keeps the three cheapest fitting slots by (cost, slot) — an equal
// cost ranks after the earlier slot, a NaN cost never enters, a server
// that is off costs its activation too — and the first fitting slot
// whatever its cost. The verdict excludes the app's own slot, moves only
// past the tie band, and leaves a near tie between the two cheapest to
// the scan.
func TestFloorScanAndMove(t *testing.T) {
	intensity := []float64{math.NaN(), 300, 100, 200, 100, 10}
	servers := make([]Server, len(intensity))
	for j, v := range intensity {
		servers[j] = Server{ID: fmt.Sprintf("s%d", j), Intensity: v, PoweredOn: j != 5, BasePowerW: 5000,
			Free: cluster.NewResources(100, 100, 100, 100)}
	}
	p := NewProblem([]App{{ID: "a", SLOms: 20}}, servers)
	for j := range servers {
		p.Compatible[0][j], p.PowerW[0][j] = true, 10
	}
	Stamp(p)
	st, mm := &state{}, &costMemo{}
	st.init(p, 0)
	mm.build(p, CarbonAware{}, true)
	var f floor
	f.scan(st, mm, 0, stamped{})
	if f.first != 0 || f.n != 3 || f.slot != [3]int{2, 4, 3} || f.cost != [3]float64{1, 1, 2} {
		t.Fatalf("floor = %+v, want first 0 and slots [2 4 3] at costs [1 1 2]", f)
	}

	apart := floor{n: 3, slot: [3]int{0, 1, 2}, cost: [3]float64{1, 2, 3}}
	near := floor{n: 3, slot: [3]int{0, 1, 2}, cost: [3]float64{1, 1 + 5e-13, 3}}
	one := floor{n: 1, slot: [3]int{4}, cost: [3]float64{1}}
	for _, tc := range []struct {
		name    string
		f       floor
		cur     int
		curCost float64
		want    int
	}{
		{"both cheaper, far apart", apart, 5, 10, 0},
		{"own slot excluded", apart, 0, 10, 1},
		{"runner-up not cheaper", apart, 5, 2, 0},
		{"nothing cheaper", apart, 5, 1, stay},
		{"inside the band", apart, 5, 1 + 5e-13, stay},
		{"NaN current cost", apart, 5, math.NaN(), stay},
		{"near tie", near, 5, 10, nearTie},
		{"near tie on own slot", near, 0, 10, 1},
		{"only entry", one, 9, 10, 4},
		{"only entry is own", one, 4, 10, stay},
	} {
		if got := tc.f.move(tc.cur, tc.curCost); got != tc.want {
			t.Errorf("%s: move(%d, %v) = %d, want %d", tc.name, tc.cur, tc.curCost, got, tc.want)
		}
	}
}

// TestFloorInsertMatchesScan holds a touch's in-place floor updates to
// the scan they stand for, over tie-heavy rows (exact ties, ±0, NaN, and
// servers that are off costing their activation too): on a server that is
// on, a floor scanned with slot k not fitting and then given insert(k)
// equals the scan with k fitting, and a floor scanned with k fitting that
// does not hold k equals the scan with k no longer fitting.
func TestFloorInsertMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	palette := []float64{1, 1, 2, 2, 3, 0, math.Copysign(0, -1), math.NaN()}
	unit := cluster.NewResources(1, 1, 1, 1)
	same := func(a, b *floor) bool {
		if a.first != b.first || a.n != b.n {
			return false
		}
		for e := 0; e < a.n; e++ {
			if a.slot[e] != b.slot[e] || math.Float64bits(a.cost[e]) != math.Float64bits(b.cost[e]) {
				return false
			}
		}
		return true
	}
	var inserted, entered, kept, held int
	for trial := 0; trial < 4000; trial++ {
		m := 1 + rng.Intn(8)
		p := &Problem{Demand: [][]cluster.Resources{make([]cluster.Resources, m)}}
		st := &state{p: p, free: make([]cluster.Resources, m), on: make([]bool, m)}
		mm := &costMemo{cls: []int32{0}, off: []int{0}, cand: [][]int{make([]int, m)},
			row: make([]float64, m), act: make([]float64, m)}
		for j := 0; j < m; j++ {
			mm.cand[0][j] = j
			p.Demand[0][j] = unit
			mm.row[j] = palette[rng.Intn(len(palette))]
			mm.act[j] = palette[rng.Intn(len(palette))]
			st.on[j] = rng.Intn(4) != 0
			if rng.Intn(3) != 0 {
				st.free[j] = unit
			}
		}
		k := rng.Intn(m)
		st.on[k] = true
		var without, with floor
		st.free[k] = cluster.Resources{}
		without.scan(st, mm, 0, stamped{})
		st.free[k] = unit
		with.scan(st, mm, 0, stamped{})

		got := without
		got.insert(k, mm.row[k])
		if !same(&got, &with) {
			t.Fatalf("trial %d: inserting slot %d (cost %v) into %+v gave %+v, the scan gives %+v",
				trial, k, mm.row[k], without, got, with)
		}
		inserted++
		if without.n == len(without.slot) && with.holds(k) && k != with.first {
			entered++
		}
		if with.holds(k) {
			held++
		} else {
			if !same(&with, &without) {
				t.Fatalf("trial %d: slot %d left %+v, which does not hold it, but the scan gives %+v", trial, k, with, without)
			}
			kept++
		}
	}
	if entered == 0 || kept == 0 || held == 0 {
		t.Fatalf("fixture too thin: %d inserts, %d displacing an entry, %d removals kept, %d held", inserted, entered, kept, held)
	}
}

// certProblem is a dense problem over servers in which every app may run
// on every server, needs 100 of each resource, draws power[j] W on server
// j and sits lat[j] ms from it, under a 20 ms SLO. Cases edit the cells,
// then Stamp the problem.
func certProblem(nApps int, servers []Server, power, lat []float64) *Problem {
	apps := make([]App, nApps)
	for i := range apps {
		apps[i] = App{ID: fmt.Sprintf("a%d", i), SLOms: 20}
	}
	p := NewProblem(apps, servers)
	for i := range apps {
		for j := range servers {
			p.Compatible[i][j] = true
			p.Demand[i][j] = cluster.NewResources(100, 100, 100, 100)
			p.PowerW[i][j], p.LatencyMs[i][j] = power[j], lat[j]
		}
	}
	return p
}

// certServers returns servers s0, s1, ... at the given intensities, each
// with 50 W base power and room for ten apps; on[j] is s_j's power state.
func certServers(intensity []float64, on []bool) []Server {
	servers := make([]Server, len(intensity))
	for j := range servers {
		servers[j] = Server{ID: fmt.Sprintf("s%d", j), Intensity: intensity[j], BasePowerW: 50, PoweredOn: on[j],
			Free: cluster.NewResources(1000, 1000, 1000, 1000)}
	}
	return servers
}

// TestConstructCertificate pins when a cold solve skips local search:
// construct certifies its result a fixpoint of local search when it placed
// every app and retired no pick (no power-on, no demand that grows
// capacity). Per case and policy the cold solve must equal the sweep's,
// and the scan counters show whether the certificate fired — a certified
// solve scans nothing, construct's picks all coming from the cost-row
// build's seeds — or local search ran and did what the case needs of it.
// Each case lists the policies its premise holds under: activation is free
// under Latency-aware and Intensity-aware, so no power-on changes a cost
// there, and only policies that read intensity see a NaN one.
func TestConstructCertificate(t *testing.T) {
	carbon, energyP, intensity := CarbonAware{}, EnergyAware{}, IntensityAware{}
	blend := NewCarbonEnergyBlend(0.5)
	type want struct {
		fires               bool
		moves, retry, stuck int // at least this many
	}
	for _, tc := range []struct {
		name    string
		problem func(rng *rand.Rand) *Problem
		pols    []Policy
		want    want
	}{{
		// A seeded workspace fleet, every server on with room to spare,
		// its odd servers copies of their even neighbours: exact cost ties
		// under every policy, which the seeds must break to the first slot.
		name: "always-on fleet with room",
		problem: func(rng *rand.Rand) *Problem {
			inst := randomWSInstance(rng, 0, 10)
			for j := range inst.servers {
				s := &inst.servers[j]
				if j%2 == 1 {
					prev := inst.servers[j-1]
					s.DC, s.Device, s.BasePowerW, s.Intensity = prev.DC, prev.Device, prev.BasePowerW, prev.Intensity
				}
				s.PoweredOn, s.Free = true, s.Free.Scale(100)
			}
			ws, err := NewWorkspace(inst.servers, inst.rtt, nil)
			if err != nil {
				t.Fatal(err)
			}
			p, err := ws.Problem(gridApps(rng, 60, []string{"c0", "c2", "c4"}, []float64{8, 30},
				[]string{energy.ModelEfficientNetB0, energy.ModelResNet50}))
			if err != nil {
				t.Fatal(err)
			}
			return p
		},
		pols: allPolicies(),
		want: want{fires: true},
	}, {
		// s1 is cheapest by its cost row but dearest once its activation
		// is added: the apps stay on s0 and nothing powers on.
		name: "off server dear with its activation",
		problem: func(*rand.Rand) *Problem {
			return Stamp(certProblem(3, certServers([]float64{200, 50}, []bool{true, false}), []float64{10, 5}, []float64{5, 5}))
		},
		pols: []Policy{carbon, energyP},
		want: want{fires: true},
	}, {
		// a0 (two options, first in order) takes s0 over the off s1; a1
		// (two options) powers s1 on rather than take the dear s2, and
		// then a0 moves to s1.
		name: "later class powers a server on",
		problem: func(*rand.Rand) *Problem {
			p := certProblem(2, certServers([]float64{200, 50, 1000}, []bool{true, false, true}),
				[]float64{10, 5, 200}, []float64{5, 5, 5})
			p.Compatible[0][2], p.Compatible[1][0] = false, false
			return Stamp(p)
		},
		pols: []Policy{carbon, energyP},
		want: want{moves: 1},
	}, {
		// a0 frees memory wherever it lands: a demand that grows capacity
		// retires every pick.
		name: "negative demand component",
		problem: func(*rand.Rand) *Problem {
			p := certProblem(3, certServers([]float64{100, 200}, []bool{true, true}), []float64{10, 10}, []float64{5, 6})
			for j := range p.Servers {
				p.Demand[0][j] = cluster.NewResources(100, -50, 100, 100)
			}
			return Stamp(p)
		},
		pols: allPolicies(),
	}, {
		// a0 may only run on s0, whose intensity is NaN: no scan picks a
		// NaN cost, so construct leaves it unplaced and local search
		// retries it onto the first slot that fits.
		name: "every fitting slot costs NaN",
		problem: func(*rand.Rand) *Problem {
			p := certProblem(2, certServers([]float64{math.NaN(), 100}, []bool{true, true}), []float64{10, 10}, []float64{5, 5})
			p.Compatible[0][1] = false
			return Stamp(p)
		},
		pols: []Policy{carbon, intensity, blend},
		want: want{retry: 1},
	}, {
		// a0 may only run on s0, which has no room for it.
		name: "nothing fits",
		problem: func(*rand.Rand) *Problem {
			p := certProblem(2, certServers([]float64{100, 200}, []bool{true, true}), []float64{10, 10}, []float64{5, 5})
			p.Compatible[0][1] = false
			p.Servers[0].Free = cluster.NewResources(50, 1000, 1000, 1000)
			return Stamp(p)
		},
		pols: allPolicies(),
		want: want{stuck: 1},
	}} {
		for _, pol := range tc.pols {
			t.Run(tc.name+"/"+pol.Name(), func(t *testing.T) {
				p := tc.problem(rand.New(rand.NewSource(7)))
				want, err := sweepSolve(p, pol, nil)
				if err != nil {
					t.Fatal(err)
				}
				flat := NewHeuristicSolver()
				got, err := flat.Solve(p, pol)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("flat diverged from sweep:\nsweep: %+v\nflat:  %+v", want, got)
				}
				sc := flat.scans
				if fired := sc.search == 0; fired != tc.want.fires {
					t.Fatalf("certificate fired = %v, want %v (scans %+v)", fired, tc.want.fires, sc)
				}
				if tc.want.fires && sc.construct != 0 {
					t.Errorf("%d construct scans in a certified solve, want 0: every pick is a seed", sc.construct)
				}
				// Construct's own result, to count what local search moved.
				st := &state{}
				st.init(p, 0)
				sweepConstruct(st, pol)
				moved := 0
				for i, j := range got.ServerOf {
					if j >= 0 && st.assigned[i] >= 0 && j != st.assigned[i] {
						moved++
					}
				}
				if moved < tc.want.moves || sc.retry < tc.want.retry || sc.stuck < tc.want.stuck {
					t.Errorf("local search moved %d, retried %d and left %d stuck, want at least %d, %d and %d",
						moved, sc.retry, sc.stuck, tc.want.moves, tc.want.retry, tc.want.stuck)
				}
			})
		}
	}
}

// TestClassPickRetiredByGrowingDemand pins construct's guard for a demand
// that grows capacity (a profile with a negative footprint): placing it
// can make a cheaper server fit a class whose cached pick still fits
// elsewhere, so it must retire every pick like a power-on does.
func TestClassPickRetiredByGrowingDemand(t *testing.T) {
	profile := func(model, device string) (energy.Profile, error) {
		mem := 300.0 // "fill" needs 300 MB of accelerator memory
		if model == "grow" {
			mem = -300
		}
		return energy.Profile{Model: model, Device: device, InferenceMs: 1, DynamicW: 10, MemMB: mem}, nil
	}
	servers := []Server{
		{ID: "cheap", DC: "c0", Device: "A2", Intensity: 10, PoweredOn: true, Free: cluster.NewResources(1000, 8192, 200, 1e6)},
		{ID: "dear", DC: "c3", Device: "A2", Intensity: 500, PoweredOn: true, Free: cluster.NewResources(1000, 8192, 1e4, 1e6)},
	}
	rtt := randomWSInstance(rand.New(rand.NewSource(1)), 0, 0).rtt
	ws, err := NewWorkspace(servers, rtt, profile)
	if err != nil {
		t.Fatal(err)
	}
	// One option each, so construct takes them in index order: fill lands
	// on "dear", grow on "cheap" (the only server within its SLO) and frees
	// room there, and the second fill must see it.
	p, err := ws.Problem([]App{
		{ID: "f0", Model: "fill", Source: "c0", SLOms: 30, RatePerSec: 1},
		{ID: "g", Model: "grow", Source: "c0", SLOms: 3, RatePerSec: 1},
		{ID: "f1", Model: "fill", Source: "c0", SLOms: 30, RatePerSec: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := sweepSolve(p, CarbonAware{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewHeuristicSolver().Solve(p, CarbonAware{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("flat diverged from sweep:\nsweep: %+v\nflat:  %+v", want, got)
	}
	if want.ServerOf[2] != 0 {
		t.Fatalf("fixture no longer exercises the guard: second fill on server %d, want 0", want.ServerOf[2])
	}
}

// TestGatedListsMatchSweep pins the solver's gated candidate lists: a
// scan walks only the candidates, which are exactly the servers
// compatible and within the SLO. The fleet holds, beside the feasible
// servers, the cheapest servers of every policy made infeasible — an
// unprofiled device in the apps' own city (in the SLO, compatible with
// nothing) and a clean zone out of every SLO (compatible, too far) — so
// a list that admitted them would pick them. A workspace view and the
// dense Build (Stamp's lists) must each solve, cold and warm from a seed
// that puts apps on the infeasible servers, to the sweep oracle's
// ServerOf and PowerOn.
func TestGatedListsMatchSweep(t *testing.T) {
	rtt := func(src, dc string) float64 {
		switch {
		case src == dc:
			return 1
		case dc == "far":
			return 50
		}
		return 6
	}
	a2, _ := energy.DeviceByName(energy.A2.Name)
	orin, _ := energy.DeviceByName(energy.OrinNano.Name)
	srv := func(id, dc string, d energy.Device, intensity float64, on bool) Server {
		return Server{ID: id, DC: dc, Device: d.Name, Intensity: intensity, BasePowerW: d.IdleW, PoweredOn: on,
			Free: cluster.NewResources(1000, 8192, float64(d.MemMB), 1e6)}
	}
	servers := []Server{
		srv("feasible-on", "mid", a2, 300, true),
		srv("unprofiled-near", "c0", energy.Device{Name: "unprofiled"}, 1, true),
		srv("clean-far", "far", a2, 1, true),
		srv("feasible-off", "c0", orin, 200, false),
		srv("unprofiled-far", "far", energy.Device{Name: "unprofiled"}, 1, true),
		srv("feasible-near", "c1", orin, 250, true),
	}
	infeasible := map[int]bool{1: true, 2: true, 4: true}
	var apps []App
	for i := 0; i < 12; i++ {
		apps = append(apps, App{ID: fmt.Sprintf("a%02d", i), Source: []string{"c0", "c1"}[i%2], SLOms: 10,
			Model: []string{energy.ModelEfficientNetB0, energy.ModelResNet50}[i/2%2], RatePerSec: 2 + float64(i%3)})
	}
	ws, err := NewWorkspace(servers, rtt, nil)
	if err != nil {
		t.Fatal(err)
	}
	view, err := ws.Problem(apps)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := Build(apps, servers, rtt, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range apps {
		for j := range servers {
			if infeasible[j] == dense.Feasible(i, j) {
				t.Fatalf("fixture: app %d on server %s feasible %v", i, servers[j].ID, dense.Feasible(i, j))
			}
		}
	}
	seed := &Assignment{ServerOf: make([]int, len(apps))}
	for i := range seed.ServerOf {
		seed.ServerOf[i] = []int{1, 2, 4, 0, 5, 3}[i%6]
	}
	for _, pol := range allPolicies() {
		for _, tc := range []struct {
			name string
			p    *Problem
		}{{"view", view}, {"dense", dense}} {
			solver := &HeuristicSolver{SkipValidate: true}
			for _, warm := range []*Assignment{nil, seed} {
				want, err := sweepSolve(tc.p, pol, warm)
				if err != nil {
					t.Fatal(err)
				}
				got, err := solveNew(solver, tc.p, pol, warm)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(want.ServerOf, got.ServerOf) || !reflect.DeepEqual(want.PowerOn, got.PowerOn) {
					t.Fatalf("%s %s (warm %v): diverged from sweep:\nsweep: %+v\nflat:  %+v", pol.Name(), tc.name, warm != nil, want, got)
				}
				if err := tc.p.CheckFeasible(got); err != nil {
					t.Fatalf("%s %s (warm %v): %v", pol.Name(), tc.name, warm != nil, err)
				}
			}
		}
	}
}

// TestNaNLatencyMeetsNoSLO is a dense one-app problem whose cheapest
// server answers NaN latency. NaN fails every comparison, so each SLO
// test must be written as the good range: the gate, the sweep oracle's
// Feasible and CheckFeasible then agree that the app cannot go there.
func TestNaNLatencyMeetsNoSLO(t *testing.T) {
	rtt := func(src, dc string) float64 {
		if dc == "nan" {
			return math.NaN()
		}
		return 5
	}
	a2, _ := energy.DeviceByName(energy.A2.Name)
	servers := []Server{
		{ID: "dirty", DC: "c1", Device: a2.Name, Intensity: 300, BasePowerW: a2.IdleW, PoweredOn: true,
			Free: cluster.NewResources(1000, 8192, float64(a2.MemMB), 1e6)},
		{ID: "clean-nan", DC: "nan", Device: a2.Name, Intensity: 1, BasePowerW: a2.IdleW, PoweredOn: true,
			Free: cluster.NewResources(1000, 8192, float64(a2.MemMB), 1e6)},
	}
	apps := []App{{ID: "a", Source: "c0", SLOms: 10, Model: energy.ModelResNet50, RatePerSec: 2}}
	p, err := Build(apps, servers, rtt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(p.LatencyMs[0][1]) || !p.Compatible[0][1] {
		t.Fatalf("fixture: latency %g, compatible %v on the clean server", p.LatencyMs[0][1], p.Compatible[0][1])
	}
	if p.Feasible(0, 1) {
		t.Error("Feasible admits the NaN-latency server")
	}
	nan := &Assignment{ServerOf: []int{1}, PowerOn: []bool{true, true}}
	if err := p.CheckFeasible(nan); err == nil {
		t.Error("CheckFeasible accepts a placement on the NaN-latency server")
	}
	for _, pol := range allPolicies() {
		want, err := sweepSolve(p, pol, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := solveNew(&HeuristicSolver{}, p, pol, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want.ServerOf, []int{0}) || !reflect.DeepEqual(got.ServerOf, []int{0}) {
			t.Errorf("%s: sweep placed %v, heuristic %v, want both on the dirty server [0]", pol.Name(), want.ServerOf, got.ServerOf)
		}
		if err := p.CheckFeasible(got); err != nil {
			t.Errorf("%s: %v", pol.Name(), err)
		}
	}
}

// slotOf returns j's index within an ascending (gated) list, or -1.
func slotOf(cand []int, j int) int {
	lo, hi := 0, len(cand)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if cand[mid] < j {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(cand) && cand[lo] == j {
		return lo
	}
	return -1
}

// fuzzWorld decodes bytes into a workspace of at most 12 servers and a
// batch of at most 40 apps drawn from a (source, SLO, model) grid, so
// classes share rows, plus the policy. Intensities come from a palette of
// exact ties, +5e-13 offsets (inside local search's tie band) and ±0,
// about a third of the servers start off, and Free is tight. Missing
// bytes read as zero. The RTT oracle is returned for dense rebuilds.
func fuzzWorld(t *testing.T, next func() int) (*Workspace, []App, Policy, RTTFunc) {
	cities := []string{"c0", "c1", "c2", "c3"}
	devices := []string{energy.OrinNano.Name, energy.A2.Name}
	palette := []float64{100, 100 + 5e-13, 250, 250 + 5e-13, 0, math.Copysign(0, -1), 400}
	servers := make([]Server, 1+next()%12)
	for j := range servers {
		b := next()
		d, _ := energy.DeviceByName(devices[b%2])
		servers[j] = Server{
			ID:         fmt.Sprintf("s%02d", j),
			DC:         cities[(b>>1)%len(cities)],
			Device:     d.Name,
			Intensity:  palette[next()%len(palette)],
			BasePowerW: d.IdleW,
			PoweredOn:  (b>>3)%3 != 0,
			Free:       cluster.NewResources(150*float64(1+(b>>5)), 8192, float64(d.MemMB), 1e6).Scale(0.25),
		}
	}
	rtt := randomWSInstance(rand.New(rand.NewSource(1)), 0, 0).rtt
	ws, err := NewWorkspace(servers, rtt, nil)
	if err != nil {
		t.Fatal(err)
	}
	apps := make([]App, 1+next()%40)
	for i := range apps {
		apps[i] = fuzzApp(next(), fmt.Sprintf("a%02d", i))
	}
	return ws, apps, allPolicies()[next()%len(allPolicies())], rtt
}

// fuzzApp draws one of the 3 x 2 x 2 grid classes from b.
func fuzzApp(b int, id string) App {
	models := []string{energy.ModelEfficientNetB0, energy.ModelResNet50}
	return App{ID: id, Source: []string{"c0", "c1", "c3"}[b%3], SLOms: []float64{8, 13}[(b/3)%2],
		Model: models[(b/6)%2], RatePerSec: 2}
}

// FuzzHeuristicMatchesSweep holds the flattened solver to the reference
// sweep on decoded instances (fuzzWorld): the cold solve, a warm solve
// from a decoded seed, and one churned round on the same solver — churned
// apps plus an intensity tick or a power toggle, solved warm from the
// previous result — must each give the sweep's ServerOf and PowerOn. The
// first batch is also rebuilt densely (Build, every app its own class
// with Stamp's candidate lists) and solved cold and warm from the same
// seed, holding singleton classes to the sweep too.
func FuzzHeuristicMatchesSweep(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 0x21, 0, 0x09, 1, 0x41, 2, 0x62, 5, 0x83, 3, 0x04, 6, 30, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	// Warm servers off the shortlist: three c0 apps with an 8 ms SLO over
	// a c0 and a c2 server, seeded onto s01 (12 ms away), s00 and s01. On
	// a workspace view an off-list server is never feasible, so the seed
	// drops those two and keeps only the slot it can name.
	f.Add([]byte{1, 233, 2, 237, 0, 2, 0, 0, 0, 0, 2, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		pos := 0
		next := func() int {
			if pos >= len(data) {
				return 0
			}
			pos++
			return int(data[pos-1])
		}
		ws, apps, pol, rtt := fuzzWorld(t, next)
		flat := &HeuristicSolver{SkipValidate: true}
		check := func(when string, p *Problem, warm *Assignment) *Assignment {
			want, err := sweepSolve(p, pol, warm)
			if err != nil {
				t.Fatal(err)
			}
			got, err := solveNew(flat, p, pol, warm)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want.ServerOf, got.ServerOf) || !reflect.DeepEqual(want.PowerOn, got.PowerOn) {
				t.Fatalf("%s under %s: flat diverged from sweep:\nsweep: %+v\nflat:  %+v", when, pol.Name(), want, got)
			}
			return got
		}
		p, err := ws.Problem(apps)
		if err != nil {
			t.Fatal(err)
		}
		check("cold", p, nil)
		seed := &Assignment{ServerOf: make([]int, len(apps))}
		for i := range seed.ServerOf {
			seed.ServerOf[i] = next()%(ws.NumServers()+1) - 1
		}
		prev := check("warm", p, seed)
		d, err := Build(apps, slices.Clone(ws.servers), rtt, nil)
		if err != nil {
			t.Fatal(err)
		}
		check("dense cold", d, nil)
		check("dense warm", d, seed)

		for c := next() % 6; c > 0; c-- {
			apps[next()%len(apps)] = fuzzApp(next(), fmt.Sprintf("n%02d", c))
		}
		j := next() % ws.NumServers()
		if srv := ws.Server(j); next()%2 == 0 {
			ws.UpdateIntensity(j, srv.Intensity+5e-13)
		} else {
			ws.SetServerState(j, srv.Free, !srv.PoweredOn)
		}
		if p, err = ws.Problem(apps); err != nil {
			t.Fatal(err)
		}
		check("churned", p, prev)
	})
}
